"""The package's public surface is used by the package itself.

Every name ``rlvrlab/__init__.py`` exports, and every function and class a
module defines at top level bar the few ``ALLOWED_UNREFERENCED``, must be
referenced by the package's own modules outside its own definition and
outside type annotations: a name only tests reach is surface no run
exercises.  In the same way every field of a dataclass the package
defines, bar the few ``UNREAD_FIELDS`` names, and every option of the
command line must be read by the package: a flag no module reads does
nothing.
"""

import argparse
import ast
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import pytest

import rlvrlab
from rlvrlab import cli

SRC = Path(rlvrlab.__file__).parent

# Exports no module of the package references.
ALLOWED_UNUSED: set[str] = set()

# Top-level functions and classes no module of the package references, and
# why each stays.
ALLOWED_UNREFERENCED = {
    # The benchmark's calibration.py and findings.py still call them, until
    # ROADMAP item 4 retires those calls.
    ("policy", "sample_response"),
    ("tasks", "generate_task"),
    # The reference the trainer's row-key decoding is tested against.
    ("tasks", "decode_tokens"),
}


def exports() -> list[tuple[str, str]]:
    """(defining module, name) of every name ``__init__.py`` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def annotation_nodes(tree: ast.AST) -> set[int]:
    """Ids of the root nodes of every annotation in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            out |= {id(a.annotation) for a in every if a.annotation is not None}
            if node.returns is not None:
                out.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            out.add(id(node.annotation))
    return out


def references() -> Counter:
    """References to ``(module, name)`` in the package's modules: a load of
    a name its module defines at top level or imports from a sibling, or an
    attribute ``module.name`` of an imported sibling module.  A top-level
    definition's references to itself and annotations do not count."""
    count: Counter = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {
            node.name: (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        skipped = annotation_nodes(tree)
        for top in tree.body:
            own = names.get(getattr(top, "name", None))
            stack = [top]
            while stack:
                node = stack.pop()
                if id(node) in skipped:
                    continue
                key = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = names.get(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if node.value.id in modules:
                        key = (modules[node.value.id], node.attr)
                if key is not None and key != own:
                    count[key] += 1
                stack.extend(ast.iter_child_nodes(node))
    return count


def test_every_export_is_used_by_the_package():
    used = references()
    unused = {name for module, name in exports() if not used[module, name]}
    assert unused == ALLOWED_UNUSED


def test_every_top_level_definition_is_referenced():
    used = references()
    unreferenced = {
        (path.stem, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not used[path.stem, node.name]
    }
    assert unreferenced == ALLOWED_UNREFERENCED


def test_config_imports_only_tasks_at_module_level():
    # ``tasks`` reaches ``config`` only from inside ``TaskSpec``, so config
    # stays a leaf that any module may import.
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    siblings = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            siblings |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("rlvrlab")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("rlvrlab") for a in node.names)
    assert siblings == {"tasks"}


def modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def attribute_loads(node: ast.AST, receiver: str | None = None) -> Counter:
    """Attribute names loaded anywhere under ``node``, from any object or
    only from the variable ``receiver``."""
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.ctx, ast.Load)
        and (receiver is None or isinstance(n.value, ast.Name) and n.value.id == receiver)
    )


def loads_outside(module: str, scope: str, receiver: str | None = None) -> Counter:
    """Attribute loads in every module of the package, outside the top-level
    class or function ``scope`` of ``module``."""
    count: Counter = Counter()
    for stem, tree in modules().items():
        for top in tree.body:
            if not (stem == module and getattr(top, "name", None) == scope):
                count += attribute_loads(top, receiver)
    return count


def package_dataclasses() -> list[type]:
    """Every dataclass a module of the package defines, by name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"rlvrlab.{path.stem}")
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)  # not a module-level instance of one
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda c: c.__name__)


# Fields no module reads by name, and why each stays.
UNREAD_FIELDS = {
    # Acceptance criterion 2 checks the degenerate-group mask.
    "AdvantageSet": {"degenerate"},
    # ``to_dict`` serializes them, and ``report`` reads them through
    # ``dataclasses.fields``.
    "MetricsRecord": {
        "step",
        "mean_reward",
        "dropped_group_fraction",
        "mean_repetition",
        "objective",
        "grad_norm",
    },
    # ``to_dict`` carries them into ``curate``'s output.
    "ProblemRecord": {"response", "response_len"},
}


def test_verifier_records_stay_dataclasses():
    # The verifier builds its records without the generated ``__init__``;
    # they stay dataclasses, so the field check below still covers them.
    assert {"ParsedAnswer", "Verdict"} <= {c.__name__ for c in package_dataclasses()}


@pytest.mark.parametrize("cls", package_dataclasses(), ids=lambda c: c.__name__)
def test_every_config_field_is_read(cls):
    # Read by name, outside the class or in a method of it that is itself
    # called from outside; the class's own checks do not count.
    module = cls.__module__.rsplit(".", 1)[1]
    outside = loads_outside(module, cls.__name__)
    (body,) = (
        top.body
        for top in modules()[module].body
        if isinstance(top, ast.ClassDef) and top.name == cls.__name__
    )
    read = set(outside)
    for item in body:
        if isinstance(item, ast.FunctionDef) and outside[item.name]:
            read |= set(attribute_loads(item))
    unread = {f.name for f in dataclasses.fields(cls)} - read
    assert unread == UNREAD_FIELDS.get(cls.__name__, set())


def option_dests() -> set[str]:
    """The ``dest`` of every option of every subcommand of ``build_parser``."""
    (commands,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        action.dest
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }


def test_every_option_is_read():
    # As ``args.<dest>`` anywhere in the package outside ``build_parser``.
    read = loads_outside("cli", "build_parser", receiver="args")
    assert option_dests() - set(read) == set()


# ``re`` functions that take a pattern and compile it, or look it up in
# ``re``'s own cache, on every call.
RE_CALLS = {"compile", "sub", "search", "match", "fullmatch", "split", "findall"}


def literal_pattern_calls(tree: ast.AST) -> set[int]:
    """Lines where a function calls one of ``RE_CALLS`` on ``re`` with a
    literal pattern."""
    return {
        call.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for call in ast.walk(func)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "re"
        and call.func.attr in RE_CALLS
        and call.args
        and isinstance(call.args[0], (ast.Constant, ast.JoinedStr))
    }


def test_patterns_are_compiled_at_module_level():
    # A pattern is compiled once, into a module constant, not looked up again
    # by every call of the function that uses it.
    sample = "P = re.compile('a')\ndef f(s):\n    return re.sub(r'\\s+', '', s)\n"
    assert literal_pattern_calls(ast.parse(sample)) == {3}
    found = {
        (stem, line)
        for stem, tree in modules().items()
        for line in literal_pattern_calls(tree)
    }
    assert found == set()
