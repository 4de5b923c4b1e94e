"""The package's public surface is used by the package itself.

Every name ``rlvrlab/__init__.py`` exports must be referenced by the
package's own modules outside its own definition and outside type
annotations: a name only tests reach is surface no run exercises.
"""

import ast
from collections import Counter
from pathlib import Path

import rlvrlab

SRC = Path(rlvrlab.__file__).parent

# Exported for acceptance criterion 1, which checks the gradient of the
# sequence-mean objective against a frozen reference; no run trains with it.
ALLOWED_UNUSED = {"sequence_mean_objective", "RefModel"}


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
