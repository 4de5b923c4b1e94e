"""Cascade math-answer equivalence checking and the {0,1} reward it backs.

Four stages, strictest first:

 1. normalized string equality,
 2. exact rational/structural equality of the parsed answers,
 3. numeric comparison of float views with tolerance, after reconciling
    degree and unit modifiers,
 4. short opaque-string fallback.

The first stage that can decide wins.  ``not_equivalent`` is only ever
emitted when both sides parsed numerically and every reconciliation failed;
everything else that cannot be decided is ``unverifiable``.

``normalize`` and ``parse_math`` cache at most ``CACHE_SIZE`` results each,
so a gold shared by many responses is read once; beyond that, a call is
fast because it does little work, not because more is remembered.  Every
pattern is compiled once, here, and each costly step runs only where it
can change the result.  A bare unsigned literal (``74``, ``0.977``, each
element of ``(60,69,84)``) is read straight into its record, skipping the
modifiers, the tokenizer and the parser, which would give it the same
value.  Records are built with one ``__dict__`` update in place of the
frozen dataclass's generated ``__init__``; they stay frozen, so the cached
ones can be shared.  No memo or option goes with either path.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"
UNVERIFIABLE = "unverifiable"

REL_TOL = 1e-4
ABS_TOL = 1e-9
OPAQUE_MAX_LEN = 20

# Parser caps.  Past any of them an answer degrades to opaque, which keeps
# every call fast and inside the interpreter's recursion limit.
MAX_NESTING = 64  # brackets, roots, fractions, exponents and unary signs
MAX_LITERAL_LEN = 1000  # characters in one number literal
MAX_EXPONENT = 1000  # |exponent| of a number literal such as 1e-5
MAX_EXACT_POWER = 4096  # largest exact integer power or root index
MAX_EXACT_BITS = 1 << 16  # bits of an exact power's numerator or denominator

# Recognized trailing unit words, longest first so "min" beats "m".
_UNITS = ("min", "cm", "mm", "km", "kg", "m", "g", "s", "h")
_UNIT_RE = re.compile(r"(?<![a-zA-Z])(%s)\Z" % "|".join(_UNITS), re.IGNORECASE)
_DEGREE_RE = re.compile(r"(?:(?<![a-zA-Z])degrees?|\^\{\\circ\}|\^\\circ|°)\Z")
_CASEFOLD_WORDS = set(_UNITS) | {"degrees", "degree"}
# The characters a match of each pattern can end in: the last letters of
# its words, for units in either case and the long s, which
# ``re.IGNORECASE`` folds to "s".  A search tries every offset of the
# string, so one ending in anything else skips it.
_DEGREE_ENDS = frozenset("es}c°")
_UNIT_ENDS = frozenset({u[-1] for u in _UNITS} | {u[-1].upper() for u in _UNITS} | {"ſ"})


@dataclass(frozen=True)
class Verdict:
    outcome: str  # equivalent | not_equivalent | unverifiable
    stage: Optional[int]  # deciding stage, None iff unverifiable

    def __post_init__(self) -> None:
        if (self.stage is None) != (self.outcome == UNVERIFIABLE):
            raise ValueError("stage must be present iff the outcome is decided")


@dataclass(frozen=True)
class ParsedAnswer:
    """Outcome of parsing one answer string.

    A scalar is kind "number": ``exact`` carries its value as a Fraction
    whenever the expression evaluates exactly, and ``approx`` is the float
    view; a percent is already divided by 100.  Containers keep their
    elements and no scalar value.  Unparseable input degrades to kind
    "opaque" rather than raising.
    """

    kind: str  # number | tuple | set | opaque
    exact: Optional[Fraction] = None
    approx: Optional[float] = None
    elements: tuple["ParsedAnswer", ...] = ()
    degree: bool = False
    unit: Optional[str] = None

    def __repr__(self) -> str:
        # The dataclass repr, except that a Fraction past Python's limit on
        # int-to-string conversion (4,300 digits by default), which an exact
        # power may reach, is shown by the bit lengths of its terms.
        try:
            exact = repr(self.exact)
        except ValueError:
            num, den = self.exact.numerator, self.exact.denominator
            sign = "-" if num < 0 else ""
            exact = (
                f"Fraction({sign}<{num.bit_length()}-bit int>, "
                f"<{den.bit_length()}-bit int>)"
            )
        return (
            f"ParsedAnswer(kind={self.kind!r}, exact={exact}, approx={self.approx!r}, "
            f"elements={self.elements!r}, degree={self.degree!r}, unit={self.unit!r})"
        )

    @property
    def is_opaque(self) -> bool:
        return self.kind == "opaque"

    @property
    def is_container(self) -> bool:
        return self.kind in ("tuple", "set")


def _answer(kind, exact, approx, elements, degree, unit) -> ParsedAnswer:
    """A ``ParsedAnswer`` built with one update of its ``__dict__``, not by
    the dataclass's generated ``__init__``, which sets each of the six
    fields through its own ``object.__setattr__`` call.  The record is as
    frozen as one built that way: the class refuses every assignment and
    deletion, and only this update writes its ``__dict__``."""
    record = object.__new__(ParsedAnswer)
    record.__dict__.update(
        kind=kind, exact=exact, approx=approx, elements=elements, degree=degree, unit=unit
    )
    return record


# Results shared by every call that returns them; all are frozen.
_OPAQUE = ParsedAnswer(kind="opaque")
_EQUIVALENT_AT = {stage: Verdict(EQUIVALENT, stage) for stage in (1, 2, 3, 4)}
_NOT_EQUIVALENT = Verdict(NOT_EQUIVALENT, 3)
_UNVERIFIABLE = Verdict(UNVERIFIABLE, None)


# A comma between a digit and a 3-digit group that ends the run.
_THOUSANDS_RE = re.compile(r"(?<=\d),(?=\d{3}(?!\d))")


def _drop_thousands_separators(s: str) -> str:
    """Drop thousands separators outside brackets ("1,000" -> "1000").

    Inside a bracket every comma separates elements, so "{468,289,122}"
    keeps its three elements and "(1,2)" its two.  A separator the pattern
    finds in a piece between brackets it also finds in the whole string
    (a piece ends at a bracket, never at a digit), so a string without a
    match is returned as it is.
    """
    if "," not in s or not _THOUSANDS_RE.search(s):
        return s
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(s):
        if ch in "([{":
            if depth == 0:
                parts.append(_THOUSANDS_RE.sub("", s[start:i]))
                start = i
            depth += 1
        elif ch in ")]}" and depth > 0:
            depth -= 1
            if depth == 0:
                parts.append(s[start : i + 1])
                start = i + 1
    tail = s[start:]
    parts.append(tail if depth else _THOUSANDS_RE.sub("", tail))
    return "".join(parts)


# Entries of the caches on normalize and parse_math.  A training step
# verifies many distinct responses against the same few gold answers, so
# each gold is normalized and parsed once, not once per response; the bound
# keeps the memory of a long verify batch flat.
CACHE_SIZE = 256

_DELIMITERS = (("$", "$"), ("\\(", "\\)"), ("\\[", "\\]"))
_TEXT_RE = re.compile(r"\\text\s*\{([^{}]*)\}")
_TRAILING_WORD_RE = re.compile(r"[a-zA-Z]+$")
_ASCII_LETTERS = frozenset(string.ascii_letters)


@functools.lru_cache(maxsize=CACHE_SIZE)
def normalize(raw: str) -> str:
    """Canonical form used for string comparison and as parser input.
    Pure, so its results are cached."""
    s = raw.strip()
    while True:  # outer math delimiters, possibly stacked
        for left, right in _DELIMITERS:
            if s.startswith(left) and s.endswith(right) and len(s) >= len(left) + len(right):
                s = s[len(left) : -len(right)].strip()
                break
        else:
            break
    s = s.replace("\\left", "").replace("\\right", "")
    if "\\text" in s:
        for _ in range(4):  # unwrap \text{...}, tolerating light nesting
            new = _TEXT_RE.sub(r"\1", s)
            if new == s:
                break
            s = new
    s = "".join(s.split())  # drop whitespace: str.isspace is re's \s
    s = _drop_thousands_separators(s)
    s = s.rstrip(".")
    # Case-fold a trailing unit-like word so "5 M" and "5m" agree.
    if s[-1:] in _ASCII_LETTERS:
        m = _TRAILING_WORD_RE.search(s)
        if m[0].lower() in _CASEFOLD_WORDS:
            s = s[: m.start()] + m[0].lower()
    return s


class _ParseError(Exception):
    pass


# A parsed value: a Fraction while every step of it is exact, a float once
# any step is not (a constant, an irrational root, a fractional power).
_Value = Union[Fraction, float]

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_ZERO = Fraction(0)
_PERCENT = Fraction(1, 100)


def _float_view(f: Fraction) -> float:
    """``float(f)``, the same true division without its ``int()`` calls.  A
    value past the float range makes the answer opaque."""
    try:
        return f.numerator / f.denominator
    except OverflowError as exc:
        raise _ParseError("value overflows the float view") from exc


def _exact(f: Fraction) -> Fraction:
    """``f``, checked to have a float view: an exact value past the float
    range makes the answer opaque, even where a later step would bring it
    back in range (``10^{400}/10^{399}``)."""
    _float_view(f)
    return f


def _num_op(a: _Value, b: _Value, op: str) -> _Value:
    """``a op b``: exact for two Fractions; a float for a Fraction and a
    float, computed on the Fraction's float view."""
    try:
        value = _OPS[op](a, b)
    except ZeroDivisionError as exc:
        raise _ParseError("division by zero") from exc
    return _exact(value) if isinstance(value, Fraction) else value


def _num_pow(base: _Value, exp: _Value) -> _Value:
    if (
        isinstance(base, Fraction)
        and isinstance(exp, Fraction)
        and exp.denominator == 1
        and abs(exp.numerator) <= MAX_EXACT_POWER
        and abs(exp.numerator)
        * max(base.numerator.bit_length(), base.denominator.bit_length())
        <= MAX_EXACT_BITS
    ):
        try:
            return _exact(base**exp.numerator)
        except ZeroDivisionError as exc:
            raise _ParseError("zero to a negative power") from exc
    try:
        return math.pow(base, exp)
    except (OverflowError, ValueError) as exc:
        raise _ParseError("invalid power") from exc


def _exact_root(f: Fraction, n: int) -> Optional[Fraction]:
    if f < 0:
        return None
    try:
        num = round(f.numerator ** (1 / n))
        den = round(f.denominator ** (1 / n))
    except OverflowError:
        return None
    for p in (num - 1, num, num + 1):
        for q in (den - 1, den, den + 1):
            if p >= 0 and q >= 1 and p**n == f.numerator and q**n == f.denominator:
                return Fraction(p, q)
    return None


def _num_root(x: _Value, n: int) -> _Value:
    # The sign test reads the float view, so a negative value too small for
    # it (-1e-400) takes the float path and its root is 0.0.
    if float(x) < 0:
        raise _ParseError("root of a negative value")
    if isinstance(x, Fraction) and n <= MAX_EXACT_POWER:
        r = _exact_root(x, n)
        if r is not None:
            return r  # between x and 1, so it has a float view
    return float(x) ** (1.0 / n)


_TOKEN_RE = re.compile(
    r"""
      \d+\.\d*(?:[eE][+-]?\d+)?     # 3.14, 2., 1.5e-3
    | \.\d+(?:[eE][+-]?\d+)?        # .5
    | \d+(?:[eE][+-]?\d+)?          # 42, 1e-4
    | \\frac | \\sqrt | \\pi | \\cdot | \\times
    | [a-zA-Z]+
    | [()\[\]{}+\-*/^,]
    | π | ·
    """,
    re.VERBOSE,
)


def _tokenize(s: str) -> list[str]:
    # ``findall`` skips what no token matches, so the tokens cover ``s``
    # exactly when they join back into it.
    tokens = _TOKEN_RE.findall(s)
    if "".join(tokens) != s:
        raise _ParseError("unexpected character")
    return tokens


_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE]([+-]?\d+))?$")


def _bare_literal(s: str) -> Optional[Fraction]:
    """The value of a bare unsigned literal: decimal digits with at most one
    ``.`` (``42``, ``3.14``, ``.5``, ``2.``) and no exponent.  ``None`` for
    any other string, and a parse error past ``MAX_LITERAL_LEN`` characters.
    ``int()`` skips Fraction's string parser and gives the same value."""
    whole, _, frac = s.partition(".")
    digits = whole + frac
    if not digits.isdecimal():
        return None
    if len(s) > MAX_LITERAL_LEN:
        raise _ParseError("number literal too long")
    return Fraction(int(digits), 10 ** len(frac)) if frac else Fraction(int(digits))


class _Parser:
    """Recursive-descent evaluator over the token list."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.end = len(tokens)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < self.end else None

    def next(self) -> str:
        if self.pos == self.end:
            raise _ParseError("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise _ParseError(f"expected {tok!r}, got {got!r}")

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            value = _num_op(value, self.parse_term(), op)
        return value

    def parse_term(self) -> _Value:
        value = self.parse_power()
        while True:
            tok = self.peek()
            if tok in ("*", "/", "\\cdot", "\\times", "·"):
                op = self.next()
                value = _num_op(value, self.parse_power(), "/" if op == "/" else "*")
            elif tok is not None and (
                _NUMBER_RE.match(tok)
                or tok in ("\\pi", "π", "\\frac", "\\sqrt", "(", "e")
            ):
                # implicit multiplication: 2\pi, 3(4), 2e
                value = _num_op(value, self.parse_power(), "*")
            else:
                return value

    def parse_power(self) -> _Value:
        # Every level of nesting passes through here.
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _ParseError("nesting too deep")
        value = self.parse_atom()
        if self.peek() == "^":
            self.next()
            if self.peek() == "{":
                self.next()
                exp = self.parse_expr()
                self.expect("}")
            else:
                exp = self.parse_power()  # right-associative
            value = _num_pow(value, exp)
        self.depth -= 1
        return value

    def parse_braced(self) -> _Value:
        self.expect("{")
        value = self.parse_expr()
        self.expect("}")
        return value

    def parse_atom(self) -> _Value:
        tok = self.next()
        if tok == "-":
            return _num_op(_ZERO, self.parse_power(), "-")
        if tok == "+":
            return self.parse_power()
        literal = _bare_literal(tok)
        if literal is not None:
            return _exact(literal)
        number = _NUMBER_RE.match(tok)
        if number:  # with an exponent: 1e-4, 2.5E3
            if len(tok) > MAX_LITERAL_LEN:
                raise _ParseError("number literal too long")
            if abs(int(number[1])) > MAX_EXPONENT:
                raise _ParseError("exponent too large")
            return _exact(Fraction(tok.replace("E", "e")))
        if tok in ("\\pi", "π", "pi"):
            return math.pi
        if tok == "e":
            return math.e
        if tok == "\\frac":
            num = self.parse_braced()
            den = self.parse_braced()
            return _num_op(num, den, "/")
        if tok == "\\sqrt":
            n = 2
            if self.peek() == "[":
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                if not (isinstance(idx, Fraction) and idx.denominator == 1 and idx > 0):
                    raise _ParseError("root index must be a positive integer")
                n = int(idx)
            return _num_root(self.parse_braced(), n)
        if tok == "(":
            value = self.parse_expr()
            self.expect(")")
            return value
        raise _ParseError(f"unexpected token {tok!r}")


def _strip_modifiers(s: str) -> tuple[str, bool, bool, Optional[str]]:
    percent = degree = False
    unit: Optional[str] = None
    if s.endswith("\\%"):
        s, percent = s[:-2], True
    elif s.endswith("%"):
        s, percent = s[:-1], True
    m = _DEGREE_RE.search(s) if s[-1:] in _DEGREE_ENDS else None
    if m:
        s, degree = s[: m.start()], True
    if not degree:
        m = _UNIT_RE.search(s) if s[-1:] in _UNIT_ENDS else None
        # A unit needs something before it; a bare "m" stays opaque.
        if m and m.start() > 0:
            unit = m.group(1).lower()
            s = s[: m.start()]
    if percent and degree:
        raise _ParseError("percent and degree are mutually exclusive")
    return s, percent, degree, unit


def _parse_scalar(s: str) -> ParsedAnswer:
    """One scalar.  A bare literal is read straight into its record: it has
    no modifier to strip, and the parser would read it as one token to the
    same value.  Anything else goes through ``_parse_expression``."""
    exact = _bare_literal(s)
    if exact is not None:
        return _answer("number", exact, _float_view(exact), (), False, None)
    return _parse_expression(s)


def _parse_expression(s: str) -> ParsedAnswer:
    """One scalar through the modifiers, the tokenizer and the parser."""
    core, percent, degree, unit = _strip_modifiers(s)
    if not core:
        raise _ParseError("empty value")
    parser = _Parser(_tokenize(core))
    value = parser.parse_expr()
    if parser.peek() is not None:
        raise _ParseError(f"trailing input {parser.peek()!r}")
    if percent:
        value = _num_op(value, _PERCENT, "*")
    if isinstance(value, Fraction):
        return _answer("number", value, _float_view(value), (), degree, unit)
    if not math.isfinite(value):
        raise _ParseError("non-finite value")
    return _answer("number", None, value, (), degree, unit)


def _split_top_level(s: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


# A character no token, modifier or container of the parser accepts: not a
# Unicode decimal digit (``\d``, as the tokens read them), an ASCII letter,
# one of ``.\()[]{}+-*/^,π·%°``, or one of the four non-ASCII letters that
# match a unit letter under ``re.IGNORECASE`` (İ, ı, ſ and the Kelvin sign).
_FOREIGN_RE = re.compile(
    r"[^\da-zA-Z.\\()\[\]{}+\-*/^,π·%°\u0130\u0131\u017f\u212a]"
)


@functools.lru_cache(maxsize=CACHE_SIZE)
def parse_math(raw: str) -> ParsedAnswer:
    """Parse a normalized answer string; opaque fallback, never an error.
    Pure, and its result immutable, so its results are cached.

    A string holding a character of ``_FOREIGN_RE`` (an ``=``, a space or a
    ``$``, say) cannot parse, so it is opaque at once, before any
    modifier is stripped or any token read."""
    s = raw
    if _FOREIGN_RE.search(s):
        return _OPAQUE
    try:
        if len(s) >= 2 and s[0] in "([{" and s[-1] == {"(": ")", "[": "]", "{": "}"}[s[0]]:
            inner = s[1:-1]
            parts = _split_top_level(inner)
            if s[0] == "{" or len(parts) > 1:
                return _answer(
                    "set" if s[0] == "{" else "tuple",
                    None,
                    None,
                    tuple(map(_parse_scalar, parts)),
                    False,
                    None,
                )
        return _parse_scalar(s)
    except _ParseError:
        return _OPAQUE


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= max(REL_TOL * max(abs(x), abs(y)), ABS_TOL)


def _exact_scalar_equal(a: ParsedAnswer, b: ParsedAnswer) -> bool:
    if a.degree != b.degree or a.unit != b.unit:
        return False
    if a.exact is not None and b.exact is not None:
        return a.exact == b.exact
    if a.exact is None and b.exact is None:
        return a.approx == b.approx
    return False


def _scalar_close(a: ParsedAnswer, b: ParsedAnswer) -> bool:
    if a.unit is not None and b.unit is not None and a.unit != b.unit:
        return False
    x, y = a.approx, b.approx
    if a.degree == b.degree:
        return _close(x, y)
    # One side is in degrees: accept either the as-given reading or the
    # radian coercion of the degree side.
    if a.degree:
        return _close(x, y) or _close(x * math.pi / 180.0, y)
    return _close(x, y) or _close(x, y * math.pi / 180.0)


def _match(a: ParsedAnswer, b: ParsedAnswer, scalar: Callable) -> bool:
    """``scalar(a, b)`` for two scalars; two containers of one kind and size
    match when their elements do pairwise, a tuple's in order and a set's
    sorted by value."""
    if a.is_container or b.is_container:
        if a.kind != b.kind or len(a.elements) != len(b.elements):
            return False
        xs, ys = a.elements, b.elements
        if a.kind != "tuple":
            xs = sorted(xs, key=lambda e: e.approx)
            ys = sorted(ys, key=lambda e: e.approx)
        return all(_match(x, y, scalar) for x, y in zip(xs, ys))
    return scalar(a, b)


def verify(candidate: str, gold: str, start_stage: int = 1) -> Verdict:
    """Run the cascade; ``start_stage`` disables the stricter stages before it."""
    na, nb = normalize(candidate), normalize(gold)
    if start_stage <= 1 and na == nb and na != "":
        return _EQUIVALENT_AT[1]
    pa, pb = parse_math(na), parse_math(nb)
    both_numeric = not pa.is_opaque and not pb.is_opaque
    if start_stage <= 2 and both_numeric and _match(pa, pb, _exact_scalar_equal):
        return _EQUIVALENT_AT[2]
    if start_stage <= 3 and both_numeric:
        if _match(pa, pb, _scalar_close):
            return _EQUIVALENT_AT[3]
        return _NOT_EQUIVALENT
    if (
        start_stage <= 4
        and pa.is_opaque
        and pb.is_opaque
        and len(na) <= OPAQUE_MAX_LEN
        and len(nb) <= OPAQUE_MAX_LEN
        and na == nb
    ):
        return _EQUIVALENT_AT[4]
    return _UNVERIFIABLE


def reward(response_answer: str, gold: str) -> float:
    """Binary verifiable reward: 1 when the answer verifies as equivalent
    to the gold, else 0.  The trainer scores an over-length rollout 0
    without calling it."""
    return 1.0 if verify(response_answer, gold).outcome == EQUIVALENT else 0.0
