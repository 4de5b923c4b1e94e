import dataclasses
import json
import random
import re
import sys
import time
from fractions import Fraction
from itertools import compress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab import verifier
from rlvrlab.verifier import (
    EQUIVALENT,
    MAX_EXACT_POWER,
    MAX_EXPONENT,
    MAX_LITERAL_LEN,
    MAX_NESTING,
    NOT_EQUIVALENT,
    UNVERIFIABLE,
    ParsedAnswer,
    Verdict,
    normalize,
    parse_math,
    reward,
    verify,
)
from oracles import extract_final_answer
from verifier_corpus import (
    EQUIVALENT_PAIRS,
    NOT_EQUIVALENT_PAIRS,
    UNVERIFIABLE_PAIRS,
)

ALL_PAIRS = EQUIVALENT_PAIRS + NOT_EQUIVALENT_PAIRS + UNVERIFIABLE_PAIRS


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  42. ", "42"),
            ("$\\left( 1,2 \\right)$", "(1,2)"),
            ("1,000", "1000"),
            ("\\(x\\)", "x"),
            ("\\[ 7 \\]", "7"),
            ("\\text{meters}", "meters"),
            ("$  \\frac{1}{2} $", "\\frac{1}{2}"),
            ("3.5.", "3.5"),
            ("1,234,567", "1234567"),
            ("(1,2)", "(1,2)"),  # tuple commas survive
            ("{468,289,122}", "{468,289,122}"),  # so do set commas
            ("(1,000,2)", "(1,000,2)"),
            ("5 M", "5m"),
            ("90 Degrees", "90degrees"),
        ],
    )
    def test_rules(self, raw, expected):
        assert normalize(raw) == expected


class TestParseMath:
    def test_fraction(self):
        p = parse_math("\\frac{1}{2}")
        assert p.kind == "number"
        assert p.exact == Fraction(1, 2)

    def test_percent_scales_and_flags(self):
        p = parse_math("50%")
        assert p.kind == "number"
        assert p.exact == Fraction(1, 2)
        assert p.approx == pytest.approx(0.5)

    def test_opaque_fallback(self):
        p = parse_math("hello world")
        assert p.kind == "opaque"
        assert p.exact is None

    def test_integer_and_decimal_kinds(self):
        assert parse_math("42").kind == "number"
        assert parse_math("42").exact == 42
        assert parse_math("3.25").kind == "number"
        assert parse_math("3.25").exact == Fraction(13, 4)

    def test_scientific_notation(self):
        assert parse_math("1e-4").exact == Fraction(1, 10000)
        assert parse_math("2.5e2").exact == Fraction(250)

    def test_sqrt_exact_and_inexact(self):
        assert parse_math("\\sqrt{9}").exact == Fraction(3)
        root2 = parse_math("\\sqrt{2}")
        assert root2.exact is None
        assert root2.approx == pytest.approx(2**0.5)
        assert parse_math("\\sqrt[4]{16}").exact == Fraction(2)

    def test_constants_and_precedence(self):
        assert parse_math("\\pi").approx == pytest.approx(3.14159265358979)
        assert parse_math("1+2*3").exact == Fraction(7)
        assert parse_math("2^3^2").exact == Fraction(512)  # right-assoc
        assert parse_math("(1+2)*3").exact == Fraction(9)
        assert parse_math("2\\pi").approx == pytest.approx(6.28318530717959)

    def test_units_and_degrees(self):
        p = parse_math("5km")
        assert p.unit == "km" and p.exact == Fraction(5)
        q = parse_math("45^\\circ")
        assert q.degree and q.exact == Fraction(45)
        assert parse_math("90degrees").degree
        assert parse_math("5min").unit == "min"

    def test_tuple_and_set(self):
        t = parse_math("(1,2)")
        assert t.kind == "tuple" and len(t.elements) == 2
        s = parse_math("{1,2,3}")
        assert s.kind == "set" and len(s.elements) == 3

    def test_division_by_zero_degrades_to_opaque(self):
        assert parse_math("1/0").kind == "opaque"
        assert parse_math("\\frac{3}{0}").kind == "opaque"

    def test_bare_unit_is_opaque(self):
        assert parse_math("m").kind == "opaque"

    @pytest.mark.parametrize(
        "hostile",
        [
            "10^400",
            "\\sqrt{10^399}",
            "2^4096",
            "(10^400, 1)",
            "0^-1",
            "",
            "10^{400}/10^{399}",  # exact intermediate without a float view
            "1e308*\\pi",  # float product overflows
            "\\pi/0",
            "1/(2-2)",
        ],
    )
    def test_hostile_inputs_degrade_to_opaque(self, hostile):
        assert parse_math(hostile).kind == "opaque"
        assert verify(hostile, "1").outcome == UNVERIFIABLE

    @pytest.mark.parametrize(
        "raw,exact,approx",
        [
            # The sign test reads the float view, -0.0, so the root is 0.0.
            ("\\sqrt{-1e-400}", None, 0.0),
            ("\\frac{1}{3}+0.5", Fraction(5, 6), 5 / 6),
            ("2\\pi-2\\pi", None, 0.0),
            ("1e-999", Fraction(1, 10**999), 0.0),  # exact, its float view 0.0
        ],
    )
    def test_edge_values_parse_as_numbers(self, raw, exact, approx):
        p = parse_math(raw)
        assert p.kind == "number"
        assert p.exact == exact
        assert p.approx == approx

    def test_negated_root_and_nested_parens(self):
        assert verify("-\\sqrt{4}", "-2").outcome == EQUIVALENT
        assert verify("((1))", "1").outcome == EQUIVALENT
        assert verify("(" * 50 + "1" + ")" * 50, "1").outcome == EQUIVALENT
        assert verify("-" * 50 + "1", "1").outcome == EQUIVALENT

    @pytest.mark.parametrize(
        "pred,gold",
        [
            ("\\sqrt{" * 200 + "2" + "}" * 200, "2"),
            ("(" * 3000 + "1" + ")" * 3000, "1"),
            ("-" * 3000 + "1", "1"),
            ("1" + "0" * 4999, "1"),
            ("1e10000000", "1"),
        ],
        ids=["sqrt_200", "parens_3000", "minus_3000", "digits_5000", "exponent_1e7"],
    )
    def test_oversized_inputs_degrade_to_opaque(self, pred, gold):
        t0 = time.perf_counter()
        assert parse_math(normalize(pred)).kind == "opaque"
        assert verify(pred, gold).outcome == UNVERIFIABLE
        assert verify(gold, pred).outcome == UNVERIFIABLE
        assert time.perf_counter() - t0 < 1.0

    def test_huge_powers_and_roots_are_approximate(self):
        t0 = time.perf_counter()
        assert verify("\\sqrt[10^9]{4}", "1") == Verdict(EQUIVALENT, 3)
        assert verify("(.9^4096)^4096", "0") == Verdict(EQUIVALENT, 3)
        assert verify("(1+10^-300)^4096", "1") == Verdict(EQUIVALENT, 3)
        assert parse_math("(.9)^4096").exact == Fraction(9, 10) ** 4096
        assert time.perf_counter() - t0 < 1.0


class TestVerifyExamples:
    def test_identity_is_stage_one(self):
        assert verify("42", "42") == Verdict(EQUIVALENT, 1)

    def test_rational_equality_is_stage_two(self):
        assert verify("0.5", "\\frac{1}{2}") == Verdict(EQUIVALENT, 2)

    def test_numeric_tolerance_is_stage_three(self):
        assert verify("\\pi/2", "1.5708") == Verdict(EQUIVALENT, 3)

    def test_distinct_integers(self):
        assert verify("3", "4") == Verdict(NOT_EQUIVALENT, 3)

    def test_set_of_three_digit_elements(self):
        # Commas inside a set separate elements, not thousands.
        assert verify("{468,289,122}", "{122,468,289}") == Verdict(EQUIVALENT, 2)
        assert verify("{468,289,122}", "{468289122}").outcome == NOT_EQUIVALENT
        assert verify("1,000", "1000") == Verdict(EQUIVALENT, 1)

    def test_verdict_stage_consistency_enforced(self):
        with pytest.raises(ValueError):
            Verdict(EQUIVALENT, None)
        with pytest.raises(ValueError):
            Verdict(UNVERIFIABLE, 2)


class TestCorpus:
    @pytest.mark.parametrize("cand,gold", EQUIVALENT_PAIRS)
    def test_equivalent(self, cand, gold):
        assert verify(cand, gold).outcome == EQUIVALENT

    @pytest.mark.parametrize("cand,gold", NOT_EQUIVALENT_PAIRS)
    def test_not_equivalent(self, cand, gold):
        assert verify(cand, gold).outcome == NOT_EQUIVALENT

    @pytest.mark.parametrize("cand,gold", UNVERIFIABLE_PAIRS)
    def test_unverifiable(self, cand, gold):
        verdict = verify(cand, gold)
        assert verdict.outcome == UNVERIFIABLE
        assert verdict.stage is None

    def test_corpus_shape(self):
        assert len(EQUIVALENT_PAIRS) == 20
        assert len(NOT_EQUIVALENT_PAIRS) == 20
        assert len(UNVERIFIABLE_PAIRS) == 20

    @pytest.mark.parametrize(
        "text", sorted({s for pair in ALL_PAIRS for s in pair})
    )
    def test_reflexivity(self, text):
        assert verify(text, text).outcome == EQUIVALENT

    @pytest.mark.parametrize("cand,gold", ALL_PAIRS)
    def test_symmetry(self, cand, gold):
        assert verify(cand, gold).outcome == verify(gold, cand).outcome

    @pytest.mark.parametrize("cand,gold", EQUIVALENT_PAIRS)
    def test_stage_monotonicity(self, cand, gold):
        verdict = verify(cand, gold)
        later = verify(cand, gold, start_stage=verdict.stage)
        assert later.outcome == EQUIVALENT
        assert later.stage == verdict.stage


# Verdicts pinned by ``make_verifier_verdicts.py``: the corpus in both orders
# and 2,000 seeded pairs over digits, operators, brackets, ``\frac``,
# ``\sqrt``, ``\text{``, units, degrees and the letters that fold to units.
_PINNED = json.loads(
    (Path(__file__).with_name("verifier_verdicts.json")).read_text(encoding="utf-8")
)


class TestPinnedVerdicts:
    def test_table_shape(self):
        assert len(_PINNED) == 2 * len(ALL_PAIRS) + 2000
        assert [tuple(row[:2]) for row in _PINNED[: len(ALL_PAIRS)]] == ALL_PAIRS

    def test_every_verdict_is_reproduced(self):
        normalize.cache_clear()
        parse_math.cache_clear()
        differ = [
            row for row in _PINNED if verify(row[0], row[1]) != Verdict(row[2], row[3])
        ]
        assert differ == []


# Every token the answer parser knows, plus unit and modifier suffixes.
_ANSWER_PIECES = (
    list("0123456789.eE+-*/^,()[]{}% ")
    + ["\\frac", "\\sqrt", "\\pi", "\\cdot", "\\times", "π", "·", "pi", "x", "m", "°"]
)
_ANSWERS = st.lists(st.sampled_from(_ANSWER_PIECES), max_size=40).map("".join)


class TestTotality:
    @given(_ANSWERS, _ANSWERS)
    @settings(max_examples=500, deadline=None)
    def test_never_raises_and_is_symmetric(self, a, b):
        assert verify(a, b).outcome == verify(b, a).outcome
        assert verify(a, a).outcome == EQUIVALENT

    @given(
        st.one_of(
            st.sampled_from(ALL_PAIRS),
            st.tuples(_ANSWERS, _ANSWERS),
            _ANSWERS.map(lambda a: (a, a)),
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=500, deadline=None)
    def test_start_stage_is_monotone(self, pair, start):
        # A later start decides at a stage no earlier than itself, and
        # starting at or before the stage that decides from stage 1
        # changes nothing.
        verdict = verify(*pair, start_stage=start)
        assert verdict.stage is None or verdict.stage >= start
        first = verify(*pair)
        if first.stage is not None and start <= first.stage:
            assert verdict == first


def _cold_and_warm(candidate, gold):
    """``verify`` with both caches cleared, then again with them warm."""
    normalize.cache_clear()
    parse_math.cache_clear()
    cold = verify(candidate, gold)
    assert normalize.cache_info().currsize
    return cold, verify(candidate, gold)


class TestCaches:
    def test_caches_are_bounded(self):
        assert 0 < normalize.cache_info().maxsize < 10_000
        assert 0 < parse_math.cache_info().maxsize < 10_000

    @pytest.mark.parametrize("cand,gold", ALL_PAIRS)
    def test_corpus_verdict_does_not_depend_on_the_caches(self, cand, gold):
        cold, warm = _cold_and_warm(cand, gold)
        assert cold == warm

    @given(_ANSWERS, _ANSWERS)
    @settings(max_examples=500, deadline=None)
    def test_verdict_does_not_depend_on_the_caches(self, a, b):
        cold, warm = _cold_and_warm(a, b)
        assert cold == warm
        # A cache filled by other calls changes nothing either.
        verify(b, a)
        assert verify(a, b) == cold


def _with_and_without_gate(pairs):
    """The parse of each side's normal form and the verdict of every pair,
    from cold caches, with the parser's alphabet gate and with a gate that
    never matches."""

    def run():
        normalize.cache_clear()
        parse_math.cache_clear()
        return [
            (parse_math(normalize(a)), parse_math(normalize(b)), verify(a, b))
            for a, b in pairs
        ]

    gated = run()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verifier, "_FOREIGN_RE", re.compile(r"(?!)"))
        ungated = run()
    normalize.cache_clear()
    parse_math.cache_clear()
    return gated, ungated


# The characters at the gate's edge: every Unicode decimal digit, whatever
# matches an ASCII letter ignoring case, the gate's other characters, and a
# few it stops.  The first two are found in one pass each over a string of
# every code point, and listed in code point order.
_ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))
_GATE_EDGE_CHARS = sorted(
    {*filter(str.isdecimal, _ALL_CHARS), *re.findall(r"[a-z]", _ALL_CHARS, re.IGNORECASE)}
) + list(".\\()[]{}+-*/^,π·%°=$ _")
_GATE_TEMPLATES = ["5{c}", "5{c}m", "5m{c}n", "(1,{c})", "\\frac{{1}}{{{c}}}"]


class TestAlphabetGate:
    """``parse_math`` returns opaque at once on a character no part of the
    parser accepts; every parse and verdict is what it would be without."""

    def test_gate_decides_only_what_the_parser_rejects(self):
        assert verifier._FOREIGN_RE.search("1=2")
        assert parse_math("1=2").kind == "opaque"
        assert parse_math("\u0663").exact == 3  # an Arabic-Indic digit
        assert parse_math("5\u212am").unit == "km"  # the Kelvin sign
        assert verify("\u0663", "3") == Verdict(EQUIVALENT, 2)

    def test_edge_characters_in_templates(self):
        assert len(_GATE_EDGE_CHARS) > 600
        pairs = [
            (template.format(c=c), gold)
            for c in _GATE_EDGE_CHARS
            for template in _GATE_TEMPLATES
            for gold in ("5", "5m")
        ]
        gated, ungated = _with_and_without_gate(pairs)
        assert gated == ungated

    def test_corpus(self):
        gated, ungated = _with_and_without_gate(ALL_PAIRS)
        assert gated == ungated

    @given(st.lists(st.tuples(st.text(), st.one_of(st.text(), _ANSWERS)), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, pairs):
        gated, ungated = _with_and_without_gate(pairs)
        assert gated == ungated


# Each suffix pattern, the characters its guard admits, and its words.
_SUFFIXES = {
    "degree": (
        verifier._DEGREE_RE,
        verifier._DEGREE_ENDS,
        ("degrees", "degree", "^{\\circ}", "^\\circ", "°"),
    ),
    "unit": (verifier._UNIT_RE, verifier._UNIT_ENDS, verifier._UNITS),
}


class TestSuffixGuards:
    """``_strip_modifiers`` runs each end-anchored search only on a string
    whose last character its guard admits; no other string can match."""

    @pytest.mark.parametrize("name", sorted(_SUFFIXES))
    def test_every_code_point(self, name):
        pattern, ends, _ = _SUFFIXES[name]
        chars = list(map(chr, [*range(0xD800), *range(0xE000, sys.maxunicode + 1)]))
        matched = set(compress(chars, map(pattern.search, map("5".__add__, chars))))
        assert matched and matched <= ends

    @pytest.mark.parametrize("name", sorted(_SUFFIXES))
    def test_every_word_with_its_last_character_replaced(self, name):
        # Every character that case folding relates to an ASCII letter lies
        # below U+3000; the Kelvin sign, U+212A, is the highest.
        pattern, ends, words = _SUFFIXES[name]
        matched = {
            c
            for word in words
            for c in map(chr, range(0x3000))
            if pattern.search("5" + word[:-1] + c)
        }
        assert {word[-1] for word in words} <= matched <= ends


def _fields(answer):
    """Every field of a parsed answer, its elements' included, with the
    exact value's type and the float view's repr."""
    return (
        answer.kind,
        type(answer.exact),
        answer.exact,
        repr(answer.approx),
        answer.degree,
        answer.unit,
        tuple(map(_fields, answer.elements)),
    )


def _fields_or_none(parse, raw):
    """``parse(raw)``'s fields, or ``None`` if it raises a parse error."""
    try:
        return _fields(parse(raw))
    except verifier._ParseError:
        return None


def _parse_math_both_ways(raw):
    """``parse_math(raw)`` with the bare-literal path and with every scalar,
    container elements included, sent through the tokenizer and parser."""
    parse_math.cache_clear()
    fast = _fields(parse_math(raw))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verifier, "_parse_scalar", verifier._parse_expression)
        parse_math.cache_clear()
        slow = _fields(parse_math(raw))
    parse_math.cache_clear()
    return fast, slow


_DECIMAL_DIGITS = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isdecimal()]
_LITERAL_CHARS = "0123456789.\u0663\uff15"  # with an Arabic-Indic 3 and a fullwidth 5
_SEEDED_LITERALS = [
    "".join(random.Random(seed).choices(_LITERAL_CHARS, k=seed % 13))
    for seed in range(2000)
]
_LITERAL_EDGES = [
    "",
    ".",
    "1.",
    ".5",
    "2.",
    "0",
    "007",
    "00.50",
    "000.",
    ".000",
    "1..2",
    "1.2.3",
    "\u0663",
    "\uff15",
    "\u0663.\uff15",
    "1" * MAX_LITERAL_LEN,
    "1" * (MAX_LITERAL_LEN + 1),
    "1" * (MAX_LITERAL_LEN - 1) + ".",
    "." + "1" * MAX_LITERAL_LEN,
    "0" * MAX_LITERAL_LEN,
    "0" * (MAX_LITERAL_LEN + 1),
    "9" * 400,
    "9" * 400 + ".5",
    "0." + "0" * 400 + "1",
]
_LITERAL_CASES = _SEEDED_LITERALS + _LITERAL_EDGES + [
    form.format(c) for c in _DECIMAL_DIGITS for form in ("{}", "1{}", "{}.5", ".{}")
]


class TestBareLiterals:
    """A bare unsigned literal skips the modifiers, the tokenizer and the
    parser; it must parse exactly as it would through them."""

    def test_scalar_routes_agree(self):
        assert len(_DECIMAL_DIGITS) > 600
        differ = [
            raw
            for raw in _LITERAL_CASES
            if _fields_or_none(verifier._parse_scalar, raw)
            != _fields_or_none(verifier._parse_expression, raw)
        ]
        assert differ == []

    @pytest.mark.parametrize(
        "raw",
        [
            "9" * 400,
            "(1," + "9" * 400 + ")",
            "{" + "9" * 400 + ",1}",
            "{" + "9" * 400 + "}",
            "0" * (MAX_LITERAL_LEN + 1),
            "." + "5" * MAX_LITERAL_LEN,
            "(" + "0" * (MAX_LITERAL_LEN + 1) + ",2)",
        ],
        ids=["huge", "huge_in_tuple", "huge_in_set", "huge_alone_in_set",
             "too_long", "too_long_decimal", "too_long_in_tuple"],
    )
    def test_literals_past_the_caps_are_opaque(self, raw):
        # 400 nines have no float view; the zeros and fives have one, but
        # are longer than a literal may be.
        assert _parse_math_both_ways(raw) == (_fields(verifier._OPAQUE),) * 2

    def test_containers_agree(self):
        cases = [
            form.format(a, b)
            for a, b in zip(_LITERAL_CASES, reversed(_LITERAL_CASES))
            for form in ("({},{})", "{{{},{}}}", "[{},{}]", "({},{}%)")
        ]
        differ = [raw for raw in cases if len(set(_parse_math_both_ways(raw))) != 1]
        assert differ == []

    def test_literals_never_reach_the_tokenizer(self):
        def refuse(s):
            raise AssertionError(f"tokenized {s!r}")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(verifier, "_tokenize", refuse)
            parse_math.cache_clear()
            assert parse_math("3.14").exact == Fraction(157, 50)
            assert parse_math(".5").approx == 0.5
            assert parse_math("0" * MAX_LITERAL_LEN).exact == 0
            assert parse_math("\u0663").exact == 3
            assert [e.exact for e in parse_math("(60,69,84)").elements] == [60, 69, 84]
            assert parse_math("(1," + "9" * 400 + ")").is_opaque
        parse_math.cache_clear()


_FIELD_NAMES = [f.name for f in dataclasses.fields(ParsedAnswer)]


def _records(answer):
    yield answer
    for element in answer.elements:
        yield from _records(element)


class TestFrozenRecords:
    """The records ``parse_math`` and ``verify`` return are cached and
    shared, so none of them may be changed by assignment."""

    # Numbers from both routes, a tuple, a set whose elements took both
    # routes, and opaque answers.
    @pytest.mark.parametrize(
        "raw",
        ["42", "3.14", "\\frac{1}{2}", "5km", "45^\\circ", "50%", "\\pi",
         "(60,69,84)", "{1,\\sqrt{2}}", "hello", ""],
    )
    def test_parsed_answers(self, raw):
        parse_math.cache_clear()
        for record in _records(parse_math(raw)):
            assert type(record) is ParsedAnswer
            assert list(vars(record)) == _FIELD_NAMES
            for name in _FIELD_NAMES + ["extra"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)

    @pytest.mark.parametrize(
        "pred,gold",
        [("7", "7"), ("0.5", "\\frac{1}{2}"), ("\\pi/2", "1.5708"), ("x", "x"),
         ("1", "2"), ("x", "1")],
    )
    def test_verdicts(self, pred, gold):
        verdict = verify(pred, gold)
        for name in ("outcome", "stage", "extra"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(verdict, name, None)


class TestParsedAnswerRepr:
    def test_ordinary_record_keeps_the_dataclass_repr(self):
        assert repr(parse_math("\\frac{1}{2}")) == (
            "ParsedAnswer(kind='number', exact=Fraction(1, 2), approx=0.5, "
            "elements=(), degree=False, unit=None)"
        )

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_value_past_the_digit_limit_shows_bit_lengths(self, sign):
        # 99**4096 / 100**4096: both terms have more digits than Python's
        # default limit of 4,300 for converting an int to a string.
        record = parse_math(sign + "(0.99)^{4096}")
        assert abs(record.exact.numerator) == 99**4096
        text = repr(record)
        assert f"exact=Fraction({sign}<27154-bit int>, <27214-bit int>)" in text
        assert repr((record,)) == f"({text},)"


_SMALL_LITERALS = st.one_of(
    st.integers(0, 12).map(str), st.sampled_from(["0.5", "1.25", "\\pi"])
)
# Literals at and around the parser's caps: digit strings near the longest
# literal, exponents near the largest, and integers near the largest exact
# power or root index.
_LONG_LITERALS = st.integers(MAX_LITERAL_LEN - 3, MAX_LITERAL_LEN + 1).flatmap(
    lambda n: st.sampled_from(["9" * n, "0." + "3" * (n - 2), "1" + "0" * (n - 1)])
)
_EXPONENT_LITERALS = st.integers(MAX_EXPONENT - 1, MAX_EXPONENT + 1).flatmap(
    lambda e: st.sampled_from([f"7e{e}", f"3e-{e}"])
)
_POWER_LITERALS = st.integers(MAX_EXACT_POWER - 1, MAX_EXACT_POWER + 1).map(str)
_CAP_LITERALS = st.one_of(
    _SMALL_LITERALS, _LONG_LITERALS, _EXPONENT_LITERALS, _POWER_LITERALS
)
# A literal near the length or exponent cap under a power or root near the
# exact-power cap: the costliest exact arithmetic the caps admit.
_AT_CAPS = st.builds(
    lambda form, x, n: form.format(x=x, n=n),
    st.sampled_from(
        ["({x})^{{{n}}}", "({x})^{n}", "({x})^{{-{n}}}", "\\sqrt[{n}]{{{x}}}"]
    ),
    st.one_of(_LONG_LITERALS, _EXPONENT_LITERALS),
    _POWER_LITERALS,
)
_LEAVES = st.one_of(_CAP_LITERALS, _AT_CAPS)
# One level of nesting around an inner expression ``x`` and a literal ``n``.
_WRAPPERS = (
    "\\sqrt{{{x}}}",
    "\\sqrt[{n}]{{{x}}}",
    "\\sqrt[{x}]{{{n}}}",
    "({x})^{{{n}}}",
    "{n}^{{{x}}}",
    "({x})^{n}",
    "-{x}",
    "\\frac{{{x}}}{{{n}}}",
    "({x})*{n}",
)


def _wrap(inner):
    return st.builds(
        lambda form, x, n: form.format(x=x, n=n),
        st.sampled_from(_WRAPPERS),
        inner,
        _CAP_LITERALS,
    )


def _nest(core, forms_and_literals):
    for form, n in forms_and_literals:
        core = form.format(x=core, n=n)
    return core


# Random trees of roots and powers, and straight chains nested to around the
# parser's depth cap.
_ROOTS_AND_POWERS = st.one_of(
    st.recursive(_LEAVES, _wrap, max_leaves=12),
    st.builds(
        _nest,
        _LEAVES,
        st.lists(
            st.tuples(st.sampled_from(_WRAPPERS), _CAP_LITERALS),
            min_size=MAX_NESTING - 8,
            max_size=MAX_NESTING + 8,
        ),
    ),
)


class TestVerifierTime:
    @given(_ROOTS_AND_POWERS, st.one_of(_CAP_LITERALS, _ROOTS_AND_POWERS))
    @settings(max_examples=500, deadline=None)
    def test_each_call_is_bounded(self, a, b):
        for pred, gold in ((a, b), (b, a), (a, a)):
            t0 = time.perf_counter()
            verify(pred, gold)
            elapsed = time.perf_counter() - t0
            assert elapsed < 0.5, f"verify took {elapsed:.2f}s on {pred!r}, {gold!r}"


class TestReward:
    def test_verified_equivalence_pays_one(self):
        assert reward("1/2", "0.5") == 1.0

    def test_wrong_answer_pays_zero(self):
        assert reward("7", "8") == 0.0

    def test_unverifiable_pays_zero(self):
        assert reward("no idea", "8") == 0.0


class TestExtractFinalAnswer:
    def test_last_boxed_wins(self):
        text = "first \\boxed{1} then \\boxed{\\frac{2}{3}} done"
        assert extract_final_answer(text) == "\\frac{2}{3}"

    def test_nested_braces(self):
        assert extract_final_answer("\\boxed{\\frac{1}{2}}") == "\\frac{1}{2}"

    def test_final_line_fallback(self):
        assert extract_final_answer("working...\nthe answer:\n42\n") == "42"

    def test_empty_text(self):
        assert extract_final_answer("") == ""
