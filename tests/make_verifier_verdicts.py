"""Write ``verifier_verdicts.json``: the verifier's verdict on the 60-pair
corpus in both orders and on 2,000 seeded pairs built from the pieces the
parser reads.

The table pins the verdicts the verifier gives, so a change made for speed
can be checked to change none of them (``test_verifier.TestPinnedVerdicts``).
Regenerate it only when a verdict is meant to change, and say which.  From
the repository root:

    PYTHONPATH=src python tests/make_verifier_verdicts.py
"""

import json
import random
from pathlib import Path

from rlvrlab.verifier import verify
from verifier_corpus import EQUIVALENT_PAIRS, NOT_EQUIVALENT_PAIRS, UNVERIFIABLE_PAIRS

TABLE = Path(__file__).with_name("verifier_verdicts.json")
SEED = 2507
RANDOM_PAIRS = 1000
NUMERIC_PAIRS = 1000

_UNITS = ["min", "cm", "mm", "km", "kg", "m", "g", "s", "h", "M", "KG", "Min", "S"]
# The non-ASCII letters that match an ASCII unit letter ignoring case: the
# long s, the Kelvin sign and the two Turkish i's.
_FOLDING = ["ſ", "K", "İ", "ı"]
PIECES = (
    list("0123456789+-*/^.,()[]{} ")
    + ["\\frac", "\\sqrt", "\\text{", "\\pi", "\\%", "%", "^\\circ", "^{\\circ}"]
    + ["°", "degrees", "degree", "$", "e", "x", "\\left(", "\\right)"]
    + _UNITS
    + _FOLDING
)
SUFFIXES = (
    ["", "", "", "%", "\\%", "^\\circ", "^{\\circ}", "°", " degrees", "degree"]
    + [" " + u for u in _UNITS]
    + _UNITS
    + ["ſ", "Km", "mİn", "mın", "kſ", " \\text{ m}"]
)


# Mostly digits and operators, so that more random strings parse.
ARITHMETIC = list("0123456789" * 3 + "+-*/^.,()") + ["\\frac{", "\\sqrt{", "}", "%"]


def _random_answer(r: random.Random) -> str:
    pieces = r.choice([PIECES, ARITHMETIC])
    return "".join(r.choice(pieces) for _ in range(r.randint(0, 12)))


def _respelled(r: random.Random, s: str) -> str:
    """``s`` with spaces put in and the case of ASCII letters flipped."""
    out = []
    for ch in s:
        if ch.isascii() and ch.isalpha() and r.random() < 0.3:
            ch = ch.swapcase()
        out.append(ch + " " * (r.random() < 0.2))
    return "".join(out)


def _random_pair(r: random.Random) -> tuple[str, str]:
    a = _random_answer(r)
    kind = r.random()
    if kind < 0.4:
        return a, _random_answer(r)
    if kind < 0.6:
        return a, a
    return a, _respelled(r, a)


def _forms(r: random.Random, a: int, b: int) -> str:
    """One written form of the value a/b."""
    return r.choice(
        [
            f"{a}/{b}",
            f"\\frac{{{a}}}{{{b}}}",
            f"{a / b:.{r.randint(1, 12)}g}",
            f"{a * 1000}/{b * 1000}",
            f"{a}*{b}^{{-1}}",
            f"\\sqrt{{{a * a}}}/{b}",
            f"({a})/({b})",
            f"{a}e0/{b}",
        ]
    )


def _numeric_answer(r: random.Random, a: int, b: int, suffix: str) -> str:
    s = _forms(r, a, b) + suffix
    wrap = r.random()
    if wrap < 0.1:
        return f"${s}$"
    if wrap < 0.2:
        return f"\\text{{{s}}}"
    return s


def _numeric_pair(r: random.Random) -> tuple[str, str]:
    a, b = r.randint(0, 2000), r.randint(1, 60)
    suffix = r.choice(SUFFIXES)
    pred = _numeric_answer(r, a, b, suffix)
    kind = r.random()
    if kind < 0.4:  # the same value, another form
        return pred, _numeric_answer(r, a, b, suffix)
    if kind < 0.6:  # another modifier
        return pred, _numeric_answer(r, a, b, r.choice(SUFFIXES))
    if kind < 0.8:  # a nearby value
        return pred, _numeric_answer(r, a + r.choice([-1, 1]), b, suffix)
    if kind < 0.9:  # a container of such values
        c = r.randint(0, 99)
        return f"({pred}, {c})", f"({_numeric_answer(r, a, b, suffix)},{c})"
    return pred, _random_answer(r)


def pairs() -> list[tuple[str, str]]:
    corpus = EQUIVALENT_PAIRS + NOT_EQUIVALENT_PAIRS + UNVERIFIABLE_PAIRS
    out = corpus + [(gold, pred) for pred, gold in corpus]
    r = random.Random(SEED)
    out += [_random_pair(r) for _ in range(RANDOM_PAIRS)]
    out += [_numeric_pair(r) for _ in range(NUMERIC_PAIRS)]
    return out


def main() -> None:
    rows = []
    for pred, gold in pairs():
        verdict = verify(pred, gold)
        rows.append([pred, gold, verdict.outcome, verdict.stage])
    TABLE.write_text(
        "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False) for row in rows) + "\n]\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
