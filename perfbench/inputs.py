"""Seeded inputs for the `data` workload: labelled answer pairs and a
templated problem corpus with planted exclusions.

Everything here is built from the benchmark seed alone and carries its
expected outcome by construction, so the checks never compare against a
stored copy of the program's output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

EQ = "equivalent"
NEQ = "not_equivalent"
UNV = "unverifiable"

# ---------------------------------------------------------------------------
# answer pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnswerPair:
    family: str
    pred: str
    gold: str
    label: str  # expected verify() outcome


def _fraction(r: random.Random):
    a, b, k = r.randint(1, 999), r.randint(2, 999), r.randint(2, 9)
    pred = f"\\frac{{{a}}}{{{b}}}"
    return [
        (pred, f"{a * k}/{b * k}", EQ),
        (pred, f"{a / b:.12g}", EQ),
        # relative gap 1/a >= 1e-3, ten times the numeric tolerance
        (pred, f"\\frac{{{a + 1}}}{{{b}}}", NEQ),
    ]


def _root(r: random.Random):
    n = r.randint(2, 99)
    m = n * n + r.randint(1, 2 * n)  # strictly between two squares
    return [
        (f"\\sqrt{{{n * n}}}", str(n), EQ),
        (f"\\sqrt[3]{{{n ** 3}}}", str(n), EQ),
        (f"\\sqrt{{{m}}}", f"{math.sqrt(m):.10f}", EQ),
        (f"\\sqrt{{{m}}}", f"{math.sqrt(m) * 1.01:.10f}", NEQ),
    ]


def _power(r: random.Random):
    a, b = r.randint(2, 9), r.randint(2, 12)
    v = a**b
    return [
        (f"{a}^{{{b}}}", str(v), EQ),
        (f"{a}^{{{b}}}", str(v + max(1, v // 50)), NEQ),
    ]


def _pi(r: random.Random):
    k, m = r.randint(1, 40), r.randint(2, 12)
    v = k * math.pi / m
    return [
        (f"\\frac{{{k}\\pi}}{{{m}}}", f"{v:.10f}", EQ),
        (f"{k}\\pi/{m}", f"{v:.10f}", EQ),
        (f"{k}\\pi/{m}", f"{v * 1.01:.10f}", NEQ),
    ]


def _percent(r: random.Random):
    p = r.randint(1, 999)
    decimal = f"{p // 100}.{p % 100:02d}"
    return [
        (f"{p}\\%", decimal, EQ),
        (f"{p}%", decimal, EQ),
        (f"{p + 1}\\%", decimal, NEQ),
    ]


def _degrees(r: random.Random):
    d = r.randint(1, 359)
    rad = d * math.pi / 180
    return [
        (f"{d}^\\circ", f"{rad:.10f}", EQ),
        (f"{d} degrees", f"{rad:.10f}", EQ),
        (f"{d}^\\circ", f"{(d + 1) * math.pi / 180:.10f}", NEQ),
    ]


_UNIT_WORDS = ("m", "cm", "mm", "km", "kg", "g", "s", "h", "min")


def _units(r: random.Random):
    v = r.randint(1, 999)
    u, u2 = r.sample(_UNIT_WORDS, 2)
    return [
        (f"{v} {u}", f"{v}{u}", EQ),
        (f"{v} {u}", f"{v} {u2}", NEQ),
        (f"{v} {u}", f"{v + 1}{u}", NEQ),
    ]


def _containers(r: random.Random):
    # Elements stay below 100: a comma before exactly three digits is read
    # as a thousands separator (see KNOWN_FAULTS).
    a, b, c = r.sample(range(1, 100), 3)
    return [
        (f"({a}, {b})", f"({a},{b})", EQ),
        (f"({a}, {b}, {c})", f"({a}.0,{b},{c})", EQ),
        (f"({a}, {b})", f"({b},{a})", NEQ),
        (f"{{{a},{b},{c}}}", f"{{{c},{a},{b}}}", EQ),
        (f"{{{a},{b},{c}}}", f"{{{a},{b},{c + 1000}}}", NEQ),
    ]


_WORDS = ("yes", "no", "true", "false", "red", "blue", "none", "undefined",
          "north", "apple", "x+y", "y+x", "ab", "abc", "odd", "even")


def _opaque(r: random.Random):
    w1, w2 = r.sample(_WORDS, 2)
    return [
        (w1, w1, EQ),
        (w1, w2, UNV),
        (str(r.randint(1, 99)), w1, UNV),
    ]


PAIR_FAMILIES = {
    "fraction": _fraction,
    "root": _root,
    "power": _power,
    "pi": _pi,
    "percent": _percent,
    "degrees": _degrees,
    "units": _units,
    "containers": _containers,
    "opaque": _opaque,
}

# Seed-independent inputs on which verify() fails today: one attempted and
# failed operation each per round.  The first three raise although
# parse_math promises never to raise; a verifier that caps parse depth and
# digit count may call them unverifiable.  The last one is judged wrong: the
# thousands-separator rule in normalize() merges "468,289,122" into one
# number, so two listings of the same set compare unequal.
KNOWN_FAULTS = (
    ("sqrt_nested_200", "\\sqrt{" * 200 + "4" + "}" * 200, "2", (NEQ, UNV)),
    ("parens_nested_3000", "(" * 3000 + "1" + ")" * 3000, "1", (EQ, UNV)),
    ("integer_5000_digits", "1" + "0" * 4999, "1", (NEQ, UNV)),
    ("set_three_digit_elements", "{468,289,122}", "{122,468,289}", (EQ,)),
)


def answer_pairs(seed: int, count: int) -> list[AnswerPair]:
    """``count`` labelled pairs, families drawn round-robin from the seed."""
    r = random.Random(f"pairs-{seed}")
    out: list[AnswerPair] = []
    names = sorted(PAIR_FAMILIES)
    i = 0
    while len(out) < count:
        family = names[i % len(names)]
        i += 1
        for pred, gold, label in PAIR_FAMILIES[family](r):
            if len(out) < count:
                out.append(AnswerPair(family, pred, gold, label))
    return out


# ---------------------------------------------------------------------------
# curation corpus
# ---------------------------------------------------------------------------

# Shared phrasing of the kind real datasets have.  It is longer than the
# 10-word n-gram, so every record shares n-grams with every other one and
# ngram_dedup's candidate set holds every earlier kept record.
PREAMBLE = (
    "Let $x$ be a positive integer and let $y$ be the unique real number "
    "such that the following holds."
)

# Every slot {} takes a number no other record uses, and no run of nine
# words goes without one, so two records share only preamble n-grams.
TEMPLATES = (
    "{} apples cost {} dollars and {} pears cost {} dollars so find the total for {} fruits",
    "{} is the sum of {} and {} while {} equals {} minus {} so compute {}",
    "{} workers finish {} tasks in {} hours and {} more workers join after {} hours",
    "{} points lie on a circle of radius {} and {} chords meet at {} points inside {}",
    "{} squared plus {} squared equals {} and we ask for {} modulo {}",
    "{} cards are drawn from {} decks with {} jokers and {} spades over {} rounds",
)

EVAL_TEMPLATE = (
    "Benchmark item {} asks what remains when {} is divided by {} after {} steps of {} rounds"
)

# Planted exclusions per 1000 records, one victim kind per funnel stage.
PLANTED_PER_1000 = {
    "style_proof": 30,
    "style_non_ascii": 20,
    "exact_dup": 40,
    "near_dup": 30,
    "contaminated": 25,
    "difficulty_zero": 35,
    "difficulty_one": 25,
    "long_answer": 30,
}

STAGE_OF_KIND = {
    "style_proof": "style",
    "style_non_ascii": "style",
    "exact_dup": "exact_dedup",
    "near_dup": "ngram_dedup",
    "contaminated": "decontaminate",
    "difficulty_zero": "difficulty",
    "difficulty_one": "difficulty",
    "long_answer": "answer_length",
}

FUNNEL_STAGES = (
    "style", "exact_dedup", "ngram_dedup", "decontaminate", "difficulty", "answer_length",
)

_INTERIOR_RATES = (0.125, 0.25, 0.5, 0.75, 0.875)


@dataclass(frozen=True)
class Corpus:
    records: list[dict]  # JSONL rows in file order
    eval_questions: list[str]
    kept_ids: list[str]  # expected survivors, in file order
    planted: dict[str, int]  # expected exclusions per funnel stage


def corpus(seed: int, size: int) -> Corpus:
    """A ``size``-record corpus whose funnel is known by construction."""
    r = random.Random(f"corpus-{seed}")
    counts = {k: v * size // 1000 for k, v in PLANTED_PER_1000.items()}
    n_clean = size - sum(counts.values())
    if n_clean < counts["exact_dup"] + counts["near_dup"]:
        raise ValueError(f"corpus size {size} too small to plant duplicates")
    slots_needed = 8 * (size + counts["contaminated"]) + 8
    numbers = iter(r.sample(range(10_000, 10_000_000), slots_needed))

    def body() -> str:
        template = r.choice(TEMPLATES)
        return template.format(*(next(numbers) for _ in range(template.count("{}"))))

    def answer() -> str:
        return str(r.randint(0, 9999))

    eval_questions = [
        EVAL_TEMPLATE.format(*(next(numbers) for _ in range(5)))
        for _ in range(counts["contaminated"])
    ]

    rows: list[tuple[float, dict]] = []  # (sort key, record)
    uid = 0

    def add(kind: str, question: str, ans: str, pass_rate, key: float) -> dict:
        nonlocal uid
        rec = {"id": f"{kind}-{uid:05d}", "question": question, "answer": ans,
               "source": "perfbench"}
        if pass_rate is not None:
            rec["pass_rate"] = pass_rate
        uid += 1
        rows.append((key, rec))
        return rec

    def interior():
        return r.choice(_INTERIOR_RATES + (None,))

    clean = []
    for _ in range(n_clean):
        rec = add("clean", f"{PREAMBLE} {body()}", answer(), interior(), r.random())
        clean.append((rows[-1][0], rec))
    for _ in range(counts["style_proof"]):
        add("style_proof", f"{PREAMBLE} Prove that {body()}", answer(), interior(), r.random())
    for _ in range(counts["style_non_ascii"]):
        add("style_non_ascii", "设正整数满足下列条件求所有可能的值之和 " + str(next(numbers)),
            answer(), interior(), r.random())
    for kind in ("exact_dup", "near_dup"):
        for key, target in r.sample(clean, counts[kind]):
            words = target["question"].split(" ")
            if kind == "exact_dup":
                question = "  ".join(words).upper()
            else:
                question = " ".join(words[:-1] + [str(next(numbers))])
            # After its target in file order, so the copy is the one excluded.
            add(kind, question, answer(), interior(), key + (1 - key) * r.random())
    for i in range(counts["contaminated"]):
        leaked = " ".join(eval_questions[i].split(" ")[2:12])
        add("contaminated", f"{PREAMBLE} {body()} and {leaked}", answer(), interior(), r.random())
    for kind, rate in (("difficulty_zero", 0.0), ("difficulty_one", 1.0)):
        for _ in range(counts[kind]):
            add(kind, f"{PREAMBLE} {body()}", answer(), rate, r.random())
    for _ in range(counts["long_answer"]):
        long = f"\\frac{{{r.randint(10**6, 10**7)}}}{{{r.randint(10**6, 10**7)}}}+\\sqrt{{2}}"
        add("long_answer", f"{PREAMBLE} {body()}", long, interior(), r.random())

    rows.sort(key=lambda kr: kr[0])
    records = [rec for _, rec in rows]
    kept_ids = [rec["id"] for rec in records if rec["id"].startswith("clean-")]
    planted = {stage: 0 for stage in FUNNEL_STAGES}
    for kind, n in counts.items():
        planted[STAGE_OF_KIND[kind]] += n
    return Corpus(records, eval_questions, kept_ids, planted)
