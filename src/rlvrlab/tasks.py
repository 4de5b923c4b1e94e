"""Synthetic verifiable arithmetic tasks for the toy policy.

Queries and responses share one small alphabet: the ten digits, the two
operators, '=', and eos.  There are two families, modular addition and
modular multiplication of two digits; every task has a single-digit
answer that the cascade verifier can check, so rewards are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import Vocab

PLUS = 10
TIMES = 11
EQUALS = 12
EOS = 13

VOCAB = Vocab(size=14, eos=EOS)

_CHARS = "0123456789+*="

# Each task family's operator token: its queries are "a+b=" or "a*b=".
OPERATORS = {"modular-add": PLUS, "modular-mul": TIMES}
QUERY_LENGTH = 4


@dataclass(frozen=True)
class TaskSpec:
    """A task family and the modulus of its answers."""

    family: str = "modular-add"
    modulus: int = 10

    def __post_init__(self) -> None:
        if self.family not in OPERATORS:
            raise ValueError(f"unknown task family {self.family!r}")
        if not 2 <= self.modulus <= 10:
            raise ValueError("modulus must be in [2, 10] for single-token answers")


def generate_task(
    spec: TaskSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], str]:
    """One (query tokens, gold answer string) pair: two digits a and b
    joined by the family's operator, with (a + b) or (a * b) mod the
    modulus as the gold."""
    a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
    answer = a + b if spec.family == "modular-add" else a * b
    return (a, OPERATORS[spec.family], b, EQUALS), str(answer % spec.modulus)


def decode_tokens(tokens) -> str:
    """Token ids back to text, stopping at the first eos."""
    chars = []
    for tok in tokens:
        if tok == EOS:
            break
        chars.append(_CHARS[tok])
    return "".join(chars)
