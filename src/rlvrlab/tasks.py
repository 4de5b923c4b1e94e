"""Synthetic verifiable arithmetic tasks for the toy policy.

Queries and responses share one small alphabet: the ten digits, the two
operators, '=', and eos.  Every task has a single integer answer that the
cascade verifier can check, so rewards are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import Vocab

TASK_FAMILIES = ("modular-add", "modular-mul", "digit-sum")

PLUS = 10
TIMES = 11
EQUALS = 12
EOS = 13

VOCAB = Vocab(size=14, eos=EOS)

_CHARS = "0123456789+*="


@dataclass(frozen=True)
class TaskSpec:
    family: str = "modular-add"
    modulus: int = 10
    num_digits: int = 3  # digit-sum only

    def __post_init__(self) -> None:
        if self.family not in TASK_FAMILIES:
            raise ValueError(f"unknown task family {self.family!r}")
        if not 2 <= self.modulus <= 10:
            raise ValueError("modulus must be in [2, 10] for single-token answers")
        if self.num_digits < 1:
            raise ValueError("num_digits must be positive")

    @property
    def query_length(self) -> int:
        if self.family == "digit-sum":
            return self.num_digits + 1
        return 4  # "a+b=" / "a*b="


def generate_task(
    spec: TaskSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], str]:
    """One (query tokens, gold answer string) pair."""
    if spec.family == "modular-add":
        a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        return (a, PLUS, b, EQUALS), str((a + b) % spec.modulus)
    if spec.family == "modular-mul":
        a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        return (a, TIMES, b, EQUALS), str((a * b) % spec.modulus)
    digits = [int(rng.integers(0, 10)) for _ in range(spec.num_digits)]
    return tuple(digits) + (EQUALS,), str(sum(digits))


def decode_tokens(tokens) -> str:
    """Token ids back to text, stopping at the first eos."""
    chars = []
    for tok in tokens:
        if tok == EOS:
            break
        chars.append(_CHARS[tok])
    return "".join(chars)
