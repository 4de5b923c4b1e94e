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

# Token i is the character CHARS[i]; eos has none.
CHARS = "0123456789+*="

# Each task family's operator token: its queries are "a+b=" or "a*b=".
OPERATORS = {"modular-add": PLUS, "modular-mul": TIMES}
QUERY_LENGTH = 4


@dataclass(frozen=True)
class TaskSpec:
    """A task family and the modulus of its answers."""

    family: str = "modular-add"
    modulus: int = 10

    def __post_init__(self) -> None:
        from .config import _check_types  # config imports this module
        # A float modulus would make every gold a float string, '3.0'.
        _check_types(self)
        if self.family not in OPERATORS:
            raise ValueError(f"unknown task family {self.family!r}")
        if not 2 <= self.modulus <= 10:
            raise ValueError("modulus must be in [2, 10] for single-token answers")


def generate_tasks(
    spec: TaskSpec, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, list[str]]:
    """``n`` tasks as an ``(n, QUERY_LENGTH)`` int64 array of queries and a
    list of gold answer strings.  Query ``i`` is two digits a and b joined
    by the family's operator, "a+b=" or "a*b=", and its gold is (a + b) or
    (a * b) mod the modulus.

    The operands come from one ``rng.integers(0, 10, size=(n, 2))`` draw:
    bounded 32-bit draws take the halves of PCG64's 64-bit outputs in turn
    either way, so the values and the generator's state afterwards are
    those of 2n scalar draws, a then b for each task in order.
    """
    digits = rng.integers(0, 10, size=(n, 2))
    a, b = digits[:, 0], digits[:, 1]
    answers = a + b if spec.family == "modular-add" else a * b
    queries = np.empty((n, QUERY_LENGTH), dtype=np.int64)
    queries[:, 0] = a
    queries[:, 1] = OPERATORS[spec.family]
    queries[:, 2] = b
    queries[:, 3] = EQUALS
    return queries, [str(x) for x in (answers % spec.modulus).tolist()]


def generate_task(
    spec: TaskSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], str]:
    """One task as a (query tokens, gold answer string) pair: the
    one-task case of ``generate_tasks``."""
    queries, golds = generate_tasks(spec, rng, 1)
    return tuple(queries[0].tolist()), golds[0]


def decode_tokens(tokens) -> str:
    """Token ids back to text, stopping at the first eos."""
    chars = []
    for tok in tokens:
        if tok == EOS:
            break
        chars.append(CHARS[tok])
    return "".join(chars)
