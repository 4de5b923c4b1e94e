"""Trailing-loop detection and the repetition score it induces.

A sequence "degenerates" when some suffix is just a block repeated over and
over (a partial final copy is allowed).  The score is the fraction of the
sequence covered by the earliest such suffix, so loops that start earlier
are penalized harder.
"""

from __future__ import annotations

from typing import Optional, Sequence


def detect_loop(
    tokens: Sequence[int], min_period: int = 1, min_repeats: int = 3
) -> Optional[int]:
    """Start index of the earliest trailing loop, or None when there is none.

    A candidate (start, period) qualifies when tokens[start:] holds at least
    ``min_repeats`` full consecutive copies of its leading ``period`` tokens,
    a partial final copy permitted.

    For each period p, one backward scan finds the longest suffix with
    period p (tokens[i] == tokens[i + p] throughout); a shorter suffix with
    the same period starts later and repeats less, so the earliest
    qualifying start is the earliest of these longest suffixes.
    """
    n = len(tokens)
    if n == 0:
        raise ValueError("tokens must be nonempty")
    if min_period < 1 or min_repeats < 1:
        raise ValueError("min_period and min_repeats must be >= 1")
    best = None
    for period in range(min_period, n // min_repeats + 1):
        i = n - period - 1
        while i >= 0 and tokens[i] == tokens[i + period]:
            i -= 1
        start = i + 1
        if (n - start) // period >= min_repeats and (best is None or start < best):
            best = start
            if start == 0:
                break  # no later period can start earlier
    return best


def repetition_score(
    tokens: Sequence[int], min_period: int = 1, min_repeats: int = 3
) -> float:
    """Fraction of the sequence inside the detected loop; 0 when loop-free."""
    start = detect_loop(tokens, min_period=min_period, min_repeats=min_repeats)
    if start is None:
        return 0.0
    return (len(tokens) - start) / len(tokens)
