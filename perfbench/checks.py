"""Correctness checks computed apart from the program under test.

Each check returns a list of problems; an empty list means it passed.  The
training checks read only the logits table and the per-step metrics; they
re-derive the policy's context hashing and softmax here instead of calling
the sampler, the verifier or the evaluator they judge.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# Token ids of the modular-arithmetic alphabet (rlvrlab.tasks): ten digits,
# '+', '*', '=', eos.  The begin marker that pads short windows is the vocab
# size.
DIGITS = tuple(range(10))
PLUS, EQUALS, EOS, VOCAB_SIZE = 10, 12, 13, 14
BEGIN = VOCAB_SIZE

_HASH_MULT = 1000003
_HASH_MASK = (1 << 64) - 1
Z = 4.0  # standard deviations of sampling error the avg@k check allows


def bucket(window: Sequence[int], buckets: int) -> int:
    """Row of the logits table for a context window (64-bit polynomial hash)."""
    h = 0
    for tok in window:
        h = (h * _HASH_MULT + tok + 1) & _HASH_MASK
    return h % buckets


def _softmax(row: np.ndarray) -> np.ndarray:
    e = np.exp(row - row.max())
    return e / e.sum()


def answer_bounds(logits: np.ndarray, order: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-query bounds on the probability that one rollout is rewarded.

    For each of the 100 queries "a+b=", the response "<gold digit> eos" is
    rewarded, so its probability is a lower bound; every "<wrong digit> eos"
    is not, so one minus their total is an upper bound.  Computed exactly
    from the table, without sampling.
    """
    buckets = logits.shape[0]
    lower, upper = [], []
    for a in DIGITS:
        for b in DIGITS:
            query = (a, PLUS, b, EQUALS)
            history = (BEGIN,) * order + query
            first = _softmax(logits[bucket(history[-order:], buckets)])
            stop = np.array([
                _softmax(logits[bucket((history + (d,))[-order:], buckets)])[EOS]
                for d in DIGITS
            ])
            p_digit_then_eos = first[: len(DIGITS)] * stop
            gold = (a + b) % modulus
            lower.append(p_digit_then_eos[gold])
            upper.append(1.0 - (p_digit_then_eos.sum() - p_digit_then_eos[gold]))
    return np.array(lower), np.array(upper)


def avg_within_bounds(
    label: str, avg: float, logits: np.ndarray, order: int, modulus: int,
    n_tasks: int, k: int,
) -> list[str]:
    """``avg`` (avg@k over ``n_tasks`` uniform tasks) lies between the exact
    bounds, widened by ``Z`` standard deviations of the estimate.

    Per task the score X = hits / k has E[X^2 | q] <= U_q^2 + 1/(4k), and
    E[X] >= mean(L_q), so Var(X) <= mean(U_q^2) + 1/(4k) - mean(L_q)^2.
    """
    lower_q, upper_q = answer_bounds(logits, order, modulus)
    lo, hi = float(lower_q.mean()), float(upper_q.mean())
    var = max(float((upper_q**2).mean()) + 1.0 / (4 * k) - lo**2, 0.0)
    tol = Z * math.sqrt(var / n_tasks)
    if lo - tol <= avg <= hi + tol:
        return []
    return [f"{label} avg@{k} {avg:.4f} outside exact bounds "
            f"[{lo:.4f}, {hi:.4f}] +- {tol:.4f}"]


def in_range(label: str, value: float, lo: float, hi: float = math.inf) -> list[str]:
    if lo <= value <= hi:
        return []
    return [f"{label} {value:.4f} outside [{lo}, {hi}]"]


def stage_caps(metrics, caps: Sequence[int]) -> list[str]:
    """Every stage ran and kept its mean response length within its cap."""
    problems = []
    for s, cap in enumerate(caps):
        lengths = [m.mean_response_len for m in metrics if m.stage == s]
        if not lengths:
            problems.append(f"stage {s + 1} ran no steps")
        elif max(lengths) > cap:
            problems.append(f"stage {s + 1} mean length {max(lengths):.2f} exceeds its cap {cap}")
    return problems


def length_rises(metrics) -> list[str]:
    """Criterion 8: mean length rises once the cap is lifted (first 200
    stage-2 steps against the last 10 of stage 1)."""
    stage1 = [m.mean_response_len for m in metrics if m.stage == 0]
    stage2 = [m.mean_response_len for m in metrics if m.stage == 1]
    before = float(np.mean(stage1[-10:]))
    after = float(np.mean(stage2[:200]))
    if after > before:
        return []
    return [f"stage-2 mean length {after:.3f} did not exceed stage-1 final "
            f"{before:.3f} after the cap lift"]


def repetition_halves(metrics) -> list[str]:
    """Criterion-7 penalty-on behaviour within stage 1: loops are seeded
    (mean repetition of the first 5 steps above 0.1) and at least halve by
    its last 5 steps; the tail of the run stays below half the start."""
    stage1 = [m.mean_repetition for m in metrics if m.stage == 0]
    if len(stage1) < 10:
        return [f"stage 1 ran {len(stage1)} steps, need at least 10"]
    start, end = float(np.mean(stage1[:5])), float(np.mean(stage1[-5:]))
    tail = float(np.mean([m.mean_repetition for m in metrics[-25:]]))
    problems = []
    if start <= 0.1:
        problems.append(f"loop boost produced no repetition ({start:.3f})")
    if end > 0.5 * start:
        problems.append(f"stage-1 repetition only fell {start:.3f} -> {end:.3f}")
    if tail > 0.5 * start:
        problems.append(f"repetition rose again to {tail:.3f} at the end")
    return problems


def funnel(report: dict, planted: dict[str, int], total: int) -> list[str]:
    """Funnel report equals the planted counts and telescopes."""
    problems = []
    got = {s["name"]: s["excluded"] for s in report["stages"]}
    if got != planted:
        problems.append(f"funnel exclusions {got} != planted {planted}")
    running = total
    for s in report["stages"]:
        if s["input"] != running:
            problems.append(f"funnel stage {s['name']} input {s['input']} != {running}")
        running = s["input"] - s["excluded"]
    if running != report["final_count"]:
        problems.append(f"funnel final {report['final_count']} != {running}")
    return problems
