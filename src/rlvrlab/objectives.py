"""Advantages normalized within each group, and the clipped policy-gradient
surrogate.

One clipped surrogate, ``clipped_objective``, evaluated over every token
of a batch at once, whose per-rollout weights are its one knob: the token
mean normalizes by the total token count of the batch (so long rollouts
are not down-weighted), the sequence mean averages per rollout and per
group.  Either may add a K3 KL penalty against a reference policy, a
``PolicyParams`` of the policy's own shape read at the batch's buckets.  It
takes the old log-probs of the batch's tokens as an array
(``response_logprobs`` of the policy that sampled it), or None when that
policy is the one it is evaluated at, and returns the objective value
together with its analytic gradient over the policy logits table, checked
elsewhere against finite differences.  A batch touches a few hundred of
the table's rows, so the gradient is row-sparse: those rows and their
values alone (a ``SparseGrad``).

A batch is a ``Batch``: the sampler's token and bucket rows of every kept
rollout, with their rewards and penalties, and the size of every group.
The objective reads it as arrays from end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .policy import PolicyParams, log_softmax_at

STD_FLOOR = 1e-6

# A gradient over the logits table as (rows, values): the sorted, distinct
# rows it touches and its (len(rows), vocab) values there; every other row
# of the gradient is zero.
SparseGrad = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Batch:
    """Groups of rollouts as arrays: one row per rollout, each group's rows
    consecutive and the groups in order.

    ``tokens`` and ``buckets`` are rows as ``sample_groups`` returns them,
    each response's tokens and the context bucket before each, -1 past its
    end.  Every rollout carries its own reward and penalty, every group
    its size, which may differ between groups.
    """

    tokens: np.ndarray  # (n, width) response token ids, -1 past each end
    buckets: np.ndarray  # (n, width) context buckets, -1 past each end
    rewards: np.ndarray  # (n,) {0, 1}
    penalties: np.ndarray  # (n,) repetition scores in [0, 1]
    sizes: np.ndarray  # (groups,) rollouts per group

    def __post_init__(self) -> None:
        n = len(self.tokens)
        if not len(self.rewards) == len(self.penalties) == n:
            raise ValueError("per-rollout arrays must align")
        if self.tokens.ndim != 2 or self.buckets.shape != self.tokens.shape:
            raise ValueError(
                f"tokens {self.tokens.shape} and buckets {self.buckets.shape} "
                "must be 2-D arrays of one shape"
            )
        if not np.array_equal(self.buckets < 0, self.tokens < 0):
            raise ValueError("buckets must hold a bucket exactly where tokens hold a token")
        if (self.sizes < 2).any():
            raise ValueError("a group needs at least 2 rollouts")
        if self.sizes.sum() != n:
            raise ValueError(f"group sizes sum to {self.sizes.sum()}, not {n} rollouts")


@dataclass(frozen=True)
class AdvantageSet:
    """Per-rollout advantages, constant across each rollout's tokens."""

    values: np.ndarray
    # All-zero because the group std fell below the floor: one flag per
    # group, shaped like ``values`` without its last axis.
    degenerate: np.ndarray


def shaped_advantages(
    rewards: np.ndarray | Sequence[float], penalties: np.ndarray | Sequence[float]
) -> AdvantageSet:
    """Normalize reward-minus-penalty within each group.

    A group is the last axis: one group's rollouts, or a ``(groups, G)``
    array with one group per row.  Uses the population std; where it falls
    below the floor the group's advantages are all zero and it is flagged
    degenerate.
    """
    r = np.asarray(rewards, dtype=np.float64)
    p = np.asarray(penalties, dtype=np.float64)
    if r.shape != p.shape:
        raise ValueError(f"length mismatch: {r.shape} vs {p.shape}")
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("need at least 2 rollouts to normalize")
    shaped = r - p
    # The operations of np.std, spelled out to reuse the centred values.
    centred = shaped - shaped.sum(axis=-1, keepdims=True) / shaped.shape[-1]
    std = np.sqrt((centred * centred).sum(axis=-1, keepdims=True) / shaped.shape[-1])
    degenerate = std < STD_FLOOR
    values = np.zeros_like(shaped)
    np.divide(centred, std, out=values, where=~degenerate)
    return AdvantageSet(values, degenerate[..., 0])


def filter_mixed_groups(rewards: np.ndarray) -> np.ndarray:
    """Indices of the rows of a ``(groups, G)`` reward array, one group per
    row, whose rollouts are neither all correct nor all wrong."""
    rewards = np.asarray(rewards)
    correct = (rewards > 0.5).sum(axis=1)
    return np.flatnonzero((correct > 0) & (correct < rewards.shape[1]))


def _flat_tokens(batch: Batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The length of every response of ``batch``, and the buckets and
    tokens of all of them, flattened in rollout order."""
    filled = batch.tokens >= 0
    return filled.sum(axis=1), batch.buckets[filled], batch.tokens[filled]


def response_logprobs(params: PolicyParams, batch: Batch) -> np.ndarray:
    """log pi(token | context) at temperature 1 of every response token of
    ``batch``, flattened in rollout order.

    Taken from the policy that sampled the batch, before any update, these
    are the old log-probs ``lp_old`` the objective takes.
    """
    _, buckets, toks = _flat_tokens(batch)
    return log_softmax_at(params.logits[buckets], toks)[0]


def _rollout_advantages(batch: Batch) -> np.ndarray:
    """Advantage of every rollout of ``batch``, in order: one row-wise
    ``shaped_advantages`` call per distinct group size, over those groups'
    rewards minus their penalties."""
    starts = np.cumsum(batch.sizes) - batch.sizes
    out = np.empty(len(batch.rewards))
    for size in np.unique(batch.sizes).tolist():
        rows = starts[batch.sizes == size][:, None] + np.arange(size)
        out[rows] = shaped_advantages(batch.rewards[rows], batch.penalties[rows]).values
    return out


def clipped_objective(
    batch: Batch,
    params: PolicyParams,
    lp_old: Optional[np.ndarray],
    eps_low: float,
    eps_high: float,
    per_sequence: bool = False,
    ref: PolicyParams | None = None,
    beta: float = 0.0,
) -> tuple[float, SparseGrad]:
    """J = sum_i w_i sum_t [min(r A_i, clip(r) A_i) - beta * K3] and dJ/dlogits
    over every response token of ``batch``.  Maximize J (or equivalently
    minimize -J).

    A_i is rollout i's reward minus its penalty, normalized within its
    group.  The weight w_i is 1 / (total tokens of the batch), so each
    token counts the same whatever its rollout's length, or with
    ``per_sequence`` 1 / (groups x group size x |o_i|), the mean over each
    rollout, then its group, then the groups; an empty rollout weighs 0.
    The ratio r = pi_theta / pi_old is clipped to [1 - eps_low,
    1 + eps_high].  ``lp_old`` holds the old log-prob of every token, from
    ``response_logprobs`` of the policy that sampled the batch; None
    stands for the log-probs of ``params`` itself: the policy has not
    moved since it sampled the batch, the one log-softmax serves as both,
    and every ratio is exactly 1.

    K3 is rho - ln rho - 1 with rho = pi_ref / pi_theta, read at the
    batch's buckets, and enters if and only if a reference policy ``ref``
    is passed; a nonzero ``beta`` without one, or a ``ref`` of another
    vocabulary, context order or table size than ``params``, is a
    ``ValueError``.  The gradient treats old log-probs as constants, and
    comes as a ``SparseGrad`` over the rows the batch's contexts touch.
    """
    if ref is None:
        if beta:
            raise ValueError(f"beta {beta} weighs a K3 term, which needs a ref")
    else:
        ref_shape = (ref.vocab, ref.k, ref.buckets)
        if ref_shape != (params.vocab, params.k, params.buckets):
            raise ValueError(
                f"reference (vocab, k, buckets) {ref_shape} differs from the "
                f"policy's {(params.vocab, params.k, params.buckets)}"
            )
    if not len(batch.sizes):
        raise ValueError("empty batch")
    lengths, buckets, toks = _flat_tokens(batch)
    if per_sequence:
        counts = len(batch.sizes) * np.repeat(batch.sizes, batch.sizes) * lengths
        weights = np.zeros(len(lengths))
        np.divide(1.0, counts, out=weights, where=lengths > 0)
    elif not len(toks):
        raise ValueError("batch contains no tokens")
    else:
        weights = np.full(len(lengths), 1.0 / len(toks))
    if lp_old is not None and np.shape(lp_old) != toks.shape:
        raise ValueError(f"{np.size(lp_old)} old log-probs for {toks.size} response tokens")
    adv = np.repeat(_rollout_advantages(batch), lengths)
    w = np.repeat(weights, lengths)
    lp_new, probs = log_softmax_at(params.logits[buckets], toks)
    ratio = np.exp(lp_new - (lp_new if lp_old is None else lp_old))
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
    terms = np.minimum(unclipped, clipped)
    # Gradient flows only where the unclipped branch attains the min; at a
    # tie the branches coincide so the choice is immaterial.
    coef = np.where(unclipped <= clipped, adv * ratio, 0.0) * w
    pos = np.arange(len(toks))  # the token each gradient term belongs to
    if ref is not None:
        lp_ref, _ = log_softmax_at(ref.logits[buckets], toks)
        rho = np.exp(lp_ref - lp_new)
        terms = terms - beta * (rho - (lp_ref - lp_new) - 1.0)
        # d/dtheta of -beta*K3 contributes beta*(rho - 1) per token.  Scatter
        # rollout by rollout, each one's clipped terms before its K3 terms:
        # the order a per-rollout loop adds them in, so the sums do not
        # depend on how the batch is packed.
        rollout_of = np.repeat(np.arange(len(lengths)), lengths)
        order = np.argsort(np.tile(rollout_of, 2), kind="stable")
        pos = np.tile(pos, 2)[order]
        coef = np.concatenate([coef, beta * (rho - 1.0) * w])[order]
    vocab = params.vocab.size
    contrib = -probs[pos] * coef[:, None]
    contrib[np.arange(len(pos)), toks[pos]] += coef
    # Accumulate over the touched rows only, one bincount over the flattened
    # (row, token) cells: each cell gets the same additions in the same
    # order from +0.0 as in a dense table, so each touched entry is equal
    # to its dense value bit for bit.
    rows, row_of = np.unique(buckets, return_inverse=True)
    cells = (row_of[pos] * vocab)[:, None] + np.arange(vocab)
    values = np.bincount(
        cells.ravel(), weights=contrib.ravel(), minlength=len(rows) * vocab
    ).reshape(len(rows), vocab)
    return float((w * terms).sum()), (rows, values)
