"""Group-normalized advantages and clipped policy-gradient surrogates.

One clipped surrogate, evaluated over every token of a batch at once, with
two weightings: a token-mean form that normalizes by the total token count
of the batch (so long rollouts are not down-weighted) with decoupled clip
bounds, and a sequence-mean form that averages per rollout and per group
and adds a K3 KL penalty against a frozen reference.  Both take the old
log-probs of the batch's tokens as an array (``response_logprobs`` of the
policy that sampled it), and both return the objective value together
with its analytic gradient over the policy logits table, checked
elsewhere against finite differences.  A batch touches a few hundred of
the table's rows, so the gradient is row-sparse: those rows and their
values alone (a ``SparseGrad``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .policy import PolicyParams, Rollout, context_buckets, log_softmax_at

STD_FLOOR = 1e-6

# A clip bound is either a point value or a uniform interval (lo, hi).
ClipSpec = Union[float, tuple[float, float]]

# A gradient over the logits table as (rows, values): the sorted, distinct
# rows it touches and its (len(rows), vocab) values there; every other row
# of the gradient is zero.
SparseGrad = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Group:
    """The rollouts sampled for one query, with their rewards and penalties."""

    query_id: int
    rollouts: tuple[Rollout, ...]
    rewards: np.ndarray  # {0, 1} per rollout
    penalties: np.ndarray  # repetition scores in [0, 1] per rollout

    def __post_init__(self) -> None:
        if not (len(self.rollouts) == len(self.rewards) == len(self.penalties)):
            raise ValueError("rollouts, rewards and penalties must align")
        if len(self.rollouts) < 2:
            raise ValueError("a group needs at least 2 rollouts")

    @property
    def size(self) -> int:
        return len(self.rollouts)


@dataclass(frozen=True)
class AdvantageSet:
    """Per-rollout advantages, constant across each rollout's tokens."""

    values: np.ndarray
    # All-zero because the group std fell below the floor: one flag per
    # group, shaped like ``values`` without its last axis.
    degenerate: np.ndarray


@dataclass(frozen=True)
class RefModel:
    """Frozen snapshot of policy parameters used as the KL reference."""

    params: PolicyParams

    @classmethod
    def capture(cls, params: PolicyParams) -> "RefModel":
        frozen = params.copy()
        frozen.logits.setflags(write=False)
        return cls(frozen)


@dataclass(frozen=True)
class ClipSchedule:
    """Per-stage clip bound specifications (low, high)."""

    stages: tuple[tuple[ClipSpec, ClipSpec], ...]

    def __post_init__(self) -> None:
        for low, high in self.stages:
            for spec in (low, high):
                vals = spec if isinstance(spec, tuple) else (spec, spec)
                for v in vals:
                    if not 0.0 < v < 1.0:
                        raise ValueError(f"clip value {v} outside (0, 1)")
                if vals[0] > vals[1]:
                    raise ValueError(f"clip interval {spec} has low end above high end")


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


def reward_advantages(rewards: np.ndarray | Sequence[float]) -> AdvantageSet:
    """Group-normalized rewards: shaped_advantages with zero penalties."""
    r = np.asarray(rewards, dtype=np.float64)
    return shaped_advantages(r, np.zeros_like(r))


def filter_mixed_groups(rewards: np.ndarray) -> np.ndarray:
    """Indices of the rows of a ``(groups, G)`` reward array, one group per
    row, whose rollouts are neither all correct nor all wrong."""
    rewards = np.asarray(rewards)
    correct = (rewards > 0.5).sum(axis=1)
    return np.flatnonzero((correct > 0) & (correct < rewards.shape[1]))


def sample_clip_ratios(
    schedule: ClipSchedule, stage: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Resolve the stage's clip specs; intervals are sampled uniformly."""
    if not 0 <= stage < len(schedule.stages):
        raise ValueError(f"stage {stage} outside schedule of {len(schedule.stages)}")
    out = []
    for spec in schedule.stages[stage]:
        if isinstance(spec, tuple):
            lo, hi = spec
            out.append(float(rng.uniform(lo, hi)))
        else:
            out.append(float(spec))
    return out[0], out[1]


def _packed_tokens(
    params: PolicyParams, groups: Sequence[Group], buckets: np.ndarray | None
) -> tuple[list[Rollout], np.ndarray, np.ndarray, np.ndarray]:
    """Every rollout of ``groups`` in order, the length of each response,
    and the buckets and tokens of all responses flattened in rollout order.
    ``buckets`` are used as given, or hashed from ``params`` when None."""
    rollouts = [ro for g in groups for ro in g.rollouts]
    lengths = np.fromiter(
        (len(ro.response) for ro in rollouts), dtype=np.int64, count=len(rollouts)
    )
    if buckets is None:
        return (rollouts, lengths, *context_buckets(params, rollouts))
    toks = np.fromiter(
        itertools.chain.from_iterable(ro.response for ro in rollouts),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    if buckets.shape != toks.shape:
        raise ValueError(f"{buckets.size} buckets for {toks.size} response tokens")
    return rollouts, lengths, buckets, toks


def response_logprobs(
    params: PolicyParams, groups: Sequence[Group], buckets: np.ndarray | None = None
) -> np.ndarray:
    """log pi(token | context) at temperature 1 of every response token of
    ``groups``, flattened in rollout order.

    Taken from the policy that sampled the groups, before any update, these
    are the old log-probs ``lp_old`` the objectives take.  ``buckets`` are
    the tokens' context buckets in the same order, as ``sample_groups``
    returns them; when None they are hashed from ``params``.
    """
    _, _, buckets, toks = _packed_tokens(params, groups, buckets)
    return log_softmax_at(params.logits[buckets], toks)[0]


def _rollout_advantages(groups: Sequence[Group], penalized: bool) -> np.ndarray:
    """Advantage of every rollout of ``groups``, in order: one row-wise
    ``shaped_advantages`` call per distinct group size, over those groups'
    rewards minus (if ``penalized``) their penalties."""
    by_size: dict[int, list[int]] = {}
    for i, g in enumerate(groups):
        by_size.setdefault(g.size, []).append(i)
    out: list[np.ndarray] = [np.empty(0)] * len(groups)
    for idx in by_size.values():
        rewards = np.array([groups[i].rewards for i in idx], dtype=np.float64)
        if penalized:
            penalties = np.array([groups[i].penalties for i in idx], dtype=np.float64)
            adv = shaped_advantages(rewards, penalties)
        else:
            adv = reward_advantages(rewards)
        for i, values in zip(idx, adv.values):
            out[i] = values
    return np.concatenate(out)


def _clipped_surrogate(
    packed: tuple[list[Rollout], np.ndarray, np.ndarray, np.ndarray],
    advantages: np.ndarray,
    weights: np.ndarray,
    params: PolicyParams,
    lp_old: np.ndarray,
    eps_low: float,
    eps_high: float,
    ref: RefModel | None = None,
    beta: float = 0.0,
) -> tuple[float, SparseGrad]:
    """J = sum_i w_i sum_t [min(r A_i, clip(r) A_i) - beta * K3] and dJ/dlogits
    over the ``_packed_tokens`` of a batch, with advantage A_i and weight
    w_i per rollout i and the old log-prob of every token in ``lp_old``.

    K3 is rho - ln rho - 1 with rho = pi_ref / pi_theta, and is left out
    when ``ref`` is None.  The gradient treats old log-probs as constants,
    and comes as a ``SparseGrad`` over the rows the batch's contexts touch.
    """
    rollouts, lengths, buckets, toks = packed
    if np.shape(lp_old) != toks.shape:
        raise ValueError(f"{np.size(lp_old)} old log-probs for {toks.size} response tokens")
    adv = np.repeat(advantages, lengths)
    w = np.repeat(weights, lengths)
    lp_new, probs = log_softmax_at(params.logits[buckets], toks)
    ratio = np.exp(lp_new - lp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
    terms = np.minimum(unclipped, clipped)
    # Gradient flows only where the unclipped branch attains the min; at a
    # tie the branches coincide so the choice is immaterial.
    coef = np.where(unclipped <= clipped, adv * ratio, 0.0) * w
    pos = np.arange(len(toks))  # the token each gradient term belongs to
    if ref is not None:
        ref_buckets, _ = context_buckets(ref.params, rollouts)
        lp_ref, _ = log_softmax_at(ref.params.logits[ref_buckets], toks)
        rho = np.exp(lp_ref - lp_new)
        terms = terms - beta * (rho - (lp_ref - lp_new) - 1.0)
        # d/dtheta of -beta*K3 contributes beta*(rho - 1) per token.  Scatter
        # rollout by rollout, each one's clipped terms before its K3 terms:
        # the order a per-rollout loop adds them in, so the sums do not
        # depend on how the batch is packed.
        rollout_of = np.repeat(np.arange(len(rollouts)), lengths)
        order = np.argsort(np.tile(rollout_of, 2), kind="stable")
        pos = np.tile(pos, 2)[order]
        coef = np.concatenate([coef, beta * (rho - 1.0) * w])[order]
    contrib = -probs[pos] * coef[:, None]
    contrib[np.arange(len(pos)), toks[pos]] += coef
    # Accumulate over the touched rows only, with the same additions in the
    # same order as into a dense table, so each touched entry is equal to
    # its dense value bit for bit.
    rows, row_of = np.unique(buckets, return_inverse=True)
    values = np.zeros((len(rows), params.vocab.size))
    np.add.at(values, row_of[pos], contrib)
    return float((w * terms).sum()), (rows, values)


def token_mean_objective(
    groups: Sequence[Group],
    params: PolicyParams,
    lp_old: np.ndarray,
    eps_low: float,
    eps_high: float,
    buckets: np.ndarray | None = None,
) -> tuple[float, SparseGrad]:
    """Token-normalized clipped surrogate with penalty-shaped advantages.

    J = (1 / sum_i |o_i|) * sum_i sum_t min(r A, clip(r) A) over every
    rollout of every group, so each token carries equal weight regardless
    of its rollout's length.  The ratio r is taken against ``lp_old``, the
    old log-probs from ``response_logprobs``, which the gradient treats as
    constants.  ``buckets`` are the tokens' context buckets as
    ``sample_groups`` returns them, hashed from ``params`` when None.
    Maximize J (or equivalently minimize -J).  Returns J and dJ/dlogits as
    ``(rows, values)`` over the touched rows.
    """
    if not groups:
        raise ValueError("empty batch")
    packed = _packed_tokens(params, groups, buckets)
    total_tokens = len(packed[3])
    if total_tokens == 0:
        raise ValueError("batch contains no tokens")
    advantages = _rollout_advantages(groups, penalized=True)
    weights = np.full(len(advantages), 1.0 / total_tokens)
    return _clipped_surrogate(
        packed, advantages, weights, params, lp_old, eps_low, eps_high
    )


def sequence_mean_objective(
    groups: Sequence[Group],
    params: PolicyParams,
    lp_old: np.ndarray,
    ref: RefModel,
    beta: float,
    eps: float,
) -> tuple[float, SparseGrad]:
    """Sequence-averaged clipped surrogate with a K3 KL penalty.

    Per-token terms are averaged within each rollout (1/|o_i|), then across
    the group (1/G), then across groups; each token additionally pays
    beta * (rho - ln rho - 1) with rho = pi_ref / pi_theta, whose
    dependence on the current policy is part of the gradient.  The ratio
    is taken against ``lp_old``, as in ``token_mean_objective``.  Returns J
    and dJ/dlogits as ``(rows, values)`` over the touched rows.
    """
    if not groups:
        raise ValueError("empty batch")
    packed = _packed_tokens(params, groups, None)
    weights = np.array(
        [
            1.0 / (len(groups) * g.size * len(ro.response)) if ro.response else 0.0
            for g in groups
            for ro in g.rollouts
        ]
    )
    advantages = _rollout_advantages(groups, penalized=False)
    return _clipped_surrogate(
        packed, advantages, weights, params, lp_old, eps, eps, ref, beta
    )
