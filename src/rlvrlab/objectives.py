"""Group-normalized advantages and clipped policy-gradient surrogates.

One clipped surrogate, evaluated over every token of a batch at once, with
two weightings: a token-mean form that normalizes by the total token count
of the batch (so long rollouts are not down-weighted) with decoupled clip
bounds, and a sequence-mean form that averages per rollout and per group
and adds a K3 KL penalty against a frozen reference.  Both return the
objective value together with its analytic gradient over the policy logits
table, checked elsewhere against finite differences.  A batch touches a
few hundred of the table's rows, so the gradient is row-sparse: those rows
and their values alone (a ``SparseGrad``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

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
    degenerate: bool  # all-zero because the group std fell below the floor


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


def shaped_advantages(
    rewards: Sequence[float], penalties: Sequence[float]
) -> AdvantageSet:
    """Normalize reward-minus-penalty within the group.

    Uses the population std; when it falls below the floor the advantages
    are all zero and the set is flagged degenerate.
    """
    r = np.asarray(rewards, dtype=np.float64)
    p = np.asarray(penalties, dtype=np.float64)
    if r.shape != p.shape:
        raise ValueError(f"length mismatch: {r.shape} vs {p.shape}")
    if r.size < 2:
        raise ValueError("need at least 2 rollouts to normalize")
    shaped = r - p
    std = float(shaped.std())
    if std < STD_FLOOR:
        return AdvantageSet(np.zeros_like(shaped), degenerate=True)
    return AdvantageSet((shaped - shaped.mean()) / std, degenerate=False)


def reward_advantages(rewards: Sequence[float]) -> AdvantageSet:
    """Group-normalized rewards: shaped_advantages with zero penalties."""
    r = np.asarray(rewards, dtype=np.float64)
    return shaped_advantages(r, np.zeros_like(r))


def filter_mixed_groups(groups: Sequence[Group]) -> list[Group]:
    """Keep only groups whose rollouts are neither all correct nor all wrong."""
    kept = []
    for g in groups:
        correct = int((g.rewards > 0.5).sum())
        if 0 < correct < g.size:
            kept.append(g)
    return kept


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


def _clipped_surrogate(
    batch: Sequence[tuple[Rollout, float, float]],
    params: PolicyParams,
    old_params: PolicyParams,
    eps_low: float,
    eps_high: float,
    ref: RefModel | None = None,
    beta: float = 0.0,
) -> tuple[float, SparseGrad]:
    """J = sum_i w_i sum_t [min(r A_i, clip(r) A_i) - beta * K3] and dJ/dlogits
    over a batch of (rollout i, advantage A_i, weight w_i).

    K3 is rho - ln rho - 1 with rho = pi_ref / pi_theta, and is left out
    when ``ref`` is None.  The gradient treats old log-probs as constants,
    and comes as a ``SparseGrad`` over the rows the batch's contexts touch.
    """
    rollouts = [ro for ro, _, _ in batch]
    lengths = np.array([len(ro.response) for ro in rollouts], dtype=np.int64)
    adv = np.repeat([a for _, a, _ in batch], lengths)
    w = np.repeat([wt for _, _, wt in batch], lengths)
    buckets, toks = context_buckets(params, rollouts)
    lp_new, probs = log_softmax_at(params.logits[buckets], toks)
    lp_old, _ = log_softmax_at(old_params.logits[buckets], toks)
    ratio = np.exp(lp_new - lp_old)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high) * adv
    terms = np.minimum(unclipped, clipped)
    # Gradient flows only where the unclipped branch attains the min; at a
    # tie the branches coincide so the choice is immaterial.
    coefs = [np.where(unclipped <= clipped, adv * ratio, 0.0) * w]
    if ref is not None:
        ref_buckets, _ = context_buckets(ref.params, rollouts)
        lp_ref, _ = log_softmax_at(ref.params.logits[ref_buckets], toks)
        rho = np.exp(lp_ref - lp_new)
        terms = terms - beta * (rho - (lp_ref - lp_new) - 1.0)
        # d/dtheta of -beta*K3 contributes beta*(rho - 1) per token.
        coefs.append(beta * (rho - 1.0) * w)
    # Scatter rollout by rollout, each one's clipped rows before its K3
    # rows: the order a per-rollout loop adds them in, so the sums do not
    # depend on how the batch is packed.
    rollout_of = np.repeat(np.arange(len(rollouts)), lengths)
    order = np.argsort(np.tile(rollout_of, len(coefs)), kind="stable")
    pos = np.tile(np.arange(len(toks)), len(coefs))[order]
    coef = np.concatenate(coefs)[order]
    contrib = -probs[pos] * coef[:, None]
    contrib[np.arange(len(pos)), toks[pos]] += coef
    # Accumulate over the touched rows only, with the same additions in the
    # same order as into a dense table, so each touched entry is equal to
    # its dense value bit for bit.
    rows, row_of = np.unique(buckets, return_inverse=True)
    values = np.zeros((len(rows), params.vocab.size))
    np.add.at(values, row_of[pos], contrib)
    return float((w * terms).sum()), (rows, values)


def _scored_rollouts(
    groups: Sequence[Group], advantages_of: Callable[[Group], AdvantageSet]
) -> list[tuple[Group, Rollout, float]]:
    """(group, rollout, advantage) of every rollout with a non-empty
    response; an empty one has no tokens and adds nothing."""
    return [
        (g, ro, float(a))
        for g in groups
        for a, ro in zip(advantages_of(g).values, g.rollouts)
        if ro.response
    ]


def token_mean_objective(
    groups: Sequence[Group],
    params: PolicyParams,
    old_params: PolicyParams,
    eps_low: float,
    eps_high: float,
) -> tuple[float, SparseGrad]:
    """Token-normalized clipped surrogate with penalty-shaped advantages.

    J = (1 / sum_i |o_i|) * sum_i sum_t min(r A, clip(r) A) over every
    rollout of every group, so each token carries equal weight regardless
    of its rollout's length.  The gradient treats old log-probs as
    constants.  Maximize J (or equivalently minimize -J).  Returns J and
    dJ/dlogits as ``(rows, values)`` over the touched rows.
    """
    if not groups:
        raise ValueError("empty batch")
    scored = _scored_rollouts(groups, lambda g: shaped_advantages(g.rewards, g.penalties))
    total_tokens = sum(len(ro.response) for _, ro, _ in scored)
    if total_tokens == 0:
        raise ValueError("batch contains no tokens")
    batch = [(ro, a, 1.0 / total_tokens) for _, ro, a in scored]
    return _clipped_surrogate(batch, params, old_params, eps_low, eps_high)


def sequence_mean_objective(
    groups: Sequence[Group],
    params: PolicyParams,
    old_params: PolicyParams,
    ref: RefModel,
    beta: float,
    eps: float,
) -> tuple[float, SparseGrad]:
    """Sequence-averaged clipped surrogate with a K3 KL penalty.

    Per-token terms are averaged within each rollout (1/|o_i|), then across
    the group (1/G), then across groups; each token additionally pays
    beta * (rho - ln rho - 1) with rho = pi_ref / pi_theta, whose
    dependence on the current policy is part of the gradient.  Returns J
    and dJ/dlogits as ``(rows, values)`` over the touched rows.
    """
    if not groups:
        raise ValueError("empty batch")
    scored = _scored_rollouts(groups, lambda g: reward_advantages(g.rewards))
    batch = [
        (ro, a, 1.0 / (len(groups) * g.size * len(ro.response))) for g, ro, a in scored
    ]
    return _clipped_surrogate(batch, params, old_params, eps, eps, ref, beta)
