"""Run settings: the training config, its stages, and the size caps.

``TrainConfig`` holds a training run, with one ``StagePlan`` per curriculum
stage and the ``tasks.TaskSpec`` it trains on.  Each class checks its
fields when it is built, so a bad value is a ``ValueError`` naming the
field wherever it comes from; ``from_dict`` reads one from JSON, which may
write an integer as a float or a tuple as a list.  The caps bound every
size a config or an ``evaluate`` call may ask for before anything is
allocated.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Union

import numpy as np

from .tasks import QUERY_LENGTH, TaskSpec

# A clip bound is either a point value or a uniform interval (lo, hi).
ClipSpec = Union[float, tuple[float, float]]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# Per field type ``_check_types`` checks: the test of a value and what its
# message asks for.  A bool is not a number, and a float must be finite.
_KINDS = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_real(v) and math.isfinite(v), "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _to_int(name: str, v) -> int:
    """``v`` as an int: an integer, or a float with an integral value (JSON
    may write 24 as 24.0).  A fraction, bool or string is a ``ValueError``."""
    if (isinstance(v, float) and v.is_integer()) or _is_int(v):
        return int(v)
    raise ValueError(f"{name} must be an integer, got {v!r}")


def _to_float(name: str, v) -> float:
    """``v`` as a float: any real number but a bool (JSON writes 1.0 as 1)."""
    if _is_real(v):
        return float(v)
    raise ValueError(f"{name} must be a finite number, got {v!r}")


def _to_clip_spec(name: str, v) -> ClipSpec:
    """``v`` as a clip spec: a number, or a pair of them (JSON writes a list
    for a tuple)."""
    if isinstance(v, (list, tuple)):
        if len(v) != 2:
            raise ValueError(f"{name} must be a number or a pair, got {v!r}")
        return _to_float(name, v[0]), _to_float(name, v[1])
    return _to_float(name, v)


def _coercions(cls) -> dict[str, Callable]:
    """Converters to the declared type of each field of ``cls`` declared as
    int, float or a clip spec; each rejects a value of another kind with a
    ``ValueError`` naming the field."""
    by_type = {"int": _to_int, "float": _to_float, "ClipSpec": _to_clip_spec}
    return {
        f.name: functools.partial(by_type[f.type], f.name)
        for f in fields(cls)
        if f.type in by_type
    }


def _check_types(obj) -> None:
    """Raise ``ValueError`` for a field of ``obj`` declared bool, int, float
    or str that holds anything else."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type in _KINDS and not _KINDS[f.type][0](v):
            raise ValueError(f"{f.name} must be {_KINDS[f.type][1]}, got {v!r}")


def _from_dict(cls, d, convert: dict[str, Callable]):
    """``cls`` from a dict of its fields, converting the values ``convert``
    names; a key that names no field is a ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    return cls(**{k: convert[k](v) if k in convert else v for k, v in d.items()})


@dataclass(frozen=True)
class StagePlan:
    """Length cap, clip specs and stopping rules for one curriculum stage.

    Each clip spec is a point value or a ``(lo, hi)`` interval, inside
    (0, 1); ``clip_bounds`` draws the stage's pair once."""

    max_response_len: int
    clip_low: ClipSpec = 0.2
    clip_high: ClipSpec = 0.2
    max_steps: int = 400
    saturation_window: int = 0  # 0 disables the saturation test
    saturation_threshold: float = 0.01

    def __post_init__(self) -> None:
        _check_types(self)
        if self.max_response_len < 1:
            raise ValueError("max_response_len must be >= 1")
        for spec in (self.clip_low, self.clip_high):
            ends = spec if isinstance(spec, tuple) else (spec, spec)
            for v in ends:
                if not 0.0 < v < 1.0:
                    raise ValueError(f"clip value {v} outside (0, 1)")
            if ends[0] > ends[1]:
                raise ValueError(f"clip interval {spec} has low end above high end")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.saturation_window < 0 or self.saturation_window == 1:
            raise ValueError("saturation_window must be 0 (off) or >= 2")
        if self.saturation_threshold <= 0:
            raise ValueError("saturation_threshold must be positive")

    def clip_bounds(self, rng: np.random.Generator) -> tuple[float, float]:
        """``(eps_low, eps_high)``: a point spec as it is, an interval drawn
        uniformly from ``rng``, the low bound first."""
        low, high = (
            float(rng.uniform(*spec)) if isinstance(spec, tuple) else float(spec)
            for spec in (self.clip_low, self.clip_high)
        )
        return low, high

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StagePlan":
        return _from_dict(cls, d, _coercions(cls))


def _stage_plans(v) -> tuple[StagePlan, ...]:
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"stages must be a list, got {type(v).__name__}")
    return tuple(StagePlan.from_dict(s) for s in v)


# Caps on the policy table a config may ask for.  MAX_BUCKETS rows of
# float64 logits over the 14-token vocabulary is a 117 MB table, the one a
# run holds: no stage keeps a copy, and saving or loading a checkpoint
# makes none.  ``init_policy``'s loop_boost walk over context prefixes
# takes about 2 s at MAX_CONTEXT_ORDER and grows about 15-fold per order
# above it.
MAX_BUCKETS = 2**20
MAX_CONTEXT_ORDER = 6

# Caps on what one ``evaluate`` call may ask for.  Each of its lockstep
# calls samples EVAL_CHUNK * k rollouts of up to max_len positions and,
# when no rollout stops early, peaks at about 32 bytes per position
# (history, token and bucket arrays) plus a block of noise with its gathered
# copy and, for the finiteness check, a copy of each table row it read.
# Over a 16,384-row table that is 16.9 MB at k 128 and max_len 256, and
# 64.5 MB at MAX_EVAL_K and MAX_EVAL_LEN.  When most rollouts stop early,
# the block that covers the rest of the call draws its noise in chunks of
# groups no larger than a BLOCK-wide block's or one group's, at most
# 14.7 MB at both caps: with the eos logit at +2 or +6, where that block
# starts at position 18 or 2, the call peaks at 54.3 or 52.4 MB.  The
# task set takes about 130 bytes per task at its peak, 13 MB at
# MAX_EVAL_TASKS (tracemalloc, numpy 2.4).
MAX_EVAL_K = 512
MAX_EVAL_LEN = 256
MAX_EVAL_TASKS = 100_000

# Tasks per lockstep call in ``evaluate``: bounds its arrays at
# EVAL_CHUNK * k rollouts instead of all n_tasks * k.
EVAL_CHUNK = 16
# Most chunks of batch_groups queries per lockstep call in
# ``collect_batch``: bounds its arrays, however many groups the filter drops.
COLLECT_CHUNKS = 8
# Rollout positions one lockstep call may hold, training or evaluating:
# what an ``evaluate`` call at both size caps holds.  A training config
# may ask for COLLECT_CHUNKS * batch_groups * group_size * its longest
# max_response_len positions at most.
MAX_SAMPLER_POSITIONS = EVAL_CHUNK * MAX_EVAL_K * MAX_EVAL_LEN


def check_eval_sizes(k: int, max_len: int, n_tasks: int) -> None:
    """Raise ``ValueError`` unless ``evaluate``'s k, max_len and n_tasks
    are each at least 1 and at most their cap, before anything is
    allocated."""
    for name, value, cap in (
        ("k", k, MAX_EVAL_K),
        ("max_len", max_len, MAX_EVAL_LEN),
        ("n_tasks", n_tasks, MAX_EVAL_TASKS),
    ):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
        if value > cap:
            raise ValueError(f"{name} must be <= {cap}, got {value}")


@dataclass(frozen=True)
class TrainConfig:
    """A training run.  ``task`` names one of the two task families, the
    initial policy is always ``init_policy``'s format scaffold, and
    ``eval_every > 0`` records avg@``eval_k`` over ``eval_tasks`` tasks
    every ``eval_every`` steps."""

    stages: tuple[StagePlan, ...] = ()
    task: TaskSpec = field(default_factory=TaskSpec)
    group_size: int = 16  # rollouts per query
    batch_groups: int = 32  # valid groups per update
    learning_rate: float = 0.05
    inner_iterations: int = 1  # strictly on-policy by default
    temperature: float = 1.0
    seed: int = 0
    context_order: int = 4
    buckets: int = 16384
    repetition_penalty: bool = True
    min_period: int = 1
    min_repeats: int = 3
    loop_boost: float = 0.0
    eval_every: int = 0
    eval_k: int = 32
    eval_tasks: int = 200

    def __post_init__(self) -> None:
        _check_types(self)
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.batch_groups < 1:
            raise ValueError("batch_groups must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.inner_iterations < 1:
            raise ValueError("inner_iterations must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.buckets < 1:
            raise ValueError("buckets must be >= 1")
        if self.buckets > MAX_BUCKETS:
            raise ValueError(f"buckets must be <= {MAX_BUCKETS}, got {self.buckets}")
        if self.context_order > MAX_CONTEXT_ORDER:
            raise ValueError(
                f"context_order must be <= {MAX_CONTEXT_ORDER}, got {self.context_order}"
            )
        if self.eval_every < 0 or self.eval_k < 1 or self.eval_tasks < 1:
            raise ValueError("eval_every must be >= 0, and eval_k and eval_tasks >= 1")
        if self.min_period < 1 or self.min_repeats < 1:
            raise ValueError("min_period and min_repeats must be >= 1")
        if self.context_order < QUERY_LENGTH:
            raise ValueError(
                "context_order must cover the whole query "
                f"({QUERY_LENGTH} tokens) or the task is unlearnable"
            )
        lengths = [s.max_response_len for s in self.stages]
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError("stage max_response_len must strictly increase")
        positions = (
            COLLECT_CHUNKS * self.batch_groups * self.group_size * max(lengths, default=0)
        )
        if positions > MAX_SAMPLER_POSITIONS:
            raise ValueError(
                f"{COLLECT_CHUNKS} * batch_groups * group_size * max_response_len "
                f"must be <= {MAX_SAMPLER_POSITIONS} sampler positions, got {positions}"
            )
        # Each stage evaluates at its own length cap.
        if self.eval_every and (
            self.eval_k > MAX_EVAL_K
            or max(lengths, default=1) > MAX_EVAL_LEN
            or self.eval_tasks > MAX_EVAL_TASKS
        ):
            raise ValueError(
                f"eval_every needs eval_k <= {MAX_EVAL_K}, eval_tasks <= "
                f"{MAX_EVAL_TASKS} and every max_response_len <= {MAX_EVAL_LEN}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        # Top-level floats stay as written, since the manifest's config hash
        # is taken over them; an integral float converts as in a stage.
        convert = {k: c for k, c in _coercions(cls).items() if c.func is _to_int}
        task = functools.partial(_from_dict, TaskSpec, convert=_coercions(TaskSpec))
        return _from_dict(cls, d, {**convert, "stages": _stage_plans, "task": task})
