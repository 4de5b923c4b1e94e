"""Tabular autoregressive categorical policy.

The policy conditions on the last ``k`` token ids (query included, short
prefixes padded with a reserved begin marker), hashes that window into a
fixed number of buckets, and keeps one logit row per bucket.  Sampling and
log-probabilities are explicit, and the softmax rows that come with the
log-probabilities give every objective built on top an analytic gradient
that can be checked against finite differences.
"""

from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CHECKPOINT_VERSION = 1

DEFAULT_ORDER = 3
DEFAULT_BUCKETS = 4096

# Polynomial rolling hash over the window; 64-bit wraparound keeps it
# platform independent.
_HASH_MULT = 1000003
_HASH_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Vocab:
    """Token alphabet of ``size`` ids, one of which terminates responses."""

    size: int
    eos: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")
        if not 0 <= self.eos < self.size:
            raise ValueError(f"eos id {self.eos} outside vocab of size {self.size}")

    @property
    def begin_marker(self) -> int:
        # Reserved id used only for padding short context windows; it is
        # never a sampleable token, so vocab.size itself is safe.
        return self.size


def bucket_of(window: tuple[int, ...], buckets: int) -> int:
    """Hash a context window into a logits-table row index."""
    h = 0
    for tok in window:
        h = (h * _HASH_MULT + int(tok) + 1) & _HASH_MASK
    return h % buckets


@dataclass
class PolicyParams:
    """Dense logits table indexed by (context bucket, token id)."""

    vocab: Vocab
    k: int
    logits: np.ndarray  # shape (buckets, vocab.size), float64

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 2 or self.logits.shape[1] != self.vocab.size:
            raise ValueError(
                f"logits must have shape (buckets, {self.vocab.size}), "
                f"got {self.logits.shape}"
            )
        if self.k < 1:
            raise ValueError("context order k must be positive")
        if not np.isfinite(self.logits).all():
            raise ValueError("logits table contains non-finite entries")

    @property
    def buckets(self) -> int:
        return self.logits.shape[0]

    @classmethod
    def uniform(
        cls, vocab: Vocab, k: int = DEFAULT_ORDER, buckets: int = DEFAULT_BUCKETS
    ) -> "PolicyParams":
        return cls(vocab, k, np.zeros((buckets, vocab.size)))

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.vocab, self.k, self.logits.copy())


@dataclass(frozen=True)
class Rollout:
    """One sampled response to a query."""

    query: tuple[int, ...]
    response: tuple[int, ...]
    truncated: bool  # hit the length cap without emitting eos

    def content(self, eos: int) -> tuple[int, ...]:
        """Response tokens without the trailing eos, if any."""
        if self.response and self.response[-1] == eos:
            return self.response[:-1]
        return self.response


def log_softmax_at(
    rows: np.ndarray, toks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax of each row of an ``(n, vocab)`` array at its token in
    ``toks``, and the softmax rows themselves."""
    m = rows.max(axis=1)
    expd = np.exp(rows - m[:, None])
    denom = expd.sum(axis=1)
    logprobs = rows[np.arange(len(toks)), toks] - m - np.log(denom)
    return logprobs, expd / denom[:, None]


@functools.lru_cache(maxsize=8)
def _hash_powers(order: int) -> np.ndarray:
    """Read-only powers of the hash multiplier, mod 2**64, for a window of
    ``order`` tokens, highest first."""
    powers = np.array(
        [pow(_HASH_MULT, order - 1 - j, 1 << 64) for j in range(order)],
        dtype=np.uint64,
    )
    powers.setflags(write=False)
    return powers


def window_buckets(windows: np.ndarray, buckets: int) -> np.ndarray:
    """``bucket_of`` of every row of an ``(n, order)`` array of windows.

    The same polynomial hash, expanded into a dot product with the powers
    of the multiplier; uint64 arithmetic wraps like the 64-bit mask.
    """
    windows = np.asarray(windows, dtype=np.uint64)
    h = ((windows + np.uint64(1)) * _hash_powers(windows.shape[1])).sum(
        axis=1, dtype=np.uint64
    )
    return (h % np.uint64(buckets)).astype(np.int64)


def sample_groups(
    params: PolicyParams,
    queries: Sequence[tuple[int, ...]],
    group_size: int,
    max_len: int,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    greedy: bool = False,
) -> tuple[list[tuple[Rollout, ...]], np.ndarray]:
    """Sample ``group_size`` rollouts of every query, all in lockstep.

    Each iteration advances every live rollout by one token position.  At
    each position where some rollout of query ``g`` is still live,
    ``rngs[g]`` draws one ``(group_size, vocab)`` block of uniforms, and
    rollout ``i`` takes row ``i`` of it as Gumbel noise.  A group's
    rollouts thus depend only on its query and its generator, never on
    which other queries share the call, and one query with one rollout
    draws exactly the stream of a token-at-a-time sampler.

    Returns the groups of rollouts and the ``(len(queries) * group_size,
    max_len)`` array of the buckets it hashed.  Row ``g * group_size + i``
    belongs to rollout ``i`` of query ``g``: column ``t`` holds the bucket
    of the context before its token ``t``, and -1 past its last token.
    Its non-negative entries, in row-major order, are ``context_buckets``
    of the rollouts, so the objectives need not hash the contexts again.

    Temperature scales the sampling distribution only.  The sampler returns
    tokens, not log-probabilities: the surrogate objectives take the old
    log-probs at temperature 1, which is what their likelihood ratio is
    defined on.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if temperature <= 0:
        raise ValueError("temperature must be positive (use greedy=True for argmax)")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if len(rngs) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(rngs)} generators")

    vocab, k = params.vocab, params.k
    n = len(queries) * group_size
    # Row r holds rollout r's context history: the padded query tail, then
    # its response; the window before position t is columns t..t+k-1.
    history = np.empty((n, k + max_len), dtype=np.int64)
    for g, query in enumerate(queries):
        block = slice(g * group_size, (g + 1) * group_size)
        history[block, :k] = ((vocab.begin_marker,) * k + tuple(query))[-k:]
    lengths = np.full(n, max_len)
    buckets = np.full((n, max_len), -1, dtype=np.int64)
    noise = np.empty((len(queries), group_size, vocab.size))
    live = np.arange(n)
    for t in range(max_len):
        live_buckets = window_buckets(history[live, t : t + k], params.buckets)
        buckets[live, t] = live_buckets
        rows = params.logits[live_buckets]
        if not np.isfinite(rows).all():
            raise ValueError("logits table contains non-finite entries")
        if greedy:
            toks = rows.argmax(axis=1)
        else:
            # Gumbel-max draw from softmax(row / temperature).
            live_groups = np.bincount(live // group_size, minlength=len(queries))
            for g in np.flatnonzero(live_groups):
                rngs[g].random(out=noise[g])
            gumbel = -np.log(-np.log(noise.reshape(n, vocab.size)[live]))
            toks = np.argmax(rows / temperature + gumbel, axis=1)
        history[live, k + t] = toks
        stopped = toks == vocab.eos
        lengths[live[stopped]] = t + 1
        live = live[~stopped]
        if not live.size:
            break

    responses = history[:, k:].tolist()
    out = []
    for g, query in enumerate(queries):
        query = tuple(query)
        group = []
        for r in range(g * group_size, (g + 1) * group_size):
            length = int(lengths[r])
            response = tuple(responses[r][:length])
            group.append(
                Rollout(
                    query=query,
                    response=response,
                    # Sampling stops at eos, so only a truncated one lacks it.
                    truncated=response[-1] != vocab.eos,
                )
            )
        out.append(tuple(group))
    return out, buckets


def sample_response(
    params: PolicyParams,
    query: tuple[int, ...],
    max_len: int,
    temperature: float,
    rng: np.random.Generator,
    greedy: bool = False,
) -> Rollout:
    """Sample one rollout until eos or ``max_len`` tokens: the
    one-query, one-rollout case of ``sample_groups``."""
    groups, _ = sample_groups(params, [query], 1, max_len, temperature, [rng], greedy)
    return groups[0][0]


def context_buckets(
    params: PolicyParams, rollouts: Sequence[Rollout]
) -> tuple[np.ndarray, np.ndarray]:
    """Bucket of the context before every response token of ``rollouts``,
    and that token, both flattened in rollout order.

    Row ``r`` of the history holds rollout ``r``'s padded query tail, then
    its response, as in ``sample_groups``; the window before response
    position ``t`` is columns ``t .. t + k - 1``.
    """
    k = params.k
    lengths = np.array([len(ro.response) for ro in rollouts], dtype=np.int64)
    width = int(lengths.max(initial=0))
    filled = np.arange(width) < lengths[:, None]
    toks = np.fromiter(
        itertools.chain.from_iterable(ro.response for ro in rollouts),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    history = np.zeros((len(rollouts), k + width), dtype=np.int64)
    begin = (params.vocab.begin_marker,) * k
    history[:, :k] = np.array(
        [(begin + tuple(ro.query))[-k:] for ro in rollouts], dtype=np.int64
    ).reshape(-1, k)
    history[:, k:][filled] = toks
    windows = np.lib.stride_tricks.sliding_window_view(history, k, axis=1)
    return window_buckets(windows[:, :width][filled], params.buckets), toks


def save_checkpoint(params: PolicyParams, path: str) -> None:
    """Write the binary checkpoint: 5 LE uint32 header fields + f32 logits."""
    header = struct.pack(
        "<5I",
        CHECKPOINT_VERSION,
        params.k,
        params.buckets,
        params.vocab.size,
        params.vocab.eos,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(params.logits.astype("<f4").tobytes(order="C"))


def load_checkpoint(path: str) -> PolicyParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 20:
        raise ValueError(f"checkpoint too short: {len(raw)} bytes")
    version, k, buckets, vocab_size, eos = struct.unpack("<5I", raw[:20])
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    expected = 20 + 4 * buckets * vocab_size
    if len(raw) != expected:
        raise ValueError(
            f"checkpoint size mismatch: expected {expected} bytes, got {len(raw)}"
        )
    logits = np.frombuffer(raw[20:], dtype="<f4").reshape(buckets, vocab_size)
    return PolicyParams(Vocab(vocab_size, eos), k, logits.astype(np.float64))
