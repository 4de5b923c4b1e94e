"""Tabular autoregressive categorical policy.

The policy conditions on the last ``k`` token ids (query included, short
prefixes padded with a reserved begin marker), hashes that window into a
fixed number of buckets, and keeps one logit row per bucket.  Sampling and
log-probabilities are explicit, and the softmax rows that come with the
log-probabilities give every objective built on top an analytic gradient
that can be checked against finite differences.  Sampled rollouts stay
arrays throughout: ``sample_groups`` returns one row of tokens and one of
context buckets per rollout, -1 past its end, and every later reader of
the rollouts takes those buckets rather than hashing a context again.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CHECKPOINT_VERSION = 2
# Table dtype of each checkpoint version ``load_checkpoint`` reads.  Version
# 1 stored a float32 copy of the table; it is still read, never written.
_CHECKPOINT_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

# Polynomial rolling hash over the window; 64-bit wraparound keeps it
# platform independent.
_HASH_MULT = 1000003
_HASH_MASK = (1 << 64) - 1

# Widths of the blocks of positions ``sample_groups`` samples at once: a
# short first block, since most rollouts end within two tokens, then
# longer blocks, capped to bound the noise drawn at once, for the
# stragglers.  A block after the first that starts with at most TAIL_LIVE
# live rollouts covers the rest of the call.  A block of that few
# rollouts is settled by fixed-point passes over all its positions, which
# pay per pass, and a wider one a position at a time.  None of the three
# changes a sampled value, only how often a generator is called, how far
# it is advanced and how the tokens are found.
FIRST_BLOCK = 2
BLOCK = 16
TAIL_LIVE = 32


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
        if self.logits.shape[0] < 1:
            raise ValueError("logits table must hold at least one bucket")
        if self.k < 1:
            raise ValueError("context order k must be positive")
        # The extremes, which a nan makes nan too: unlike
        # ``isfinite(logits).all()``, no table-sized temporary.
        if not (np.isfinite(self.logits.min()) and np.isfinite(self.logits.max())):
            raise ValueError("logits table contains non-finite entries")

    @property
    def buckets(self) -> int:
        return self.logits.shape[0]

    @classmethod
    def uniform(cls, vocab: Vocab, k: int, buckets: int) -> "PolicyParams":
        return cls(vocab, k, np.zeros((buckets, vocab.size)))

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.vocab, self.k, self.logits.copy())


def log_softmax_at(
    rows: np.ndarray, toks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax of each row of an ``(n, vocab)`` array at its token in
    ``toks``, and the softmax rows themselves."""
    # Row maxima as a reduction across rows: several times faster than
    # ``rows.max(axis=1)`` over short rows, with the same values (a tie of
    # +0.0 and -0.0 may give either zero, which can flip only the sign of
    # a zero log-prob).  The sum keeps its order: reordering a sum changes
    # its bits.
    m = np.ascontiguousarray(rows.T).max(axis=0)
    expd = np.exp(rows - m[:, None])
    denom = expd.sum(axis=1)
    logprobs = rows[np.arange(len(toks)), toks] - m - np.log(denom)
    return logprobs, expd / denom[:, None]


@functools.lru_cache(maxsize=8)
def _hash_terms(order: int) -> np.ndarray:
    """Read-only powers of the hash multiplier, mod 2**64, for a window of
    ``order`` tokens, highest first."""
    powers = np.array(
        [pow(_HASH_MULT, order - 1 - j, 1 << 64) for j in range(order)],
        dtype=np.uint64,
    )
    powers.setflags(write=False)
    return powers


def sample_groups(
    params: PolicyParams,
    queries: np.ndarray,
    group_size: int,
    max_len: int,
    temperature: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``group_size`` rollouts of every row of the ``(m, q)`` query
    array ``queries``, all in lockstep.  A query shorter than the array is
    left-padded with the begin marker, which changes no context.

    The rollouts are sampled in blocks of positions, each settled by
    ``_sample_block`` over the rollouts live at its start: ``FIRST_BLOCK``
    positions, then ``BLOCK`` at a time, then, once at most ``TAIL_LIVE``
    rollouts are live, every position left.  Each query ``g`` with a live
    rollout draws a block's noise from ``rngs[g]`` as one ``(block,
    group_size, vocab)`` array of uniforms, position-major, and rollout
    ``i`` takes row ``[t, i]`` of it at position ``t`` of the block.  So
    every value used at a position is the one a draw of a ``(group_size,
    vocab)`` block at each live position would give: a group's rollouts
    depend only on its query and its generator, never on which other
    queries share the call, and one query with one rollout uses exactly
    the stream of a token-at-a-time sampler.  Position ``t`` of rollout
    ``i`` always reads offset ``(t * group_size + i) * vocab`` of its
    group's stream, so the block widths change no sampled value.  A
    generator is advanced past the whole block it drew, and only the live
    rollouts' rows of it are Gumbel-transformed.

    Returns two ``(len(queries) * group_size, max_len)`` arrays, the
    tokens and the buckets the sampler hashed.  Row ``g * group_size + i``
    belongs to rollout ``i`` of query ``g``: column ``t`` holds its token
    ``t`` and the bucket of the context before it, and both hold -1 past
    its last token.  A rollout ends at its first eos or at ``max_len``
    tokens; it is truncated when its last token is not eos.  Each bucket
    is ``bucket_of`` of the ``k`` tokens before its position, padded
    query included, so the objective need not hash the contexts again.

    The table is checked for non-finite entries once per call, over each
    distinct row a settled position read, which the blocks mark in one
    flag per table row.  A non-finite row no rollout reaches is never
    rejected; one that is reached raises ``ValueError``, as it would have
    at the position that read it.

    Temperature scales the sampling distribution only.  The sampler returns
    tokens, not log-probabilities: the clipped objective takes the old
    log-probs at temperature 1, which is what its likelihood ratio is
    defined on.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if not 0 < temperature < math.inf:  # also rejects nan
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if queries.ndim != 2:
        raise ValueError(f"queries must be a 2-D array, got shape {queries.shape}")
    if len(rngs) != len(queries):
        raise ValueError(f"{len(queries)} queries but {len(rngs)} generators")

    vocab, k = params.vocab, params.k
    n = len(queries) * group_size
    # Column r holds rollout r's context history, every token plus one:
    # the padded query tail, then its response, 0 past its end.  History
    # and buckets are kept position-major, so that the windows before a
    # block are contiguous rows.
    history = np.zeros((k + max_len, n), dtype=np.uint64)
    begin = np.full((len(queries), k), vocab.begin_marker, dtype=np.int64)
    tails = np.concatenate([begin, queries], axis=1)[:, -k:] + 1
    history[:k] = np.repeat(tails.T, group_size, axis=1)
    buckets = np.full((max_len, n), -1, dtype=np.int64)
    # The table rows read, and a spare flag that -1, no row, marks.
    read = np.zeros(params.buckets + 1, dtype=bool)
    live = np.arange(n)
    start = 0
    while live.size and start < max_len:
        if start and live.size <= TAIL_LIVE:
            stop = max_len
        else:
            stop = min(max_len, start + (BLOCK if start else FIRST_BLOCK))
        live = _sample_block(
            params, temperature, rngs, group_size, history, buckets, read, live, start, stop
        )
        start = stop
    buckets = np.ascontiguousarray(buckets.T)
    # One finiteness check, over each row the call read: a non-finite entry
    # can change which rows are read after it, never hide its own row.
    # ``take`` of the marked rows' indices copies them faster than a mask.
    if not np.isfinite(params.logits.take(np.flatnonzero(read[:-1]), axis=0)).all():
        raise ValueError("logits table contains non-finite entries")
    return np.subtract(history[k:].T.view(np.int64), 1, order="C"), buckets


def _sample_block(
    params: PolicyParams,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    group_size: int,
    history: np.ndarray,
    buckets: np.ndarray,
    read: np.ndarray,
    live: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Sample positions ``start`` to ``stop`` of the ``live`` rollouts,
    write their tokens and buckets into ``sample_groups``' arrays, mark the
    table rows they read, and return the rollouts still live after it.

    Once the block's noise is drawn, its tokens are a fixed function of
    it.  A block of at most ``TAIL_LIVE`` rollouts finds them by passes
    over all its unsettled positions at once (Jacobi iteration, arXiv
    2305.10427): each pass hashes every window from the previous pass's
    tokens, gathers the rows, adds the same noise and takes the argmax.
    A pass's token is the settled one wherever its window was, so each
    pass settles at least one more position, and one that changes no
    token has settled them all.  Where passes settle one position at a
    time, a chain in which each token sets the next, and in a wider block
    from its first position, the block goes one position at a time over
    the rollouts not yet ended.  A token past a rollout's first eos, or a
    row that only an unsettled guess read, reaches neither the arrays nor
    the read mark, and so not the finiteness check.
    """
    k, vocab_size, stop_tok = params.k, params.vocab.size, params.vocab.eos + 1
    width = stop - start
    # ``live`` only ever loses entries, so it stays ascending and its groups
    # are runs.  The groups draw in chunks of at most BLOCK positions per
    # live group, or one group's block if that is more, so a long block
    # holds no more uniforms at once than a BLOCK-wide one.  Row t *
    # group_size + i of a group's block, flattened, is rollout i's at
    # position t; the j-th live rollout reads row [t, j] of ``noise``.
    group, member = np.divmod(live, group_size)
    first = np.empty(live.size, dtype=bool)
    first[0] = True
    np.not_equal(group[1:], group[:-1], out=first[1:])
    slot = np.cumsum(first) - 1  # the index of the rollout's group among them
    groups = group[first].tolist()
    bounds = [*np.flatnonzero(first).tolist(), live.size]
    per = max(1, len(groups) * BLOCK // width)
    chunk = np.empty((min(per, len(groups)), width, group_size, vocab_size))
    offsets = np.arange(0, width * group_size, group_size)[:, None]
    pieces = []
    for a in range(0, len(groups), per):
        b = min(a + per, len(groups))
        for j, g in enumerate(groups[a:b]):
            rngs[g].random(out=chunk[j])
        rows = slice(bounds[a], bounds[b])
        index = offsets + ((slot[rows] - a) * (width * group_size) + member[rows])
        pieces.append(chunk.reshape(-1, vocab_size).take(index, axis=0))
    del chunk
    noise = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    _gumbel(noise)
    # The tokens (plus one, as in the history) before the block and, after
    # them, its own, 0 where there is none.  windows[t, j] is the window
    # before position start + t of rollout j, so its bucket is one dot
    # product with the hash powers: ``bucket_of``'s hash, whose +1 on every
    # token the history holds and whose 64-bit mask is uint64 wraparound.
    ctx = np.zeros((k + width, live.size), dtype=np.uint64)
    ctx[:k] = history[start : start + k].take(live, axis=1)
    windows = np.ndarray(
        (width, live.size, k), np.uint64, ctx, strides=(*ctx.strides, ctx.strides[0])
    )
    powers = _hash_terms(k)
    n_buckets = np.uint64(params.buckets)
    at = np.full((width, live.size), -1)  # the buckets, -1 where there is none
    going = np.arange(live.size)  # the rollouts not yet ended
    lo = slow = 0
    if live.size <= TAIL_LIVE:
        # Each pass recomputes every position from lo on from the previous
        # pass's tokens, 0 at first: any guess will do.  The positions up to
        # and including the first one whose token it changed are settled.
        # After two passes in a row, not counting the first, which always
        # is one, that settled a single position, go one at a time.
        while lo < width and slow < 2:
            hashed = at[lo:].view(np.uint64)
            np.matmul(windows[lo:], powers, out=hashed)
            hashed %= n_buckets
            toks = _gumbel_max(params, temperature, at[lo:], noise[lo:])
            guess = ctx[k + lo :]
            changed = np.flatnonzero((toks != guess.view(np.int64)).any(axis=1))
            guess[:] = toks
            step = int(changed[0]) + 1 if changed.size else width - lo
            slow = slow + 1 if step == 1 and lo else 0
            lo += step
        # Clear the guesses from lo on and the tokens past each rollout's
        # first eos.
        ended = np.logical_or.accumulate(ctx[k : k + lo] == stop_tok, axis=0)
        ctx[k + 1 : k + lo][ended[:-1]] = 0
        at[1:lo][ended[:-1]] = -1
        ctx[k + lo :] = 0
        at[lo:] = -1
        going = np.flatnonzero(~ended[-1])
    while lo < width and going.size:  # position lo, whose windows are settled
        at_lo = powers @ ctx[lo : lo + k].take(going, axis=1)
        at_lo %= n_buckets
        at_lo = at_lo.view(np.int64)
        at[lo].put(going, at_lo)
        toks = _gumbel_max(params, temperature, at_lo, noise[lo].take(going, axis=0))
        ctx[k + lo].put(going, toks)
        going = going[toks != stop_tok]
        lo += 1
    history[k + start : k + stop, live] = ctx[k:]
    buckets[start:stop, live] = at
    read[at] = True  # -1 marks the spare last flag
    return live[going]


def _gumbel(uniforms: np.ndarray) -> None:
    """Turn uniforms into Gumbel noise, -log(-log(u)), in place."""
    np.log(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)
    np.log(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)


def _gumbel_max(
    params: PolicyParams, temperature: float, at: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Each token plus one of a Gumbel-max draw from softmax(row /
    temperature), for the table row of each bucket in ``at`` and its row of
    ``noise``."""
    scores = params.logits.take(at, axis=0)
    if temperature != 1.0:  # division by 1.0 is exact
        with np.errstate(over="ignore"):
            scores /= temperature
        # A row whose largest entry overflowed ties at +-inf, where the noise
        # cannot break the tie.  Such a row divides each entry's gap to its
        # largest instead, so that entry scores 0 and only others overflow.
        over = np.isinf(scores.max(axis=-1))
        if over.any():
            rows = params.logits.take(at[over], axis=0)
            with np.errstate(over="ignore"):
                rows -= rows.max(axis=-1, keepdims=True)
                rows /= temperature
            scores[over] = rows
    scores += noise
    toks = scores.argmax(axis=-1)
    toks += 1
    return toks


def sample_response(
    params: PolicyParams,
    query: tuple[int, ...],
    max_len: int,
    temperature: float,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Sample one response until eos or ``max_len`` tokens: the one-query,
    one-rollout case of ``sample_groups``.  It is truncated exactly when
    its last token is not eos."""
    queries = np.array([query], dtype=np.int64)
    tokens, _ = sample_groups(params, queries, 1, max_len, temperature, [rng])
    return tuple(tokens[0][tokens[0] >= 0].tolist())


def save_checkpoint(params: PolicyParams, path: str) -> None:
    """Write the binary checkpoint: 5 LE uint32 header fields + f64 logits."""
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
        # No copy of the table on a little-endian machine.
        params.logits.astype("<f8", copy=False).tofile(fh)


def load_checkpoint(path: str) -> PolicyParams:
    """Read a checkpoint of any version in ``_CHECKPOINT_DTYPES``; the header
    and the file size are checked before the table is read."""
    with open(path, "rb") as fh:
        raw = fh.read(20)
        if len(raw) < 20:
            raise ValueError(f"checkpoint too short: {len(raw)} bytes")
        version, k, buckets, vocab_size, eos = struct.unpack("<5I", raw)
        if version not in _CHECKPOINT_DTYPES:
            raise ValueError(f"unsupported checkpoint version {version}")
        dtype = _CHECKPOINT_DTYPES[version]
        expected = 20 + dtype.itemsize * buckets * vocab_size
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(
                f"checkpoint size mismatch: expected {expected} bytes, got {size}"
            )
        table = np.fromfile(fh, dtype, count=buckets * vocab_size)
    # Only a version-1 (float32) table is converted; a version-2 table is
    # the array read.
    table = table.astype(np.float64, copy=False).reshape(buckets, vocab_size)
    return PolicyParams(Vocab(vocab_size, eos), k, table)
