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
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CHECKPOINT_VERSION = 1

# Polynomial rolling hash over the window; 64-bit wraparound keeps it
# platform independent.
_HASH_MULT = 1000003
_HASH_MASK = (1 << 64) - 1

# Positions of Gumbel noise drawn at once by ``sample_groups``: a short
# first block, since most rollouts end within two tokens, then longer
# blocks, capped to bound the noise array, for the stragglers.  The widths
# change no sampled value, only how often a generator is called.
FIRST_BLOCK = 2
BLOCK = 16
# Live rollouts at or below which a block after the first covers the rest
# of the call and is settled by fixed-point passes over all its positions,
# which pay per pass where the loop pays per position.  The count changes
# no sampled value, only how the tokens are found and how far a generator
# is advanced.
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
        if not np.isfinite(self.logits).all():
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

    Each iteration advances every live rollout by one token position.  The
    Gumbel noise is drawn in blocks of positions: the first block covers
    ``FIRST_BLOCK`` positions and every later one ``BLOCK``.  At the start
    of a block, ``rngs[g]`` of every query ``g`` with a live rollout draws
    one ``(block, group_size, vocab)`` array of uniforms, position-major,
    and rollout ``i`` takes row ``[t, i]`` of it at position ``t`` of the
    block.  So every value used at a position is the one a draw of a
    ``(group_size, vocab)`` block at each live position would give: a
    group's rollouts depend only on its query and its generator, never on
    which other queries share the call, and one query with one rollout
    uses exactly the stream of a token-at-a-time sampler.  Position ``t``
    of rollout ``i`` always reads offset ``(t * group_size + i) * vocab``
    of its group's stream, so the block widths change no sampled value.
    A generator is advanced past the whole block it drew, not just the
    positions its rollouts used.  Only the rows of the rollouts live at
    the start of a block are Gumbel-transformed: they are gathered into
    one copy, transformed once, and read from it for the whole block, so
    the rows of rollouts that have already ended are drawn but never
    transformed.

    A block after the first that starts with at most ``TAIL_LIVE`` live
    rollouts is the tail: it covers every position left, up to
    ``max_len``, so each group live at its start advances its generator
    to the end of the call, with draws of the same layout.  Once its noise
    is drawn, the tail's tokens are a fixed function of it, found by
    passes over all its unsettled positions at once (Jacobi iteration,
    arXiv 2305.10427): each pass hashes every window from the previous
    pass's tokens, gathers the rows, adds the same noise and takes the
    argmax, the loop's arithmetic bit for bit.  A pass's token is the
    loop's wherever its window was, so each pass settles at least one
    more position, and one that changes no token has settled them all.
    Where passes settle one position at a time, a chain in which each
    token sets the next, the tail goes on one position at a time.  Then
    each rollout is cut at its first eos; a token past it, or a row that
    only an unsettled guess read, reaches neither the arrays nor the
    finiteness check.  So the tail gives every token and bucket the loop
    would, in a few passes where stragglers would pay the loop's fixed
    cost at each of their positions.

    Returns two ``(len(queries) * group_size, max_len)`` arrays, the
    tokens and the buckets the sampler hashed.  Row ``g * group_size + i``
    belongs to rollout ``i`` of query ``g``: column ``t`` holds its token
    ``t`` and the bucket of the context before it, and both hold -1 past
    its last token.  A rollout ends at its first eos or at ``max_len``
    tokens; it is truncated when its last token is not eos.  Each bucket
    is ``bucket_of`` of the ``k`` tokens before its position, padded
    query included, so the objective need not hash the contexts again.

    The per-position work is kept to a few numpy calls on the live
    rollouts: the histories hold every token plus one, so a window's
    bucket is a dot product and a remainder with no conversion; the live
    rollouts and their noise rows are compacted only at a position where
    some rollout ended, and the loop stops once none is left; a division
    by a temperature of 1.0, which is exact, is skipped; and the table
    is checked for non-finite entries once per call, over each distinct
    row the call read, which the loop marks in one flag per table row.  A
    non-finite row no rollout reaches is never rejected; one that is
    reached raises ``ValueError``, as it would have at the position that
    read it.

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
    # the padded query tail, then its response, 0 past its end.  The
    # window before position t is rows t..t+k-1, so its bucket is one dot
    # product with the hash powers: ``bucket_of``'s hash, whose +1 on every
    # token the history holds and whose 64-bit mask is uint64 wraparound.
    # History and buckets are kept position-major, so that each position
    # reads and writes one contiguous row by ``take`` and ``put``.
    history = np.zeros((k + max_len, n), dtype=np.uint64)
    begin = np.full((len(queries), k), vocab.begin_marker, dtype=np.int64)
    tails = np.concatenate([begin, queries], axis=1)[:, -k:] + 1
    history[:k] = np.repeat(tails.T, group_size, axis=1)
    powers = _hash_terms(k)
    n_buckets = np.uint64(params.buckets)
    stop_tok = vocab.eos + 1
    logits = params.logits
    buckets = np.full((max_len, n), -1, dtype=np.int64)
    scaled = temperature != 1.0  # division by 1.0 is exact
    read = np.zeros(params.buckets, dtype=bool)  # the table rows read
    live = np.arange(n)
    start = 0
    while live.size and start < max_len:
        if start and live.size <= TAIL_LIVE:
            _settle_tail(
                params, temperature, rngs, group_size, history, buckets, read, live, start
            )
            break
        stop = min(max_len, start + (BLOCK if start else FIRST_BLOCK))
        width = stop - start
        # One block of noise per live group, in the order of the groups:
        # rollout i of a group reads row [t, i] of its group's block at
        # position start + t.  ``live`` only ever loses entries, so it
        # stays ascending and its groups are runs.
        group = live // group_size
        first = np.empty(live.size, dtype=bool)
        first[0] = True
        np.not_equal(group[1:], group[:-1], out=first[1:])
        groups = group[first]
        noise = np.empty((len(groups), width, group_size, vocab.size))
        for j, g in enumerate(groups.tolist()):
            rngs[g].random(out=noise[j])
        # Only the rollouts live now can read this block: gather their rows
        # into one (live, width, vocab) copy, which frees the whole block,
        # and Gumbel-transform it, -log(-log(u)) in place.  The j-th of
        # them reads row j * width + t of the flattened copy at position
        # start + t.
        slot = np.cumsum(first) - 1
        noise = noise[slot, :, live % group_size]
        _gumbel(noise)
        gumbel = noise.reshape(-1, vocab.size)
        row = np.arange(0, gumbel.shape[0], width)
        for t in range(start, stop):
            live_buckets = powers @ history[t : t + k].take(live, axis=1)
            live_buckets %= n_buckets
            live_buckets = live_buckets.view(np.int64)
            buckets[t].put(live, live_buckets)
            read[live_buckets] = True
            # Gumbel-max draw from softmax(row / temperature).
            scores = gumbel.take(row, axis=0)
            rows = logits.take(live_buckets, axis=0)
            if scaled:
                rows /= temperature
            scores += rows
            toks = scores.argmax(axis=1)
            toks += 1
            history[k + t].put(live, toks)
            going = toks != stop_tok
            count = np.count_nonzero(going)
            if count < live.size:
                live, row = live[going], row[going]
                if not count:
                    break
            row += 1
        start = stop
    buckets = np.ascontiguousarray(buckets.T)
    # One finiteness check, over each row the call read: a non-finite entry
    # can change which rows are read after it, never hide its own row.
    # ``take`` of the marked rows' indices copies them faster than a mask.
    if not np.isfinite(logits.take(np.flatnonzero(read), axis=0)).all():
        raise ValueError("logits table contains non-finite entries")
    return np.subtract(history[k:].T.view(np.int64), 1, order="C"), buckets


def _gumbel(uniforms: np.ndarray) -> None:
    """Turn uniforms into Gumbel noise, -log(-log(u)), in place."""
    np.log(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)
    np.log(uniforms, out=uniforms)
    np.negative(uniforms, out=uniforms)


def _settle_tail(
    params: PolicyParams,
    temperature: float,
    rngs: Sequence[np.random.Generator],
    group_size: int,
    history: np.ndarray,
    buckets: np.ndarray,
    read: np.ndarray,
    live: np.ndarray,
    start: int,
) -> None:
    """Sample positions ``start`` to the end of the call of the ``live``
    rollouts by fixed-point passes, and write their tokens and buckets
    into ``sample_groups``' arrays as its loop would have."""
    k, vocab = params.k, params.vocab
    width = buckets.shape[0] - start
    # Each live group in turn draws its (width, group_size, vocab) block of
    # uniforms into one buffer, and only its live rollouts' rows are kept,
    # position-major: the j-th of them reads noise[t, j] at position
    # start + t.  Its groups are runs of ``live``, which is ascending.
    noise = np.empty((width, live.size, vocab.size))
    block = np.empty((width, group_size, vocab.size))
    group, member = np.divmod(live, group_size)
    first = 0
    for end in [*(np.flatnonzero(np.diff(group)) + 1).tolist(), live.size]:
        rngs[group[first]].random(out=block)
        noise[:, first:end] = block[:, member[first:end]]
        first = end
    del block  # one group's noise, not needed by the passes
    _gumbel(noise)
    # The tokens (plus one, as in the history) before the block and, after
    # them, the latest guess; windows[t, j] is the window before position
    # start + t of rollout j.  A pass recomputes every position from lo on
    # from the previous pass's tokens.  Its token at a position is the
    # loop's once the tokens before it are, so the positions up to and
    # including the first one it changed are settled, and a pass that
    # changes nothing has settled them all.
    ctx = np.zeros((k + width, live.size), dtype=np.uint64)  # any guess will do
    ctx[:k] = history[start : start + k].take(live, axis=1)
    windows = np.ndarray(
        (width, live.size, k), np.uint64, ctx, strides=(*ctx.strides, ctx.strides[0])
    )
    powers = _hash_terms(k)
    n_buckets = np.uint64(params.buckets)
    at = np.empty((width, live.size), dtype=np.uint64)
    lo = slow = 0
    while lo < width:
        # A chain of tokens each set by the one before settles one position
        # a pass.  After two such passes in a row, not counting the first,
        # which always is one, go one position at a time, as the loop does.
        hi = width if slow < 2 else lo + 1
        np.matmul(windows[lo:hi], powers, out=at[lo:hi])
        at[lo:hi] %= n_buckets
        scores = params.logits.take(at[lo:hi].view(np.int64), axis=0)
        if temperature != 1.0:
            scores /= temperature
        scores += noise[lo:hi]
        toks = scores.argmax(axis=2)
        toks += 1
        if hi == lo + 1:  # its window is settled, and so its token
            ctx[k + lo] = toks[0]
            lo = hi
            continue
        guess = ctx[k + lo : k + hi]
        changed = np.flatnonzero((toks != guess.view(np.int64)).any(axis=1))
        guess[:] = toks
        step = int(changed[0]) + 1 if changed.size else hi - lo
        slow = slow + 1 if step == 1 and lo else 0
        lo += step
    # Cut each rollout after its first eos: only the positions up to it
    # reach the arrays and the read mark.
    ended = np.logical_or.accumulate(ctx[k:] == vocab.eos + 1, axis=0)
    kept = np.ones_like(ended)
    np.logical_not(ended[:-1], out=kept[1:])
    at = at.view(np.int64)
    history[k + start :, live] = np.where(kept, ctx[k:], 0)
    buckets[start:, live] = np.where(kept, at, -1)
    read[at[kept]] = True


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
    """Write the binary checkpoint: 5 LE uint32 header fields + f32 logits.

    Raises ``ValueError``, before the file is opened, when the table has an
    entry float32 cannot hold (past about 3.4e38), which ``load_checkpoint``
    would reject."""
    with np.errstate(over="ignore"):
        table = params.logits.astype("<f4")
    if not np.isfinite(table).all():
        raise ValueError(
            "logits table holds entries a float32 checkpoint cannot store "
            f"(largest magnitude {np.abs(params.logits).max():.3g})"
        )
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
        fh.write(table.tobytes(order="C"))


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
