"""Multi-stage on-policy training of the toy policy on synthetic tasks.

Each stage of a ``config.TrainConfig`` fixes a response-length cap and a
pair of clip bounds (drawn once per stage by ``StagePlan.clip_bounds``);
within a stage every step collects a batch of mixed-correctness rollout
groups with the context bucket of each of their tokens, takes the old
log-probs of those tokens from the policy before it moves, and ascends the
token-mean ``clipped_objective`` against them.  A stage ends when its step
budget runs out or when the mean response length saturates, and the cap
then grows.  The settings and the size caps are checked in ``config``.
A run holds one policy table: ``train`` hands the live policy to its
``stage_sink`` as each stage ends and keeps no copy of it.

Collection and evaluation work on the sampler's token arrays from end to
end: each chunk of groups is scored as arrays of rewards and repetition
scores, each row keyed by bytes and each distinct response looked up once,
and the rows of the groups that enter a batch are gathered by index into
one ``Batch``, which the objective takes as it is.  The per-group
generators come from ``group_generators``, which hashes their seeds once
per block of consecutive ids and caches the words.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import objectives, repetition, tasks, verifier
from .config import (
    COLLECT_CHUNKS,
    EVAL_CHUNK,
    MAX_CONTEXT_ORDER,
    StagePlan,
    TrainConfig,
    check_eval_sizes,
)
from .objectives import Batch, filter_mixed_groups, response_logprobs
from .policy import PolicyParams, bucket_of, sample_groups

DIGITS = tuple(range(10))


class CollectAbort(RuntimeError):
    """Raised when batch collection cannot find mixed-correctness groups."""


@dataclass(frozen=True)
class MetricsRecord:
    step: int
    stage: int
    mean_response_len: float
    mean_reward: float
    dropped_group_fraction: float
    mean_repetition: float
    objective: float
    grad_norm: float
    avg_at_k: Optional[float] = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.avg_at_k is None:
            del out["avg_at_k"]
        return out


@dataclass
class TrainResult:
    """The trained policy and every step's metrics record.  A run holds one
    table: a caller that wants each stage's table takes it from ``train``'s
    ``stage_sink`` as the stage ends."""

    policy: PolicyParams
    metrics: list[MetricsRecord]


# Constants of numpy's documented SeedSequence hash (pool of 4 uint32 words).
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


@functools.lru_cache(maxsize=8)
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` mod 2**32 for i < count, as a read-only
    ``(count, 1)`` uint64 column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    consts = np.array(out, dtype=np.uint64)[:, None]
    consts.setflags(write=False)
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values`` (uint64 holding
    32-bit words), row ``i`` at the ``k + i``-th hash constant."""
    x = values ^ consts[k : k + len(values)]
    x *= consts[k + 1 : k + len(values) + 1]
    x &= _MASK32
    x ^= x >> 16
    return x


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two arrays of 32-bit words."""
    out = x * _MIX_MULT_L - y * _MIX_MULT_R
    out &= _MASK32
    out ^= out >> 16
    return out


def _uint32_words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, least
    significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


@functools.cache
def _state_words_type():
    """A ``numpy.random.bit_generator.ISeedSequence`` that hands PCG64 a
    fixed ``generate_state(4, np.uint64)``, and the ``Generator`` and
    ``PCG64`` types.  numpy.random is imported here, on the first sampler
    call, not when rlvrlab is imported: loading it would lengthen the
    start of every command that never samples."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """The four uint64 words a ``SeedSequence`` generates for PCG64."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("holds the 4 uint64 words of a PCG64 seed only")
            return self.words

    return StateWords, Generator, PCG64


# Ids per block of ``group_generators``' cached seed words, and the most
# blocks held: at most GENERATOR_BLOCKS * 32 KiB of words.
GENERATOR_BLOCK = 1024
GENERATOR_BLOCKS = 32


@functools.lru_cache(maxsize=GENERATOR_BLOCKS)
def _block_words(seed: int, tag: int, block: int) -> np.ndarray:
    """The PCG64 seed words of ``default_rng([seed, tag, i])`` for the
    ``GENERATOR_BLOCK`` ids from ``block * GENERATOR_BLOCK`` on, as a
    read-only array with one row of 4 uint64 per id.

    ``default_rng`` runs numpy's ``SeedSequence`` hash over the 32-bit
    words of ``[seed, tag, i]`` and seeds a ``PCG64`` with 4 uint64 words
    of its state; here that hash runs over uint64 arrays masked to 32
    bits, one element per id.
    """
    n = GENERATOR_BLOCK
    head = _uint32_words(seed) + _uint32_words(tag)
    width = len(head) + 1
    entropy = np.zeros((max(width, 4), n), dtype=np.uint64)
    entropy[: len(head)] = np.array(head, dtype=np.uint64)[:, None]
    entropy[len(head)] = np.arange(block * n, (block + 1) * n)
    consts_a = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * max(0, width - 4))
    # Hash the first 4 words into the pool, then mix every pool word into
    # every other one, then each further word into all 4, consuming hash
    # constants in SeedSequence's order.
    pool = _hashmix(entropy[:4], consts_a, 0)
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(np.broadcast_to(pool[src], (3, n)), consts_a, k)
        pool[dst] = _mix(pool[dst], hashed)
        k += 3
    for word in entropy[4:width]:
        pool = _mix(pool, _hashmix(np.broadcast_to(word, (4, n)), consts_a, k))
        k += 4
    # generate_state(4, np.uint64): 8 words cycling over the pool, paired
    # little-endian into 4 uint64.
    consts_b = _hash_consts(_INIT_B, _MULT_B, 9)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], consts_b, 0)
    words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    words.setflags(write=False)
    return words


def group_generators(
    seed: int, tag: int, ids: Sequence[int]
) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, tag, i])`` for every ``i`` in
    ``ids``, each in the same state.

    The ``SeedSequence`` hash runs once per block of ``GENERATOR_BLOCK``
    consecutive ids (``_block_words``), and its words are cached for the
    last ``GENERATOR_BLOCKS`` blocks: query ids run consecutively through
    a training run, so most calls hash nothing and only build each id's
    ``PCG64``, whose words reach it through a small ``ISeedSequence`` so
    that PCG64's own seeding is unchanged.  Each id must be one 32-bit
    word: an id outside ``[0, 2**32)`` is a ``ValueError``.
    """
    ids = np.asarray(ids)
    bad = (ids < 0) | (ids > _MASK32)
    if bad.any():
        raise ValueError(f"generator id {ids[bad][0]} is outside [0, 2**32)")
    if seed < 0 or tag < 0:
        raise ValueError("seed and tag must be >= 0")
    seed, tag = int(seed), int(tag)
    state_words, generator, pcg64 = _state_words_type()
    out = []
    for i in ids.tolist():
        words = _block_words(seed, tag, i // GENERATOR_BLOCK)
        out.append(generator(pcg64(state_words(words[i % GENERATOR_BLOCK]))))
    return out


# The format scaffold of ``init_policy``: the logit bias toward answering
# with one digit and stopping, and eos's suppression everywhere else.
FORMAT_BIAS = 5.0
EOS_FLOOR = 2.0


def init_policy(config: TrainConfig) -> PolicyParams:
    """Initial logits table: the format scaffold.

    The scaffold makes the policy guess a uniformly random digit right
    after '=' and then stop, which puts initial accuracy at the chance
    level for the task's residues.  Outside the scaffolded windows eos is
    suppressed by ``EOS_FLOOR``, so rollouts that drift off the answer
    format run long and press against the stage length cap.  A positive
    ``loop_boost`` additionally makes repeating the previous digit
    attractive, seeding the degenerate loops the repetition penalty is
    meant to suppress.
    """
    params = PolicyParams.uniform(tasks.VOCAB, config.context_order, config.buckets)
    logits = params.logits
    logits[:, tasks.EOS] = -EOS_FLOOR
    k = config.context_order
    begin = tasks.VOCAB.begin_marker
    non_digit = [t for t in range(tasks.VOCAB.size) if t not in DIGITS]
    op = tasks.OPERATORS[config.task.family]
    for a, b in itertools.product(DIGITS, DIGITS):
        padded = (begin,) * k + (a, op, b, tasks.EQUALS)
        first = padded[-k:]
        logits[bucket_of(first, config.buckets), non_digit] = -FORMAT_BIAS
        for d in DIGITS:
            after = (padded + (d,))[-k:]
            row = bucket_of(after, config.buckets)
            logits[row, tasks.EOS] = FORMAT_BIAS
            if config.loop_boost > 0:
                logits[row, d] = config.loop_boost
    if config.loop_boost > 0 and k >= 2:
        # Loop-continuation windows (..., d, d) for every digit d.
        for prefix in np.ndindex(*(tasks.VOCAB.size + 1,) * (k - 2)):
            pre = tuple(int(x) for x in prefix)
            for d in DIGITS:
                logits[bucket_of(pre + (d, d), config.buckets), d] = config.loop_boost
    return params


def _check_vocab(params: PolicyParams) -> None:
    """Reject a policy whose token ids are not the tasks': its responses
    could not be decoded into answers, or would be scored as truncated."""
    if params.vocab != tasks.VOCAB:
        raise ValueError(
            f"vocabulary of {params.vocab.size} ids with eos {params.vocab.eos} "
            f"is not the tasks' {tasks.VOCAB.size} ids with eos {tasks.VOCAB.eos}"
        )


# A row key's byte for eos: keys hold each token plus one (see ``_score``).
_EOS_BYTE = tasks.EOS + 1
# A row key's bytes to the characters of their tokens, as
# ``tasks.decode_tokens`` writes them.
_KEY_CHARS = bytes.maketrans(
    bytes(range(1, len(tasks.CHARS) + 1)), tasks.CHARS.encode()
)


def _score(
    tokens: np.ndarray,
    golds: Sequence[str],
    reward_memo: dict,
    score_memo: Optional[dict] = None,
    config: Optional[TrainConfig] = None,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Rewards of the rollouts whose rows of the token array of
    ``sample_groups`` are ``tokens``, one group per gold answer in
    ``golds``, as a ``(len(golds), group_size)`` array; and, when
    ``score_memo`` is given, their raw repetition scores under ``config``
    shaped alike (else None).

    Each row is keyed by one vectorized conversion: its tokens plus one,
    as bytes.  The -1 padding becomes trailing NULs, which numpy drops, so
    a key is as long as its response, equal keys are equal responses, and
    the last byte is ``_EOS_BYTE`` exactly when the response ended at eos
    (else it was truncated).  One dict pass maps every row to its
    distinct ``(key, gold)`` pair, and only the distinct pairs reach the
    memos: ``reward_memo`` maps ``(key, gold)`` to the pair's reward and
    ``score_memo`` a key's content (without its eos) to its repetition
    score.  A truncated response scores 0 unverified, an empty content 0
    unscored.  An answer is decoded from its content with one
    ``bytes.translate``.  The repetition score only compares tokens for
    equality, so it is taken on the shifted bytes as they are.
    """
    if tokens.max(initial=0) >= 255:
        raise ValueError("row keys hold token ids below 255 only")
    group_size = len(tokens) // len(golds)
    keys = (tokens + 1).astype(np.uint8).view(f"S{tokens.shape[1]}").ravel().tolist()
    pairs: dict = {}
    slots = [
        pairs.setdefault(pair, len(pairs))
        for pair in zip(keys, (gold for gold in golds for _ in range(group_size)))
    ]
    rewards, scores = [], []
    for pair in pairs:
        key, gold = pair
        truncated = key[-1] != _EOS_BYTE
        content = key if truncated else key[:-1]
        if truncated:
            rewards.append(0.0)
        else:
            reward = reward_memo.get(pair)
            if reward is None:
                answer = content.translate(_KEY_CHARS).decode("latin-1")
                reward = reward_memo[pair] = verifier.reward(answer, gold)
            rewards.append(reward)
        if score_memo is not None:
            score = 0.0
            if content:
                score = score_memo.get(content)
                if score is None:
                    score = score_memo[content] = repetition.repetition_score(
                        content, config.min_period, config.min_repeats
                    )
            scores.append(score)
    index = np.array(slots).reshape(len(golds), group_size)
    return (
        np.array(rewards, dtype=np.float64)[index],
        None if score_memo is None else np.array(scores, dtype=np.float64)[index],
    )


@dataclass
class BatchStats:
    attempted_groups: int = 0
    invalid_groups: int = 0  # dropped by the mixed-correctness filter
    response_tokens: int = 0
    rollouts: int = 0
    reward_sum: float = 0.0
    repetition_sum: float = 0.0

    def absorb(
        self,
        tokens: np.ndarray,
        rewards: np.ndarray,
        scores: np.ndarray,
        penalty_on: bool,
    ) -> None:
        """Add a chunk of groups: their rows of the sampler's token array,
        and their rewards and raw repetition scores as ``(groups, G)``
        arrays."""
        self.attempted_groups += rewards.shape[0]
        self.rollouts += rewards.size
        self.response_tokens += int(np.count_nonzero(tokens >= 0))
        # Rewards are 0 or 1, so their sum is exact in any order.
        self.reward_sum += float(rewards.sum())
        # Summed group by group with the penalty on and score by score with
        # it off, the orders mean_repetition has always used, so that it
        # reproduces earlier runs bit for bit.
        for x in (scores.sum(axis=1) if penalty_on else scores.ravel()).tolist():
            self.repetition_sum += x


def collect_batch(
    params: PolicyParams,
    stage: StagePlan,
    config: TrainConfig,
    task_rng: np.random.Generator,
    query_counter: int,
    reward_memo: Optional[dict] = None,
    drop_hint: float = 0.0,
) -> tuple[Batch, BatchStats, int]:
    """Accumulate exactly ``batch_groups`` mixed-correctness groups, sampled
    from ``params``, as one ``Batch``: the groups' rows of the sampler's
    token and bucket arrays, gathered by index as each chunk is filtered,
    with each row's reward and penalty.  A policy whose vocabulary is not
    the tasks' is a ``ValueError``.

    Queries are consumed in chunks of ``batch_groups``.  ``drop_hint`` is
    the fraction of groups the filter is expected to drop (``train``
    passes the previous step's); each lockstep call samples as many whole
    chunks as that predicts the batch still needs, up to
    ``COLLECT_CHUNKS``.  The chunks are then scored and filtered in order,
    each as arrays of rewards and repetition scores, and collection stops
    after the chunk that fills the batch: the chunks after it were sampled
    but are never scored, and ``task_rng`` is rewound to where they began,
    so the returned batch, stats and query counter, and the task stream
    the next call sees, do not depend on the hint.  Every group draws its
    noise from its own ``[seed, 1, query index]`` generator, built by
    ``group_generators`` from words cached per block of ids, so a group's
    rollouts do not depend on the call it lands in.  Aborts when
    100 * batch_groups consecutive queries yield no valid group, which
    signals a collapsed policy or a degenerate task.

    ``reward_memo`` maps ``(row key, gold)`` to its reward, where the row
    key is the response's bytes as ``_score`` makes them, and is filled as
    rollouts are verified; ``train`` passes one for the whole run.  With
    ``None`` the memo lasts this call only.
    """
    _check_vocab(params)
    n, size = config.batch_groups, config.group_size
    abort_after = 100 * n
    n_valid = 0
    # Per scored chunk, the kept groups' rows: tokens, buckets, rewards and
    # penalties.
    parts: list[tuple[np.ndarray, ...]] = []
    stats = BatchStats()
    if reward_memo is None:
        reward_memo = {}
    # Repetition scores by content, for this call only: a run-long memo
    # would hold every distinct looping response of the run.
    score_memo: dict = {}
    consecutive_invalid = 0
    while n_valid < n:
        expected_valid = n * (1.0 - drop_hint)
        if expected_valid > 0:
            n_chunks = min(COLLECT_CHUNKS, math.ceil((n - n_valid) / expected_valid))
        else:
            n_chunks = COLLECT_CHUNKS
        rng_states, drawn, golds = [], [], []
        for _ in range(n_chunks):
            rng_states.append(task_rng.bit_generator.state)
            chunk_queries, chunk_golds = tasks.generate_tasks(config.task, task_rng, n)
            drawn.append(chunk_queries)
            golds += chunk_golds
        qids = np.arange(query_counter, query_counter + n_chunks * n)
        tokens, buckets = sample_groups(
            params,
            np.concatenate(drawn),
            size,
            stage.max_response_len,
            config.temperature,
            group_generators(config.seed, 1, qids),
        )
        for c in range(n_chunks):
            if n_valid >= n:
                # Give the unscored chunks back to the task stream.
                task_rng.bit_generator.state = rng_states[c]
                break
            query_counter += n
            chunk = tokens[c * n * size : (c + 1) * n * size]
            rewards, raw = _score(
                chunk, golds[c * n : (c + 1) * n], reward_memo, score_memo, config
            )
            stats.absorb(chunk, rewards, raw, config.repetition_penalty)
            kept = filter_mixed_groups(rewards)
            stats.invalid_groups += n - len(kept)
            # The longest run of invalid queries ends at the first kept group.
            if consecutive_invalid + (kept[0] if len(kept) else n) >= abort_after:
                raise CollectAbort(
                    f"no mixed-correctness group in {abort_after} consecutive "
                    "queries; the policy answers uniformly (all correct or all "
                    "incorrect) or the task is degenerate"
                )
            consecutive_invalid = n - 1 - kept[-1] if len(kept) else consecutive_invalid + n
            kept = kept[: n - n_valid]
            n_valid += len(kept)
            rows = ((c * n + kept)[:, None] * size + np.arange(size)).ravel()
            penalties = raw[kept].ravel()
            if not config.repetition_penalty:
                penalties = np.zeros(len(rows))
            parts.append((tokens[rows], buckets[rows], rewards[kept].ravel(), penalties))
    tokens, buckets, rewards, penalties = (np.concatenate(arrays) for arrays in zip(*parts))
    batch = Batch(tokens, buckets, rewards, penalties, np.full(n, size))
    return batch, stats, query_counter


def stage_saturated(lengths: Sequence[float], threshold: float = 0.01) -> bool:
    """True when mean response length stopped moving across the window.

    Compares the mean of the last half of the window against the mean of
    the first half; saturation is a relative change below ``threshold``.
    """
    w = len(lengths)
    if w < 2:
        raise ValueError("saturation window must hold at least 2 entries")
    half = w // 2
    first = float(np.mean(lengths[:half]))
    last = float(np.mean(lengths[-half:]))
    return abs(last - first) < threshold * max(abs(first), 1e-12)


def evaluate(
    params: PolicyParams,
    spec: tasks.TaskSpec,
    k: int,
    temperature: float,
    max_len: int,
    seed: int,
    n_tasks: int = 200,
) -> float:
    """avg@k: mean reward over k sampled attempts per task, over a fixed
    seed-derived evaluation set.

    The tasks come from their own ``[seed, 2]`` generator, drawn at once
    by ``generate_tasks``, and the attempts at task ``i`` from a ``[seed,
    4, i]`` generator, so the task set does not depend on the policy, on k
    or on the sampling.  The attempts are sampled ``EVAL_CHUNK`` tasks per
    lockstep call, with that chunk's generators from ``group_generators``,
    and scored as arrays by ``_score``, each distinct ``(response, gold)``
    pair verified once per call.  Sizes past ``check_eval_sizes``' caps,
    a policy whose vocabulary is not the tasks', and one whose context
    order is above ``MAX_CONTEXT_ORDER``, the most a config can train, are
    a ``ValueError``, raised before anything is allocated.
    """
    check_eval_sizes(k, max_len, n_tasks)
    _check_vocab(params)
    if params.k > MAX_CONTEXT_ORDER:
        raise ValueError(
            f"context order {params.k} is above {MAX_CONTEXT_ORDER}, "
            "the most a config can train"
        )
    task_rng = np.random.default_rng([seed, 2])
    queries, golds = tasks.generate_tasks(spec, task_rng, n_tasks)
    total = 0.0
    reward_memo: dict = {}  # by (row key, gold), for this call only
    for start in range(0, n_tasks, EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        tokens, _ = sample_groups(
            params,
            queries[chunk],
            k,
            max_len,
            temperature,
            group_generators(seed, 4, range(n_tasks)[chunk]),
        )
        rewards, _ = _score(tokens, golds[chunk], reward_memo)
        for hits in rewards.sum(axis=1).tolist():
            total += hits / k
    return total / n_tasks


def train(
    config: TrainConfig,
    metrics_sink: Optional[Callable[[MetricsRecord], None]] = None,
    stage_sink: Optional[Callable[[int, PolicyParams], None]] = None,
) -> TrainResult:
    """Run every stage and return the trained policy with its metrics log.

    ``metrics_sink`` is called with each step's record as it is made.
    ``stage_sink`` is called with the stage index and the live policy when
    each stage ends, after that stage's last record and before the next
    stage's first; no copy is made, so the sink must neither modify the
    policy nor keep it (a caller that wants the table copies it).
    """
    policy = init_policy(config)
    metrics: list[MetricsRecord] = []
    if not config.stages:
        return TrainResult(policy, metrics)

    task_rng = np.random.default_rng([config.seed, 0])
    query_counter = 0
    drop_hint = 0.0  # the previous step's dropped-group fraction
    global_step = 0
    # Rewards by (row key, gold) for the whole run: a reward depends on
    # nothing else, so each distinct pair is verified once.
    reward_memo: dict = {}
    for stage_idx, stage in enumerate(config.stages):
        eps_low, eps_high = stage.clip_bounds(
            np.random.default_rng([config.seed, 3, stage_idx])
        )
        window: list[float] = []
        for _ in range(stage.max_steps):
            batch, stats, query_counter = collect_batch(
                policy, stage, config, task_rng, query_counter, reward_memo, drop_hint
            )
            drop_hint = stats.invalid_groups / stats.attempted_groups
            correct = (batch.rewards > 0.5).reshape(-1, config.group_size).sum(axis=1)
            assert ((0 < correct) & (correct < config.group_size)).all()
            # Every iteration's ratio is against the policy that sampled the
            # batch.  With one iteration that is the policy the objective
            # reads (``lp_old`` None); with more, its log-probs are taken
            # once, before any update.
            lp_old = None
            if config.inner_iterations > 1:
                lp_old = response_logprobs(policy, batch)
            for _ in range(config.inner_iterations):
                objective, (rows, values) = objectives.clipped_objective(
                    batch, policy, lp_old, eps_low, eps_high
                )
                policy.logits[rows] += config.learning_rate * values
            global_step += 1
            avg_at_k = None
            if config.eval_every and global_step % config.eval_every == 0:
                avg_at_k = evaluate(
                    policy,
                    config.task,
                    config.eval_k,
                    config.temperature,
                    stage.max_response_len,
                    seed=config.seed,
                    n_tasks=config.eval_tasks,
                )
            record = MetricsRecord(
                step=global_step,
                stage=stage_idx,
                mean_response_len=stats.response_tokens / stats.rollouts,
                mean_reward=stats.reward_sum / stats.rollouts,
                dropped_group_fraction=drop_hint,
                mean_repetition=stats.repetition_sum / stats.rollouts,
                objective=objective,
                # A NumPy reduction, not BLAS: its sum order does not
                # depend on the BLAS thread count.
                grad_norm=float(np.sqrt(np.sum(values * values))),
                avg_at_k=avg_at_k,
            )
            metrics.append(record)
            if metrics_sink is not None:
                metrics_sink(record)
            if stage.saturation_window:
                window.append(record.mean_response_len)
                if len(window) > stage.saturation_window:
                    window.pop(0)
                if len(window) == stage.saturation_window and stage_saturated(
                    window, stage.saturation_threshold
                ):
                    break
        if stage_sink is not None:
            stage_sink(stage_idx, policy)
    return TrainResult(policy, metrics)
