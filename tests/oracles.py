"""Reference implementations the tests check the library against.

Each one computes what a library function computes by a plainer route (one
token or one rollout at a time, without the library's packing, or by the
algorithm the library used before), so that a test can require equal
results.  At the end are the helpers that left the library because nothing
in the program called them; their tests still run against them here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from rlvrlab import tasks
from rlvrlab.curation import ProblemRecord
from rlvrlab.objectives import Batch, shaped_advantages
from rlvrlab.policy import PolicyParams, bucket_of, sample_groups, sample_response
from rlvrlab.repetition import repetition_score
from rlvrlab.trainer import BatchStats
from rlvrlab.verifier import reward


@dataclass(frozen=True)
class Rollout:
    """One sampled response to a query."""

    query: tuple[int, ...]
    response: tuple[int, ...]
    truncated: bool  # hit the length cap without emitting eos


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


def response_of(row) -> tuple[int, ...]:
    """The response in a row of the token array of ``sample_groups``, as a
    list or tuple: its tokens before the first -1.  Sampling stops at eos,
    so the response is truncated exactly when its last token is not eos."""
    return tuple(row[: row.index(-1)] if row[-1] == -1 else row)


def rollouts_from(query, tokens: np.ndarray, eos: int) -> tuple[Rollout, ...]:
    """The rollouts of ``query`` whose rows of the token array of
    ``sample_groups`` are ``tokens``."""
    out = []
    for row in tokens.tolist():
        response = response_of(row)
        out.append(Rollout(tuple(query), response, truncated=response[-1] != eos))
    return tuple(out)


def generate_task(
    spec: tasks.TaskSpec, rng: np.random.Generator
) -> tuple[tuple[int, ...], str]:
    """One task from two scalar draws, a then b: the per-task form of
    ``tasks.generate_tasks``."""
    a, b = int(rng.integers(0, 10)), int(rng.integers(0, 10))
    answer = a + b if spec.family == "modular-add" else a * b
    return (a, tasks.OPERATORS[spec.family], b, tasks.EQUALS), str(answer % spec.modulus)


def padded_queries(queries, begin_marker: int) -> np.ndarray:
    """Queries of any lengths as the rows of one array, each left-padded
    with the begin marker to the longest.  The policy pads every context
    with that marker, so the padding changes no context."""
    width = max(map(len, queries), default=0)
    rows = [(begin_marker,) * (width - len(q)) + tuple(q) for q in queries]
    return np.array(rows, dtype=np.int64).reshape(len(queries), width)


def batch_of(groups, params: PolicyParams) -> Batch:
    """``groups`` packed into the ``Batch`` the objectives take: one row
    per rollout, responses padded with -1 to the longest, and each token's
    bucket hashed from ``params`` one context at a time."""
    rollouts = [ro for g in groups for ro in g.rollouts]
    width = max((len(ro.response) for ro in rollouts), default=0)
    tokens = np.full((len(rollouts), width), -1, dtype=np.int64)
    buckets = np.full((len(rollouts), width), -1, dtype=np.int64)
    for r, ro in enumerate(rollouts):
        tokens[r, : len(ro.response)] = ro.response
        buckets[r, : len(ro.response)] = response_buckets(params, ro.query, ro.response)
    return Batch(
        tokens=tokens,
        buckets=buckets,
        rewards=np.array([x for g in groups for x in g.rewards], dtype=np.float64),
        penalties=np.array([x for g in groups for x in g.penalties], dtype=np.float64),
        sizes=np.array([g.size for g in groups], dtype=np.int64),
    )


def groups_of(batch: Batch, replay, eos: int = tasks.EOS) -> list[Group]:
    """The groups of ``batch`` unpacked into ``Group`` and ``Rollout``
    objects, one row at a time: the inverse of ``batch_of``.  A batch holds
    no queries, so each group takes its query and id from the group in its
    place in ``replay``: the groups ``collect_batch`` below collects from
    the same task stream."""
    if len(replay) != len(batch.sizes):
        raise ValueError(f"{len(replay)} replayed groups for {len(batch.sizes)}")
    groups, start = [], 0
    for like, size in zip(replay, batch.sizes.tolist()):
        rows = slice(start, start + size)
        rollouts = []
        for row in batch.tokens[rows].tolist():
            response = response_of(row)
            truncated = not response or response[-1] != eos
            rollouts.append(Rollout(like.rollouts[0].query, response, truncated))
        groups.append(
            Group(like.query_id, tuple(rollouts), batch.rewards[rows], batch.penalties[rows])
        )
        start += size
    return groups


@dataclass(frozen=True)
class Context:
    """A fixed-width conditioning window: the last ``order`` token ids."""

    order: int
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("context order must be positive")
        if len(self.window) != self.order:
            raise ValueError(
                f"window length {len(self.window)} != order {self.order}"
            )


def bucket(params: PolicyParams, window: tuple[int, ...] | Context) -> int:
    """Logits-table row of a window or context."""
    if isinstance(window, Context):
        window = window.window
    return bucket_of(window, params.buckets)


def _log_softmax_at(row: np.ndarray, tok: int) -> float:
    m = row.max()
    return float(row[tok] - m - np.log(np.exp(row - m).sum()))


def token_logprob(params: PolicyParams, ctx: Context, tok: int) -> float:
    """log pi(tok | ctx); exp of this sums to 1 over the vocab per context."""
    if not 0 <= tok < params.vocab.size:
        raise ValueError(f"token id {tok} outside vocab of size {params.vocab.size}")
    row = params.logits[bucket(params, ctx)]
    if not np.isfinite(row).all():
        raise ValueError("non-finite logits in context row")
    return _log_softmax_at(row, tok)


def token_logprob_grad(
    params: PolicyParams, ctx: Context, tok: int
) -> tuple[int, np.ndarray]:
    """Gradient of token_logprob w.r.t. the logits table.

    Only the row for ``bucket(ctx)`` is nonzero; the entry for token ``w``
    is ``1{w == tok} - softmax_w``, so each row gradient sums to zero.
    Returned as ``(bucket_index, row_gradient)``.
    """
    if not 0 <= tok < params.vocab.size:
        raise ValueError(f"token id {tok} outside vocab of size {params.vocab.size}")
    b = bucket(params, ctx)
    row = params.logits[b]
    if not np.isfinite(row).all():
        raise ValueError("non-finite logits in context row")
    shifted = row - row.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    grad = -probs
    grad[tok] += 1.0
    return b, grad


def response_buckets(
    params: PolicyParams, query: tuple[int, ...], response: tuple[int, ...]
) -> np.ndarray:
    """Bucket index of the context before each response position."""
    window = ((params.vocab.begin_marker,) * params.k + tuple(query))[-params.k :]
    out = np.empty(len(response), dtype=np.int64)
    for t, tok in enumerate(response):
        out[t] = bucket_of(window, params.buckets)
        window = window[1:] + (tok,)
    return out


def row_buckets(
    params: PolicyParams, queries: np.ndarray, tokens: np.ndarray
) -> np.ndarray:
    """``response_buckets`` of every row of ``tokens``, rows as
    ``sample_groups`` returns them with row ``r``'s query in row ``r`` of
    ``queries``, and -1 past each end: the buckets the sampler returns."""
    out = np.full(tokens.shape, -1, dtype=np.int64)
    for r, (query, row) in enumerate(zip(queries.tolist(), tokens.tolist())):
        response = response_of(row)
        out[r, : len(response)] = response_buckets(params, tuple(query), response)
    return out


def sequence_logprobs(
    params: PolicyParams,
    query: tuple[int, ...],
    response: tuple[int, ...],
    buckets: np.ndarray | None = None,
    with_probs: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-token log-probs of ``response`` given ``query``.

    Returns ``(buckets, logprobs, probs)``; ``probs`` is the per-position
    softmax row matrix when ``with_probs`` is set, else None.
    """
    if buckets is None:
        buckets = response_buckets(params, query, response)
    rows = params.logits[buckets]  # (T, V)
    m = rows.max(axis=1, keepdims=True)
    expd = np.exp(rows - m)
    denom = expd.sum(axis=1)
    toks = np.fromiter(response, dtype=np.int64, count=len(response))
    logprobs = rows[np.arange(len(response)), toks] - m[:, 0] - np.log(denom)
    probs = expd / denom[:, None] if with_probs else None
    return buckets, logprobs, probs


def dense(grad: tuple[np.ndarray, np.ndarray], params: PolicyParams) -> np.ndarray:
    """A row-sparse ``(rows, values)`` gradient as a table shaped like
    ``params.logits``: ``values`` at ``rows`` and zero elsewhere."""
    rows, values = grad
    out = np.zeros_like(params.logits)
    out[rows] = values
    return out


def k3_divergence(ratio_ref_over_theta: float) -> float:
    """Non-negative KL estimator rho - ln(rho) - 1, rho = pi_ref / pi_theta."""
    if ratio_ref_over_theta <= 0:
        raise ValueError("ratio must be positive")
    rho = ratio_ref_over_theta
    return rho - math.log(rho) - 1.0


def clipped_term(
    ratio: float, advantage: float, eps_low: float, eps_high: float
) -> float:
    """min(ratio * adv, clip(ratio, 1 - eps_low, 1 + eps_high) * adv)."""
    clipped = min(max(ratio, 1.0 - eps_low), 1.0 + eps_high)
    return min(ratio * advantage, clipped * advantage)


def reference_sample(params, query, max_len, temperature, rng):
    """Token-at-a-time sampler: the oracle for the lockstep one."""
    vocab = params.vocab
    window = ((vocab.begin_marker,) * params.k + tuple(query))[-params.k :]
    response, truncated = [], True
    for _ in range(max_len):
        row = params.logits[bucket_of(window, params.buckets)]
        gumbel = -np.log(-np.log(rng.random(vocab.size)))
        tok = int(np.argmax(row / temperature + gumbel))
        response.append(tok)
        if tok == vocab.eos:
            truncated = False
            break
        window = window[1:] + (tok,)
    return Rollout(tuple(query), tuple(response), truncated)


def reference_lockstep(params, queries, group_size, max_len, temperature, rngs):
    """Per-position lockstep sampler: the oracle for the block-drawn one.

    At each position where some rollout of query ``g`` is live, ``rngs[g]``
    draws one ``(group_size, vocab)`` block of uniforms and rollout ``i``
    takes row ``i`` of it.  Returns the tokens and buckets as
    ``sample_groups`` does: one row per rollout, -1 past its end.
    """
    vocab = params.vocab
    n = len(queries) * group_size
    tokens = np.full((n, max_len), -1, dtype=np.int64)
    buckets = np.full((n, max_len), -1, dtype=np.int64)
    windows = [
        ((vocab.begin_marker,) * params.k + tuple(query))[-params.k :]
        for query in queries
        for _ in range(group_size)
    ]
    live = [True] * n
    for t in range(max_len):
        for g, rng in enumerate(rngs):
            group = range(g * group_size, (g + 1) * group_size)
            if not any(live[r] for r in group):
                continue
            uniforms = rng.random((group_size, vocab.size))
            for i, r in enumerate(group):
                if not live[r]:
                    continue
                b = bucket_of(windows[r], params.buckets)
                gumbel = -np.log(-np.log(uniforms[i]))
                tok = int(np.argmax(params.logits[b] / temperature + gumbel))
                tokens[r, t], buckets[r, t] = tok, b
                windows[r] = windows[r][1:] + (tok,)
                live[r] = tok != vocab.eos
    return tokens, buckets


def score_group(query_id, rollouts, gold, config, reward_memo, score_memo):
    """The scored group and its rollouts' raw repetition scores, one rollout
    at a time through the memos: the oracle for ``collect_batch``'s array
    scoring.  A truncated rollout scores 0 unverified; with the penalty off
    the group's penalties are zero."""
    rewards, raw = [], []
    for ro in rollouts:
        key = (ro.response, gold)
        if ro.truncated:
            rewards.append(0.0)
        else:
            if key not in reward_memo:
                reward_memo[key] = reward(tasks.decode_tokens(ro.response), gold)
            rewards.append(reward_memo[key])
        content = ro.response if ro.truncated else ro.response[:-1]
        if content and content not in score_memo:
            score_memo[content] = repetition_score(
                content, config.min_period, config.min_repeats
            )
        raw.append(score_memo[content] if content else 0.0)
    raw = np.array(raw)
    group = Group(
        query_id,
        tuple(rollouts),
        np.array(rewards),
        raw if config.repetition_penalty else np.zeros(len(rollouts)),
    )
    return group, raw


def score_rows(tokens, golds, reward_memo, score_memo=None, config=None):
    """``trainer._score`` with every row made a tuple: the oracle for its
    byte row keys.  ``reward_memo`` is keyed by ``(response tuple, gold)``
    and ``score_memo`` by content tuple; ``tuple_keyed`` maps the library's
    byte-keyed memos to these keys."""
    group_size = len(tokens) // len(golds)
    pairs: dict = {}
    slots = [
        pairs.setdefault(pair, len(pairs))
        for pair in zip(
            map(tuple, tokens.tolist()),
            (gold for gold in golds for _ in range(group_size)),
        )
    ]
    rewards = np.empty(len(pairs))
    scores = None if score_memo is None else np.empty(len(pairs))
    for j, (row, gold) in enumerate(pairs):
        response = response_of(row)
        truncated = response[-1] != tasks.EOS
        if truncated:
            rewards[j] = 0.0
        else:
            key = (response, gold)
            if key not in reward_memo:
                reward_memo[key] = reward(tasks.decode_tokens(response), gold)
            rewards[j] = reward_memo[key]
        if scores is not None:
            content = response if truncated else response[:-1]
            if content and content not in score_memo:
                score_memo[content] = repetition_score(
                    content, config.min_period, config.min_repeats
                )
            scores[j] = score_memo[content] if content else 0.0
    index = np.array(slots).reshape(len(golds), group_size)
    return rewards[index], None if scores is None else scores[index]


def tuple_keyed(memo: dict) -> dict:
    """A memo of ``trainer._score``, keyed by byte row keys (each token plus
    one), with the keys turned back into token tuples as ``score_rows``
    keys its memos: ``(key, gold)`` pairs and content keys alike."""

    def tokens_of(key: bytes) -> tuple[int, ...]:
        return tuple(b - 1 for b in key)

    return {
        (tokens_of(k[0]), k[1]) if isinstance(k, tuple) else tokens_of(k): v
        for k, v in memo.items()
    }


def absorb(stats, group, scores, penalty_on):
    """Add one group, with its raw repetition ``scores``, to a
    ``BatchStats`` rollout by rollout: the oracle for its chunk form."""
    stats.attempted_groups += 1
    for ro, rew in zip(group.rollouts, group.rewards):
        stats.rollouts += 1
        stats.response_tokens += len(ro.response)
        stats.reward_sum += float(rew)
    if penalty_on:
        stats.repetition_sum += float(scores.sum())
    else:
        for score in scores:
            stats.repetition_sum += float(score)


def collect_batch(params, stage, config, task_rng, query_counter, reward_memo):
    """``collect_batch`` one chunk per sampler call, scored group by group
    as ``Rollout`` objects, with the former loop that builds every group
    and keeps the mixed ones."""
    n, size = config.batch_groups, config.group_size
    valid, valid_buckets, stats, score_memo = [], [], BatchStats(), {}
    while len(valid) < n:
        drawn = [generate_task(config.task, task_rng) for _ in range(n)]
        qids = range(query_counter, query_counter + n)
        query_counter += n
        tokens, buckets = sample_groups(
            params,
            np.array([query for query, _ in drawn], dtype=np.int64),
            size,
            stage.max_response_len,
            config.temperature,
            [np.random.default_rng([config.seed, 1, qid]) for qid in qids],
        )
        for i, ((query, gold), qid) in enumerate(zip(drawn, qids)):
            rows = slice(i * size, (i + 1) * size)
            rollouts = rollouts_from(query, tokens[rows], tasks.EOS)
            group, raw = score_group(qid, rollouts, gold, config, reward_memo, score_memo)
            absorb(stats, group, raw, config.repetition_penalty)
            if 0 < int((group.rewards > 0.5).sum()) < size:
                valid.append(group)
                valid_buckets.append(buckets[rows])
            else:
                stats.invalid_groups += 1
    buckets = np.concatenate(valid_buckets[:n])
    return valid[:n], buckets[buckets >= 0], stats, query_counter


def _accumulate_clipped(
    grad: np.ndarray,
    params: PolicyParams,
    old_params: PolicyParams,
    rollout: Rollout,
    advantage: float,
    eps_low: float,
    eps_high: float,
    weight: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Add one rollout's clipped-surrogate gradient; returns the summed term
    value plus (buckets, new logprobs, softmax rows) for reuse."""
    buckets, lp_new, probs = sequence_logprobs(
        params, rollout.query, rollout.response, with_probs=True
    )
    _, lp_old, _ = sequence_logprobs(
        old_params, rollout.query, rollout.response, buckets=buckets
    )
    ratio = np.exp(lp_new - lp_old)
    clipped = np.clip(ratio, 1.0 - eps_low, 1.0 + eps_high)
    unclipped_val = ratio * advantage
    clipped_val = clipped * advantage
    term_sum = float(np.minimum(unclipped_val, clipped_val).sum())
    coef = np.where(unclipped_val <= clipped_val, advantage * ratio, 0.0) * weight
    toks = np.fromiter(rollout.response, dtype=np.int64, count=len(rollout.response))
    contrib = -probs * coef[:, None]
    contrib[np.arange(len(toks)), toks] += coef
    np.add.at(grad, buckets, contrib)
    return term_sum, buckets, lp_new, probs


def token_mean_objective(groups, params, old_params, eps_low, eps_high):
    """Per-rollout loop form of ``rlvrlab.objectives.clipped_objective``
    with its default token-mean weights and no reference."""
    if not groups:
        raise ValueError("empty batch")
    total_tokens = sum(len(r.response) for g in groups for r in g.rollouts)
    if total_tokens == 0:
        raise ValueError("batch contains no tokens")
    grad = np.zeros_like(params.logits)
    j_sum = 0.0
    for g in groups:
        adv = shaped_advantages(g.rewards, g.penalties)
        for a, rollout in zip(adv.values, g.rollouts):
            if not rollout.response:
                continue
            term_sum, _, _, _ = _accumulate_clipped(
                grad, params, old_params, rollout, float(a),
                eps_low, eps_high, 1.0 / total_tokens,
            )
            j_sum += term_sum
    return j_sum / total_tokens, grad


def sequence_mean_objective(
    groups, params, old_params, ref: PolicyParams, beta: float, eps: float
):
    """Per-rollout loop form of ``rlvrlab.objectives.clipped_objective``
    with ``per_sequence`` weights, symmetric clip bounds ``eps`` and a K3
    term against ``ref``."""
    if not groups:
        raise ValueError("empty batch")
    grad = np.zeros_like(params.logits)
    n_groups = len(groups)
    j = 0.0
    for g in groups:
        adv = shaped_advantages(g.rewards, g.penalties)
        for a, rollout in zip(adv.values, g.rollouts):
            t_len = len(rollout.response)
            if t_len == 0:
                continue
            w = 1.0 / (n_groups * g.size * t_len)
            term_sum, buckets, lp_new, probs = _accumulate_clipped(
                grad, params, old_params, rollout, float(a), eps, eps, w
            )
            _, lp_ref, _ = sequence_logprobs(
                ref, rollout.query, rollout.response, buckets=None
            )
            rho = np.exp(lp_ref - lp_new)
            k3 = rho - (lp_ref - lp_new) - 1.0
            j += w * (term_sum - beta * k3.sum())
            # d/dtheta of -beta*k3 contributes beta*(rho - 1) per token.
            coef = beta * (rho - 1.0) * w
            toks = np.fromiter(
                rollout.response, dtype=np.int64, count=len(rollout.response)
            )
            contrib = -probs * coef[:, None]
            contrib[np.arange(len(toks)), toks] += coef
            np.add.at(grad, buckets, contrib)
    return j, grad


def _border_table(seq) -> list[int]:
    """KMP failure function: border[i] = length of the longest proper border
    of seq[:i+1]."""
    border = [0] * len(seq)
    j = 0
    for i in range(1, len(seq)):
        while j > 0 and seq[i] != seq[j]:
            j = border[j - 1]
        if seq[i] == seq[j]:
            j += 1
        border[i] = j
    return border


def _periods(seq):
    """All periods of seq in increasing order (partial final block allowed).

    p is a period iff seq[i] == seq[i+p] for every valid i, which holds iff
    seq has a border of length len(seq) - p; walking the border chain from
    the longest border enumerates the periods smallest first.
    """
    n = len(seq)
    border = _border_table(seq)
    b = border[-1]
    while b > 0:
        yield n - b
        b = border[b - 1]
    yield n


def detect_loop(tokens, min_period: int = 1, min_repeats: int = 3) -> int | None:
    """Start of the earliest trailing loop from each start's border-table
    periods, the library's former detector: O(n^2) per sequence."""
    n = len(tokens)
    if n == 0:
        raise ValueError("tokens must be nonempty")
    for start in range(n):
        suffix = tokens[start:]
        m = n - start
        for period in _periods(suffix):
            repeats = m // period
            if repeats < min_repeats:
                break  # periods only grow, so repeats only shrink
            if period >= min_period:
                return start
    return None


def encode_text(text: str) -> tuple[int, ...]:
    """Task-alphabet text as token ids: the inverse of ``tasks.decode_tokens``."""
    alphabet = "0123456789+*="
    if any(c not in alphabet for c in text):
        raise ValueError(f"{text!r} has a character outside the task alphabet")
    return tuple(alphabet.index(c) for c in text)


def policy_answerer(params, max_len: int, temperature: float = 1.0):
    """``fn(question, rng) -> (answer, truncated)``: the question text
    tokenized, rolled out by the policy, and the response decoded."""

    def answer(question: str, rng) -> tuple[str, bool]:
        response = sample_response(params, encode_text(question), max_len, temperature, rng)
        return tasks.decode_tokens(response), response[-1] != params.vocab.eos

    return answer


def estimate_pass_rate(records, rollout_fn, attempts: int = 5, seed: int = 0):
    """``records`` with the pass rate of ``attempts`` answers from
    ``rollout_fn(question, rng)`` each, graded by ``verifier.reward``; a
    truncated answer scores 0 unverified."""
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    out = []
    for idx, rec in enumerate(records):
        hits = 0
        for attempt in range(attempts):
            answer, truncated = rollout_fn(rec.question, np.random.default_rng([seed, idx, attempt]))
            hits += 0 if truncated else int(reward(answer, rec.answer))
        out.append(replace(rec, pass_rate=hits / attempts))
    return out


def select_longest(records: list[ProblemRecord], k: int) -> list[ProblemRecord]:
    """The k records with the longest responses, ties broken by id."""
    if k > len(records):
        raise ValueError(f"k={k} exceeds record count {len(records)}")
    if any(rec.response_len is None for rec in records):
        raise ValueError("response_len must be present on every record")
    return sorted(records, key=lambda r: (-r.response_len, r.id))[:k]


def extract_final_answer(text: str) -> str:
    """Content of the last ``\\boxed{...}`` if present, else the final line."""
    last = None
    for m in re.finditer(r"\\boxed\s*\{", text):
        depth, i = 1, m.end()
        while i < len(text) and depth > 0:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        if depth == 0:
            last = text[m.end() : i - 1]
    if last is not None:
        return last.strip()
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    return lines[-1] if lines else ""
