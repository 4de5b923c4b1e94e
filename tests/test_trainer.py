import json
import math
import os
import subprocess
import sys
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab import config, objectives, policy, repetition, tasks, trainer, verifier
from rlvrlab.config import StagePlan, TrainConfig
from rlvrlab.policy import PolicyParams, Vocab, bucket_of
from rlvrlab.tasks import EOS, EQUALS, PLUS, TaskSpec, generate_tasks
from rlvrlab.trainer import (
    CollectAbort,
    MetricsRecord,
    collect_batch,
    evaluate,
    group_generators,
    init_policy,
    stage_saturated,
    train,
)

import oracles


def tiny_config(**overrides):
    defaults = dict(
        stages=(StagePlan(max_response_len=12, max_steps=5),),
        task=TaskSpec("modular-add", 10),
        group_size=4,
        batch_groups=4,
        learning_rate=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


def oracle_policy(buckets=1 << 16, k=4, strength=25.0):
    """Answers every modular-add query correctly and then stops."""
    params = PolicyParams.uniform(tasks.VOCAB, k, buckets)
    begin = tasks.VOCAB.begin_marker
    seen = {}
    for a in range(10):
        for b in range(10):
            gold = (a + b) % 10
            query = (a, PLUS, b, EQUALS)
            first = ((begin,) * k + query)[-k:]
            second = ((begin,) * k + query + (gold,))[-k:]
            for window, tok in ((first, gold), (second, EOS)):
                row = bucket_of(window, buckets)
                assert seen.setdefault(row, window) == window, "bucket collision"
                params.logits[row, tok] = strength
    return params


class TestStageSaturated:
    def test_constant_lengths_saturate(self):
        assert stage_saturated([10.0] * 8)

    def test_five_percent_growth_does_not(self):
        first, last = [100.0] * 4, [105.0] * 4
        assert not stage_saturated(first + last)

    def test_tiny_noise_saturates(self):
        window = [100.0, 99.9, 100.1, 99.9, 100.1, 100.0]
        assert stage_saturated(window)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            stage_saturated([1.0])


class TestConfig:
    def test_json_round_trip(self):
        cfg = tiny_config(
            stages=(
                StagePlan(24, clip_low=0.2, clip_high=(0.2, 0.28), max_steps=3),
                StagePlan(48, max_steps=4, saturation_window=10),
            )
        )
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_metrics_record_omits_missing_avg_at_k(self):
        record = MetricsRecord(1, 0, 2.0, 0.5, 0.25, 0.0, 0.1, 1.5)
        assert list(record.to_dict()) == [
            "step",
            "stage",
            "mean_response_len",
            "mean_reward",
            "dropped_group_fraction",
            "mean_repetition",
            "objective",
            "grad_norm",
        ]
        assert replace(record, avg_at_k=0.75).to_dict()["avg_at_k"] == 0.75

    def test_integral_floats_convert(self):
        stage = StagePlan.from_dict({"max_response_len": 24.0, "max_steps": 3.0})
        assert (stage.max_response_len, stage.max_steps) == (24, 3)
        assert type(stage.max_response_len) is int
        cfg = TrainConfig.from_dict(
            {"task": {"modulus": 7.0}, "stages": [stage.to_dict()], "group_size": 8.0}
        )
        assert cfg.task.modulus == 7 and type(cfg.task.modulus) is int
        assert cfg.group_size == 8 and type(cfg.group_size) is int

    def test_fields_are_stored_in_canonical_form(self):
        stage = StagePlan(8, clip_low=np.float64(0.2), clip_high=(0.2, np.float32(0.25)))
        cfg = tiny_config(stages=(stage,), learning_rate=20, seed=np.int64(3))
        assert type(cfg.learning_rate) is float and type(cfg.seed) is int
        assert type(stage.clip_low) is float
        assert [type(v) for v in stage.clip_high] == [float, float]
        plain = StagePlan(8, 0.2, (0.2, 0.25))
        assert cfg == tiny_config(stages=(plain,), learning_rate=20.0, seed=3)

    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"task": "modular-add"}, "task"),
            ({"task": {"family": "modular-add"}}, "task"),
            ({"stages": 5}, "stages"),
            ({"stages": ({"max_response_len": 8},)}, "stages"),
            ({"stages": (8,)}, "stages"),
        ],
        ids=["task_str", "task_dict", "stages_int", "stage_dict", "stage_int"],
    )
    def test_nested_fields_are_checked_when_built_in_python(self, fields, name):
        # A nested field of the wrong type is a ValueError naming the field,
        # as for every other field, and is caught before training starts.
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**fields)

    def test_stages_are_held_as_a_tuple(self):
        listed = TrainConfig(stages=[StagePlan(8), StagePlan(16)])
        assert type(listed.stages) is tuple
        spelled = TrainConfig(stages=(StagePlan(8), StagePlan(16)))
        assert listed == spelled and hash(listed) == hash(spelled)

    def test_readme_config_reads(self):
        # The README's example config is one the reader takes as written.
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        cfg = TrainConfig.from_dict(json.loads(block))
        assert [s.max_response_len for s in cfg.stages] == [24, 48]
        assert cfg.stages[1].clip_high == (0.2, 0.28)

    def test_unknown_keys_are_named(self):
        with pytest.raises(ValueError, match="unknown TrainConfig key.*learning_rat"):
            TrainConfig.from_dict({"learning_rat": 0.1})
        with pytest.raises(ValueError, match="unknown StagePlan key.*clip_hi"):
            StagePlan.from_dict({"max_response_len": 8, "clip_hi": 0.3})

    def test_caps_must_strictly_increase(self):
        with pytest.raises(ValueError):
            tiny_config(stages=(StagePlan(24), StagePlan(24)))

    def test_context_order_must_cover_query(self):
        with pytest.raises(ValueError):
            tiny_config(context_order=3)

    def test_table_caps(self):
        # Each cap is accepted and one past it rejected, by a check that
        # allocates no table.
        tracemalloc.start()
        try:
            cfg = tiny_config(
                buckets=config.MAX_BUCKETS, context_order=config.MAX_CONTEXT_ORDER
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfg.buckets == 2**20 and cfg.context_order == 6
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="buckets must be <= 1048576, got 1048577"):
            tiny_config(buckets=config.MAX_BUCKETS + 1)
        with pytest.raises(ValueError, match="context_order must be <= 6, got 7"):
            tiny_config(context_order=config.MAX_CONTEXT_ORDER + 1)

    @pytest.mark.parametrize("name", ["batch_groups", "group_size", "max_response_len"])
    def test_sampler_positions_cap(self, name):
        # 8 chunks of 32 groups of 32 rollouts at 256 tokens hold exactly
        # the cap; one more of any factor, in the longest stage, is past it.
        # Validation only: no sampler array is allocated.
        sizes = dict(batch_groups=32, group_size=32, max_response_len=256)
        assert config.COLLECT_CHUNKS * 32 * 32 * 256 == config.MAX_SAMPLER_POSITIONS

        def build_config():
            return tiny_config(
                batch_groups=sizes["batch_groups"],
                group_size=sizes["group_size"],
                stages=(StagePlan(12), StagePlan(sizes["max_response_len"])),
            )

        tracemalloc.start()
        try:
            build_config()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        sizes[name] += 1
        got = config.COLLECT_CHUNKS * math.prod(sizes.values())
        with pytest.raises(
            ValueError, match=f"must be <= 2097152 sampler positions, got {got}$"
        ):
            build_config()

    def test_group_size_lower_bound(self):
        with pytest.raises(ValueError):
            tiny_config(group_size=1)


# Clip specs of three stages, and the bounds each draws at seeds 0 and 7 from
# its generator ``default_rng([seed, 3, stage])``: the values of the former
# whole-run clip schedule, pinned so that runs keep their clip draws.
CLIP_SPECS = (((0.2, 0.28), (0.25, 0.35)), ((0.1, 0.3), 0.2), (0.2, (0.2, 0.28)))
CLIP_DRAWS = {
    0: [(0.2715978192631871, 0.3360414436774937), (0.10653318529570646, 0.2),
        (0.2, 0.2745123969118123)],
    7: [(0.27800268429756014, 0.33845672371187707), (0.20648423934905624, 0.2),
        (0.2, 0.2649327279549945)],
}


class TestStagePlanClipBounds:
    def test_point_and_interval_sampling(self):
        rng = np.random.default_rng(0)
        assert StagePlan(8, 0.2, 0.2).clip_bounds(rng) == (0.2, 0.2)
        lo, hi = StagePlan(8, (0.2, 0.28), 0.3).clip_bounds(rng)
        assert 0.2 <= lo <= 0.28
        assert hi == 0.3

    def test_degenerate_interval(self):
        lo, hi = StagePlan(8, (0.2, 0.2), 0.25).clip_bounds(np.random.default_rng(3))
        assert lo == pytest.approx(0.2)
        assert hi == 0.25

    def test_values_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"clip value 0.0 outside \(0, 1\)"):
            StagePlan(8, clip_low=0.0)
        with pytest.raises(ValueError, match=r"clip value 1.0 outside \(0, 1\)"):
            StagePlan(8, clip_low=(0.2, 1.0))

    @pytest.mark.parametrize(
        "spec", ["x", None, True, math.nan, (0.2,), (0.2, "x"), (0.2, 0.25, 0.3)], ids=repr
    )
    def test_spec_must_be_a_number_or_a_pair(self, spec):
        with pytest.raises(ValueError, match="clip_low must be a number or a pair"):
            StagePlan(8, clip_low=spec)

    def test_reversed_interval_rejected(self):
        for low, high in (((0.28, 0.2), 0.2), (0.2, (0.3, 0.1))):
            with pytest.raises(ValueError, match="low end above high end"):
                StagePlan(8, low, high)

    @pytest.mark.parametrize("seed", sorted(CLIP_DRAWS))
    def test_draws_are_pinned(self, seed):
        for i, (low, high) in enumerate(CLIP_SPECS):
            rng = np.random.default_rng([seed, 3, i])
            assert StagePlan(8, low, high).clip_bounds(rng) == CLIP_DRAWS[seed][i]

    def test_train_draws_each_stage_once(self, monkeypatch):
        # Every step of a stage runs at the bounds its generator gives.
        seen = []

        def recording(batch, params, lp_old, eps_low, eps_high, *args, **kwargs):
            seen.append((eps_low, eps_high))
            return clipped(batch, params, lp_old, eps_low, eps_high, *args, **kwargs)

        clipped = objectives.clipped_objective
        monkeypatch.setattr(objectives, "clipped_objective", recording)
        stages = tuple(
            StagePlan(4 * (i + 3), low, high, max_steps=2)
            for i, (low, high) in enumerate(CLIP_SPECS)
        )
        train(tiny_config(stages=stages))
        assert seen == [bounds for bounds in CLIP_DRAWS[7] for _ in range(2)]


class TestInitPolicy:
    def test_format_scaffold_chance_level(self):
        cfg = tiny_config()
        score = evaluate(init_policy(cfg), cfg.task, 32, 1.0, 24, seed=0)
        assert 0.07 <= score <= 0.13

    def test_loop_boost_raises_initial_repetition(self):
        from rlvrlab.policy import sample_response
        from rlvrlab.repetition import repetition_score

        plain = init_policy(tiny_config())
        boosted = init_policy(tiny_config(loop_boost=6.0))
        rng = np.random.default_rng(0)

        def mean_rep(params):
            rng_local = np.random.default_rng(1)
            total = 0.0
            for _ in range(300):
                query, _ = tasks.generate_task(TaskSpec(), rng_local)
                response = sample_response(params, query, 24, 1.0, rng_local)
                content = response[:-1] if response[-1] == EOS else response
                total += repetition_score(content) if content else 0.0
            return total / 300

        assert mean_rep(boosted) > mean_rep(plain) + 0.1


def collected_groups(params, cfg):
    """``collect_batch``'s first batch on the ``[seed, 0]`` task stream as
    groups, with the queries of the oracle's replay of that stream."""
    stage = cfg.stages[0]
    batch, stats, counter = collect_batch(
        params, stage, cfg, np.random.default_rng([cfg.seed, 0]), 0
    )
    replay, *_ = oracles.collect_batch(
        params, stage, cfg, np.random.default_rng([cfg.seed, 0]), 0, {}
    )
    return oracles.groups_of(batch, replay), batch, stats, counter


class TestCollectBatch:
    def test_returns_exactly_n_mixed_groups(self):
        cfg = tiny_config()
        params = init_policy(cfg)
        groups, batch, stats, counter = collected_groups(params, cfg)
        assert len(groups) == cfg.batch_groups
        queries = np.array([ro.query for g in groups for ro in g.rollouts])
        assert np.array_equal(
            batch.buckets, oracles.row_buckets(params, queries, batch.tokens)
        )
        for g in groups:
            correct = int((g.rewards > 0.5).sum())
            assert 0 < correct < g.size
        assert counter >= stats.attempted_groups
        assert stats.invalid_groups == stats.attempted_groups - len(groups) or (
            stats.invalid_groups <= stats.attempted_groups
        )

    def test_truncated_rollouts_always_score_zero(self):
        # A 3-token cap turns every drift tail into a truncation.
        cfg = tiny_config(
            stages=(StagePlan(max_response_len=3, max_steps=1),),
            group_size=8,
            batch_groups=8,
        )
        groups, *_ = collected_groups(init_policy(cfg), cfg)
        seen_truncated = 0
        for g in groups:
            for ro, rew in zip(g.rollouts, g.rewards):
                if ro.truncated:
                    seen_truncated += 1
                    assert rew == 0.0
        assert seen_truncated > 0  # the scaffold's drift tails guarantee some

    def test_rollouts_respect_stage_cap(self):
        cfg = tiny_config()
        groups, *_ = collected_groups(init_policy(cfg), cfg)
        cap = cfg.stages[0].max_response_len
        assert all(len(ro.response) <= cap for g in groups for ro in g.rollouts)

    def test_always_correct_policy_aborts(self):
        cfg = tiny_config(batch_groups=2)
        params = oracle_policy()
        cfg = tiny_config(batch_groups=2, buckets=params.buckets)
        rng = np.random.default_rng(0)
        with pytest.raises(CollectAbort):
            collect_batch(params, cfg.stages[0], cfg, rng, 0)

    def test_group_does_not_depend_on_its_chunk(self):
        # One 16-query chunk against the same queries consumed one at a
        # time: the first 16 single-group batches, in order, are its groups.
        chunked = tiny_config(batch_groups=16)
        params = init_policy(chunked)
        batch, _, counter = collect_batch(
            params, chunked.stages[0], chunked, np.random.default_rng([7, 0]), 0
        )
        alone = tiny_config(batch_groups=1)
        task_rng = np.random.default_rng([7, 0])
        singles, qid = [], 0
        while qid < counter:
            one, _, qid = collect_batch(params, alone.stages[0], alone, task_rng, qid)
            singles.append(one)
        assert len(batch.sizes) == 16 <= len(singles)
        for name in ("tokens", "buckets", "rewards", "penalties"):
            want = np.concatenate([getattr(one, name) for one in singles[:16]])
            np.testing.assert_array_equal(getattr(batch, name), want)


class TestSamplerTail:
    @pytest.mark.parametrize("tail_live", [0, 10**9], ids=["never", "always"])
    def test_batches_and_scores_do_not_depend_on_the_tail(self, monkeypatch, tail_live):
        # Looping rollouts run to the cap.  By default every 16-rollout
        # collection call takes the sampler's tail after its first block,
        # and of the 64-rollout evaluation calls only one does.
        cfg = tiny_config(loop_boost=6.0)
        params = init_policy(cfg)

        def run():
            task_rng, counter, out = np.random.default_rng([7, 0]), 0, []
            for _ in range(3):
                batch, stats, counter = collect_batch(
                    params, cfg.stages[0], cfg, task_rng, counter
                )
                out.append(
                    (batch.tokens.tolist(), batch.buckets.tolist(), batch.rewards.tolist(),
                     batch.penalties.tolist(), stats, counter)
                )
            out.append(evaluate(params, cfg.task, 4, 0.6, 24, seed=3, n_tasks=40))
            return out

        want = run()
        monkeypatch.setattr(policy, "TAIL_LIVE", tail_live)
        assert run() == want


class TestOneLockstepCallPerStep:
    """``collect_batch`` samples several chunks per call, as ``drop_hint``
    predicts, and scores only the chunks the batch needs."""

    @pytest.mark.parametrize("penalty", [True, False])
    def test_result_does_not_depend_on_the_hint(self, penalty):
        cfg = tiny_config(loop_boost=6.0, repetition_penalty=penalty)
        params = init_policy(cfg)
        outcomes = []
        for hint in (0.0, 0.5, 0.95):
            task_rng, counter, steps = np.random.default_rng([7, 0]), 0, []
            for _ in range(3):
                batch, stats, counter = collect_batch(
                    params, cfg.stages[0], cfg, task_rng, counter, drop_hint=hint
                )
                steps.append(
                    (
                        batch.tokens.tolist(),
                        batch.buckets.tolist(),
                        batch.rewards.tolist(),
                        batch.penalties.tolist(),
                        stats,
                        counter,
                    )
                )
            outcomes.append((steps, task_rng.random()))
        assert any(stats.invalid_groups for *_, stats, _ in outcomes[0][0])
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_train_makes_fewer_calls_than_chunks(self, monkeypatch):
        calls, counters = [], []

        def spy_sample(*args):
            calls.append(len(args[1]))
            return real_sample(*args)

        def spy_collect(*args):
            out = real_collect(*args)
            counters.append(out[2])
            return out

        real_sample, real_collect = trainer.sample_groups, trainer.collect_batch
        monkeypatch.setattr(trainer, "sample_groups", spy_sample)
        monkeypatch.setattr(trainer, "collect_batch", spy_collect)
        cfg = tiny_config(stages=(StagePlan(max_response_len=12, max_steps=8),))
        assert len(train(cfg).metrics) == 8
        chunks = counters[-1] // cfg.batch_groups
        assert len(calls) < chunks
        assert max(calls) <= config.COLLECT_CHUNKS * cfg.batch_groups


def add_gold(query):
    a, _, b, _ = query
    return str((a + b) % 10)


class TestScoringMemo:
    """Each collect_batch and evaluate call scores each distinct rollout once."""

    @pytest.mark.parametrize("penalty", [True, False])
    def test_scores_equal_direct_calls(self, penalty):
        cfg = tiny_config(loop_boost=6.0, repetition_penalty=penalty, batch_groups=8)
        groups, _, stats, _ = collected_groups(init_policy(cfg), cfg)
        for g in groups:
            gold = add_gold(g.rollouts[0].query)
            rewards = [
                0.0 if ro.truncated else verifier.reward(tasks.decode_tokens(ro.response), gold)
                for ro in g.rollouts
            ]
            contents = [ro.response if ro.truncated else ro.response[:-1] for ro in g.rollouts]
            scores = [
                repetition.repetition_score(content) if content else 0.0 for content in contents
            ]
            assert g.rewards.tolist() == rewards
            assert g.penalties.tolist() == (scores if penalty else [0.0] * g.size)
        assert stats.repetition_sum > 0.0

    def test_one_call_per_distinct_rollout(self, monkeypatch):
        reward_calls, score_calls = [], []

        def spy_reward(answer, gold):
            reward_calls.append((answer, gold))
            return real_reward(answer, gold)

        def spy_score(tokens, *args):
            score_calls.append(tuple(tokens))
            return real_score(tokens, *args)

        real_reward, real_score = verifier.reward, repetition.repetition_score
        monkeypatch.setattr(verifier, "reward", spy_reward)
        monkeypatch.setattr(repetition, "repetition_score", spy_score)
        cfg = tiny_config(group_size=16, batch_groups=8)
        params, task_rng = init_policy(cfg), np.random.default_rng([7, 0])
        counter = 0
        for _ in range(3):
            reward_calls.clear()
            score_calls.clear()
            _, stats, counter = collect_batch(params, cfg.stages[0], cfg, task_rng, counter)
            assert reward_calls and score_calls
            assert len(set(reward_calls)) == len(reward_calls)
            assert len(set(score_calls)) == len(score_calls)
            # The memo had work to save: rollouts repeat within the call.
            assert len(reward_calls) + len(score_calls) < 2 * stats.rollouts

    def test_one_verification_per_distinct_answer_per_run(self, monkeypatch):
        calls = []

        def spy_reward(answer, gold):
            calls.append((answer, gold))
            return real_reward(answer, gold)

        real_reward = verifier.reward
        monkeypatch.setattr(verifier, "reward", spy_reward)
        cfg = tiny_config(stages=(StagePlan(max_response_len=12, max_steps=8),))
        assert len(train(cfg).metrics) == 8 and calls
        assert len(set(calls)) == len(calls)

    def test_evaluate_equals_per_rollout_sum(self, monkeypatch):
        sampled = []

        def recording(params, queries, group_size, *args):
            out = sample_groups(params, queries, group_size, *args)
            for g, query in enumerate(queries):
                rows = out[0][g * group_size : (g + 1) * group_size]
                sampled.append((query, oracles.rollouts_from(query, rows, EOS)))
            return out

        sample_groups = trainer.sample_groups
        monkeypatch.setattr(trainer, "sample_groups", recording)
        cfg = tiny_config()
        k, n_tasks = 8, 40
        got = evaluate(init_policy(cfg), cfg.task, k, 1.0, 12, seed=3, n_tasks=n_tasks)
        assert len(sampled) == n_tasks
        total = 0.0
        for query, rollouts in sampled:
            hits = sum(
                verifier.reward(tasks.decode_tokens(ro.response), add_gold(query))
                for ro in rollouts
                if not ro.truncated
            )
            total += hits / k
        assert got == total / n_tasks


def _padded(rows, width):
    """Rows of token ids as the sampler's array: -1 past each row's end."""
    out = np.full((len(rows), width), -1, dtype=np.int64)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out


@st.composite
def _token_arrays(draw):
    """A token array of whole groups, each row a response of the sampler's
    shape (tokens, then eos or nothing, then -1 padding) over a small
    alphabet, so that rows repeat; and one gold answer per group."""
    width = draw(st.integers(1, 6))
    group_size = draw(st.integers(1, 4))
    n_groups = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_groups * group_size):
        content = draw(st.lists(st.sampled_from([0, 1, 2, PLUS]), max_size=width))
        if len(content) < width and (not content or draw(st.booleans())):
            content.append(EOS)
        rows.append(content)
    golds = [draw(st.sampled_from(["0", "1", "2", "12"])) for _ in range(n_groups)]
    return _padded(rows, width), golds


class TestRowKeys:
    """``_score`` keys rows by bytes and scores as the tuple-keyed oracle."""

    @staticmethod
    def _compare(arrays, config):
        got_rewards, got_scores, want_rewards, want_scores = {}, {}, {}, {}
        for tokens, golds in arrays:
            got = trainer._score(tokens, golds, got_rewards, got_scores, config)
            want = oracles.score_rows(tokens, golds, want_rewards, want_scores, config)
            assert got[0].tolist() == want[0].tolist()
            assert got[1].tolist() == want[1].tolist()
            # Without a score memo only the rewards come back.
            plain = trainer._score(tokens, golds, {})
            assert plain[0].tolist() == want[0].tolist() and plain[1] is None
        assert oracles.tuple_keyed(got_rewards) == want_rewards
        assert oracles.tuple_keyed(got_scores) == want_scores

    @given(st.lists(_token_arrays(), min_size=1, max_size=3), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_equals_tuple_keyed_scoring(self, arrays, min_repeats):
        self._compare(arrays, tiny_config(min_repeats=min_repeats))

    def test_truncation_lone_eos_and_trailing_eos(self):
        width = 4
        rows = [
            [1, 1, 1, 1],  # truncated at the cap: loops, scores 0 reward
            [EOS],  # a lone eos: empty content
            [1, EOS],  # correct answer for gold "1"
            [1],  # the same but truncated before its eos
            [1, 2, EOS],
            [1, 2],  # differs from the row above only in its trailing eos
            [1, EOS],
            [EOS],
        ]
        tokens = _padded(rows, width)
        golds = ["1", "3"]
        self._compare([(tokens, golds), (tokens[::-1].copy(), golds[::-1])], tiny_config())
        rewards, scores = trainer._score(tokens, golds, {}, {}, tiny_config())
        assert rewards.tolist() == [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        assert scores.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]

    def test_token_ids_past_a_byte_are_rejected(self):
        with pytest.raises(ValueError, match="below 255"):
            trainer._score(_padded([[255, EOS]], 3), ["1"], {})


class TestGroupGenerators:
    """``group_generators`` gives ``default_rng([seed, tag, i])`` from seed
    words hashed and cached per block of ids."""

    @staticmethod
    def assert_default_rng(got, seed, tag, ids):
        assert len(got) == len(ids)
        for rng, i in zip(got, ids):
            want = np.random.default_rng([seed, tag, i])
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.random(4).tolist() == want.random(4).tolist()

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("tag", [1, 4])
    def test_equals_default_rng(self, seed, tag):
        ids = [*range(301), 2**32 - 1]
        self.assert_default_rng(group_generators(seed, tag, ids), seed, tag, ids)

    @pytest.mark.parametrize("bad", [2**32, 2**40, 2**64 + 1, -1])
    def test_id_outside_one_word_raises(self, bad):
        with pytest.raises(ValueError, match=str(bad)):
            group_generators(0, 1, [0, bad, 2])

    @pytest.mark.parametrize(
        "ids",
        [
            [1023, 1024, 2047, 2048, 4095],
            [2048, 5, 1030, 5, 4095, 1023, 2048, 0],  # unsorted, repeated
            list(range(1000, 2100)),  # three blocks in one call
            [2**32 - 1, 2**32 - 1025, 2**32 - 1024],
        ],
        ids=["boundaries", "unsorted_repeated", "three_blocks", "last_blocks"],
    )
    def test_ids_across_blocks(self, ids):
        assert trainer.GENERATOR_BLOCK == 1024
        for seed in (0, 3):
            self.assert_default_rng(group_generators(seed, 1, ids), seed, 1, ids)
            # Again from the cached words.
            self.assert_default_rng(group_generators(seed, 1, ids), seed, 1, ids)

    def test_seeds_and_tags_sharing_a_block_differ(self):
        # Block 0 of (seed, tag) for three (seed, tag) pairs, each cached in
        # turn: a cache that ignored the seed or the tag would hand one
        # pair's words to the next.
        firsts = []
        for seed, tag in [(5, 1), (6, 1), (5, 4)]:
            got = group_generators(seed, tag, [7, 8])
            self.assert_default_rng(got, seed, tag, [7, 8])
            firsts.append(got[0].random())
        assert len(set(firsts)) == 3

    def test_a_repeated_call_hashes_nothing(self):
        group_generators(9, 1, range(1000, 1100))
        misses = trainer._block_words.cache_info().misses
        group_generators(9, 1, range(1050, 1074))
        assert trainer._block_words.cache_info().misses == misses

    def test_word_cache_is_bounded_and_read_only(self):
        maxsize = trainer._block_words.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 64
        words = trainer._block_words(0, 1, 0)
        assert words.shape == (trainer.GENERATOR_BLOCK, 4)
        with pytest.raises(ValueError):
            words[0, 0] = 1
        # Rows handed to PCG64 are views of the cached array, read-only too.
        with pytest.raises(ValueError):
            words[3][:] = 0

    def test_negative_seed_or_tag_raises(self):
        with pytest.raises(ValueError, match="seed and tag"):
            group_generators(-1, 1, [0])
        with pytest.raises(ValueError, match="seed and tag"):
            group_generators(0, -4, [0])


_IMPORT_SCRIPT = """
import sys
import rlvrlab.trainer, rlvrlab.cli
print("numpy.random" in sys.modules)
"""


def test_import_does_not_load_numpy_random():
    # numpy.random takes tens of milliseconds to load; it waits for the
    # first sampler call, so commands that never sample do not pay for it.
    src = os.path.dirname(os.path.dirname(trainer.__file__))
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert run.stdout.strip() == "False"


class TestCollectionOracle:
    """``collect_batch``, scoring each chunk as arrays, equals the former
    group-at-a-time collection, floats compared by ``==``."""

    @pytest.mark.parametrize("penalty", [True, False])
    def test_matches_group_at_a_time_collection(self, penalty):
        cfg = tiny_config(loop_boost=6.0, repetition_penalty=penalty, group_size=8)
        params = init_policy(cfg)
        got_rng, want_rng = np.random.default_rng([7, 0]), np.random.default_rng([7, 0])
        got_memo, want_memo = {}, {}
        got_counter = want_counter = 0
        for hint in (0.0, 0.5, 0.9):
            got = collect_batch(
                params, cfg.stages[0], cfg, got_rng, got_counter, got_memo, hint
            )
            want = oracles.collect_batch(
                params, cfg.stages[0], cfg, want_rng, want_counter, want_memo
            )
            batch, stats, got_counter = got
            want_groups, want_buckets, want_stats, want_counter = want
            groups = oracles.groups_of(batch, want_groups)
            for a, b in zip(groups, want_groups):
                assert a.rollouts == b.rollouts
                assert a.rewards.tolist() == b.rewards.tolist()
                assert a.penalties.tolist() == b.penalties.tolist()
            assert np.array_equal(batch.buckets[batch.buckets >= 0], want_buckets)
            assert stats == want_stats
            assert got_counter == want_counter
        assert any(g.penalties.any() for g in groups) == penalty
        # The memo is keyed by byte row keys; as token tuples it is the oracle's.
        assert oracles.tuple_keyed(got_memo) == want_memo
        assert got_rng.random() == want_rng.random()


class TestTrain:
    def test_zero_stages_returns_initial_policy(self):
        cfg = tiny_config(stages=())
        result = train(cfg)
        np.testing.assert_array_equal(result.policy.logits, init_policy(cfg).logits)
        assert result.metrics == []

    def test_metrics_bookkeeping(self):
        cfg = tiny_config()
        result = train(cfg)
        assert [m.step for m in result.metrics] == list(
            range(1, len(result.metrics) + 1)
        )
        for m in result.metrics:
            assert m.stage == 0
            assert 0.0 <= m.dropped_group_fraction <= 1.0
            assert m.mean_response_len <= cfg.stages[0].max_response_len
            assert np.isfinite(m.objective) and np.isfinite(m.grad_norm)

    def test_sequential_runs_are_bit_identical(self):
        a = train(tiny_config())
        b = train(tiny_config())
        assert [m.to_dict() for m in a.metrics] == [m.to_dict() for m in b.metrics]
        np.testing.assert_array_equal(a.policy.logits, b.policy.logits)

    def test_stage_sink_fires_once_per_stage(self):
        # The sink fires as each stage ends: after its last record, before
        # the next stage's first.
        cfg = tiny_config(
            stages=(
                StagePlan(12, max_steps=2),
                StagePlan(16, max_steps=2),
            )
        )
        events = []
        result = train(
            cfg,
            metrics_sink=lambda rec: events.append(("step", rec.stage)),
            stage_sink=lambda idx, policy: events.append(("stage", idx)),
        )
        assert events == [
            ("step", 0),
            ("step", 0),
            ("stage", 0),
            ("step", 1),
            ("step", 1),
            ("stage", 1),
        ]
        assert [m.stage for m in result.metrics] == [0, 0, 1, 1]

    def test_saturation_can_end_a_stage_early(self):
        cfg = tiny_config(
            stages=(
                StagePlan(
                    12,
                    max_steps=50,
                    saturation_window=6,
                    saturation_threshold=10.0,  # any flat-ish window triggers
                ),
            )
        )
        result = train(cfg)
        assert len(result.metrics) == 6

    def test_inner_iterations_take_the_step_start_logprobs(self):
        # Two updates of one batch, both against an explicit snapshot of the
        # policy that sampled it, through the per-rollout oracle.  Taking
        # the old log-probs again before the second update would make its
        # ratios 1 and its gradient differ.
        cfg = tiny_config(stages=(StagePlan(12, max_steps=1),), inner_iterations=2)
        result = train(cfg)
        snapshot = init_policy(cfg)
        policy = init_policy(cfg)
        groups, *_ = collected_groups(snapshot, cfg)
        for _ in range(cfg.inner_iterations):
            j, grad = oracles.token_mean_objective(groups, policy, snapshot, 0.2, 0.2)
            policy.logits += cfg.learning_rate * grad
        assert np.array_equal(result.policy.logits, policy.logits)
        assert result.metrics[0].objective == pytest.approx(j, abs=1e-12)
        assert not np.array_equal(policy.logits, snapshot.logits)

    def test_inner_iterations_make_the_clip_bind(self):
        # With one iteration every ratio is 1, so the clip bounds change
        # nothing; with two, the second update's ratios leave 1 and the
        # bounds decide which tokens are clipped.
        def run(inner_iterations, clip=0.2):
            stage = StagePlan(12, clip_low=clip, clip_high=clip, max_steps=5)
            result = train(tiny_config(stages=(stage,), inner_iterations=inner_iterations))
            metrics = [json.dumps(m.to_dict()) for m in result.metrics]
            return result.policy.logits.tobytes(), metrics

        table, metrics = run(2)
        assert run(2) == (table, metrics)
        assert run(1)[0] != table
        assert run(2, clip=0.05)[0] != table

    @pytest.mark.parametrize("inner_iterations,per_step", [(1, 1), (2, 3)])
    def test_log_softmaxes_per_step(self, monkeypatch, inner_iterations, per_step):
        # On policy, the objective's one log-softmax gives both the new and
        # the old log-probs; more iterations take the old ones once more,
        # before the first update.
        calls = []

        def counting(rows, toks):
            calls.append(len(toks))
            return real(rows, toks)

        real = objectives.log_softmax_at
        monkeypatch.setattr(objectives, "log_softmax_at", counting)
        cfg = tiny_config(inner_iterations=inner_iterations)
        steps = cfg.stages[0].max_steps
        assert len(train(cfg).metrics) == steps
        assert len(calls) == per_step * steps

    def test_no_policy_copy(self, monkeypatch):
        calls = []

        def spy_copy(self):
            calls.append(self)
            return real_copy(self)

        real_copy = PolicyParams.copy
        monkeypatch.setattr(PolicyParams, "copy", spy_copy)
        cfg = tiny_config(stages=(StagePlan(12, max_steps=3), StagePlan(16, max_steps=4)))
        result = train(cfg, stage_sink=lambda idx, policy: None)
        assert len(result.metrics) == 7
        assert calls == []

    def test_memory_is_one_table_whatever_the_stage_count(self):
        # A 2**16-bucket table is 7.3 MB; a copy of it per stage would add
        # 36.7 MB to the six-stage run.  The one-stage run goes first, so
        # the sampler's generator cache, built once, counts against it.
        def peak(stages):
            cfg = tiny_config(
                stages=tuple(StagePlan(12 + i, max_steps=1) for i in range(stages)),
                buckets=1 << 16,
            )
            tracemalloc.start()
            try:
                train(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        table = (1 << 16) * tasks.VOCAB.size * 8
        one = peak(1)
        six = peak(6)
        assert six - one < table, f"{one / 1e6:.1f} MB, then {six / 1e6:.1f} MB"

    def test_improves_reward_on_tiny_budget(self):
        cfg = tiny_config(
            stages=(StagePlan(max_response_len=12, max_steps=25),),
            group_size=8,
            batch_groups=8,
            learning_rate=20.0,
        )
        result = train(cfg)
        first = np.mean([m.mean_reward for m in result.metrics[:5]])
        last = np.mean([m.mean_reward for m in result.metrics[-5:]])
        assert last > first + 0.05

    def test_modular_mul_learns(self):
        # The criterion-6 hyperparameters on the other family, 20 + 30
        # steps.  Seeds 1-8 end between 0.240 and 0.266 avg@32.
        cfg = TrainConfig(
            stages=(StagePlan(24, max_steps=20), StagePlan(48, max_steps=30)),
            task=TaskSpec("modular-mul", 10),
            group_size=8,
            batch_groups=16,
            learning_rate=20.0,
            seed=1,
        )
        initial = evaluate(init_policy(cfg), cfg.task, 32, 1.0, 24, seed=cfg.seed)
        final = evaluate(train(cfg).policy, cfg.task, 32, 1.0, 48, seed=cfg.seed)
        assert 0.07 <= initial <= 0.13, f"initial avg@32 {initial:.3f}"
        assert final >= 0.18, f"final avg@32 {final:.3f}"

    def test_in_training_evaluation(self):
        cfg = tiny_config(
            stages=(StagePlan(12, max_steps=5), StagePlan(16, max_steps=3)),
            eval_every=2,
            eval_k=8,
            eval_tasks=40,
        )

        def run(config):
            tables = []
            result = train(
                config, stage_sink=lambda idx, policy: tables.append(policy.logits.tobytes())
            )
            return result, tables

        evaluated, evaluated_tables = run(cfg)
        plain, plain_tables = run(replace(cfg, eval_every=0))
        steps = [m.step for m in evaluated.metrics if m.avg_at_k is not None]
        assert steps == [2, 4, 6, 8]
        # Evaluation draws from its own generators: training is unmoved.
        assert [json.dumps(replace(m, avg_at_k=None).to_dict()) for m in evaluated.metrics] == [
            json.dumps(m.to_dict()) for m in plain.metrics
        ]
        assert evaluated.policy.logits.tobytes() == plain.policy.logits.tobytes()
        assert len(evaluated_tables) == len(cfg.stages)
        assert evaluated_tables == plain_tables
        last = evaluate(
            evaluated.policy,
            cfg.task,
            cfg.eval_k,
            cfg.temperature,
            cfg.stages[-1].max_response_len,
            seed=cfg.seed,
            n_tasks=cfg.eval_tasks,
        )
        assert evaluated.metrics[-1].avg_at_k == last


_METRICS_SCRIPT = """
import json
from rlvrlab.config import StagePlan, TrainConfig
from rlvrlab.tasks import TaskSpec
from rlvrlab.trainer import train

cfg = TrainConfig(
    stages=(StagePlan(max_response_len=24, max_steps=4),),
    task=TaskSpec("modular-add", 10),
    group_size=8,
    batch_groups=16,
    learning_rate=20.0,
    seed=1,
)
print(json.dumps([m.to_dict() for m in train(cfg).metrics]))
"""


def test_metrics_do_not_depend_on_blas_threads():
    # A norm of the 16384-row gradient summed through BLAS changes in its
    # last bit with the BLAS thread count; the metrics must not.
    src = os.path.dirname(os.path.dirname(trainer.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        run = subprocess.run(
            [sys.executable, "-c", _METRICS_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(run.stdout)
    assert len(json.loads(outputs[0])) == 4
    assert outputs[0] == outputs[1]


class TestEvaluate:
    def test_oracle_policy_scores_one(self):
        params = oracle_policy()
        assert evaluate(params, TaskSpec(), 4, 1.0, 8, seed=0, n_tasks=50) == 1.0

    def test_seed_stability(self):
        cfg = tiny_config()
        params = init_policy(cfg)
        a = evaluate(params, cfg.task, 8, 1.0, 12, seed=3, n_tasks=40)
        b = evaluate(params, cfg.task, 8, 1.0, 12, seed=3, n_tasks=40)
        assert a == b

    def test_task_set_is_fixed(self, monkeypatch):
        drawn = []

        def recording(spec, rng, n):
            queries, golds = generate_tasks(spec, rng, n)
            drawn.extend(zip(map(tuple, queries.tolist()), golds))
            return queries, golds

        monkeypatch.setattr(tasks, "generate_tasks", recording)
        cfg = tiny_config()
        sets = []
        for params, k in (
            (init_policy(cfg), 32),
            (init_policy(cfg), 16),
            (PolicyParams.uniform(tasks.VOCAB, cfg.context_order, cfg.buckets), 32),
        ):
            drawn.clear()
            evaluate(params, cfg.task, k, 1.0, 12, seed=1, n_tasks=60)
            sets.append(list(drawn))
        assert len(sets[0]) == 60
        assert sets[0] == sets[1] == sets[2]

    def test_subnormal_temperature_scores_as_a_small_one(self):
        # Over 5e-324 every entry of a row overflows to +-inf; the rows that
        # hold an inf must still be drawn greedily, not as the lowest id.
        cfg = tiny_config(
            stages=(StagePlan(24, max_steps=30),),
            group_size=8,
            batch_groups=16,
            learning_rate=20.0,
            seed=1,
        )
        params = train(cfg).policy
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            small, subnormal = (
                evaluate(params, cfg.task, 8, t, 24, seed=1, n_tasks=100)
                for t in (1e-2, 5e-324)
            )
        assert subnormal == small

    def test_k_must_be_positive(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            evaluate(init_policy(cfg), cfg.task, 0, 1.0, 12, seed=0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_nonfinite_temperature_rejected(self, temperature):
        # These scored 0.0 and 0.0125: nan passed a ``<= 0`` check.
        params = init_policy(TrainConfig(stages=(StagePlan(8),)))
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            evaluate(params, TaskSpec(), 8, temperature, 8, 0, 20)

    def test_long_call_memory_is_bounded(self):
        # A policy that never stops fills every position: 16 tasks of 128
        # attempts at 256 tokens, 524,288 positions in one lockstep call.
        cfg = tiny_config()
        params = init_policy(cfg)
        params.logits[:, EOS] = -1e3
        tracemalloc.start()
        try:
            score = evaluate(params, cfg.task, 128, 1.0, 256, seed=0, n_tasks=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert score == 0.0
        assert peak <= 30e6, f"peak {peak / 1e6:.1f} MB"

    def test_tail_noise_memory_is_bounded(self):
        # With the eos logit at +6 few of 8,192 rollouts outlive the first
        # block, so the tail starts at position 2 and draws its groups'
        # noise to position 256 (52 MB peak).  Drawing every tail group's
        # noise at once would take 121 MB.
        cfg = tiny_config()
        params = init_policy(cfg)
        params.logits[:, EOS] = 6.0
        k, max_len = config.MAX_EVAL_K, config.MAX_EVAL_LEN
        tracemalloc.start()
        try:
            evaluate(params, cfg.task, k, 1.0, max_len, seed=0, n_tasks=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 70e6, f"peak {peak / 1e6:.1f} MB"

    def test_n_tasks_must_be_positive(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="n_tasks must be >= 1"):
            evaluate(init_policy(cfg), cfg.task, 4, 1.0, 12, seed=0, n_tasks=0)

    CAPS = [
        ("k", config.MAX_EVAL_K),
        ("max_len", config.MAX_EVAL_LEN),
        ("n_tasks", config.MAX_EVAL_TASKS),
    ]

    @pytest.mark.parametrize("name,cap", CAPS)
    def test_size_caps(self, name, cap):
        sizes = dict(k=1, max_len=1, n_tasks=1)
        config.check_eval_sizes(**{**sizes, name: cap})
        with pytest.raises(ValueError, match=f"{name} must be <= {cap}, got {cap + 1}"):
            config.check_eval_sizes(**{**sizes, name: cap + 1})

    @pytest.mark.parametrize("name,cap", CAPS)
    def test_size_past_cap_rejected_before_drawing(self, monkeypatch, name, cap):
        def refuse(*args):
            raise AssertionError("drew tasks for sizes past a cap")

        monkeypatch.setattr(tasks, "generate_tasks", refuse)
        cfg = tiny_config()
        sizes = {"k": 1, "max_len": 1, "n_tasks": 1, name: cap + 1}
        with pytest.raises(ValueError, match=f"{name} must be <= {cap}"):
            evaluate(init_policy(cfg), cfg.task, temperature=1.0, seed=0, **sizes)

    def test_context_order_past_any_config_rejected_before_drawing(self, monkeypatch):
        # A checkpoint may hold any order up to 2**32 - 1; sampling at that
        # order would allocate a history of k rows per rollout.
        cfg = tiny_config()
        params = init_policy(cfg)
        params.k = config.MAX_CONTEXT_ORDER
        evaluate(params, cfg.task, 2, 1.0, 4, seed=0, n_tasks=3)

        def refuse(*args):
            raise AssertionError("drew tasks for a policy no config can train")

        monkeypatch.setattr(tasks, "generate_tasks", refuse)
        for k in (config.MAX_CONTEXT_ORDER + 1, 2**32 - 1):
            params.k = k
            with pytest.raises(ValueError, match=f"context order {k} is above"):
                evaluate(params, cfg.task, 2, 1.0, 4, seed=0, n_tasks=3)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eval_k=config.MAX_EVAL_K + 1),
            dict(eval_tasks=config.MAX_EVAL_TASKS + 1),
            dict(stages=(StagePlan(max_response_len=config.MAX_EVAL_LEN + 1),)),
        ],
        ids=["eval_k", "eval_tasks", "max_response_len"],
    )
    def test_config_past_a_cap_rejected_only_with_evaluation(self, overrides):
        tiny_config(**overrides)  # no in-training evaluation: accepted
        with pytest.raises(ValueError, match="eval_every needs eval_k <="):
            tiny_config(eval_every=1, **overrides)


def other_vocabularies():
    """Two tables over token ids other than the tasks': the scaffold with
    eos 0, and a zero table over 20 ids."""
    p = init_policy(TrainConfig(stages=(StagePlan(8),)))
    return [
        PolicyParams(Vocab(14, 0), p.k, p.logits.copy()),
        PolicyParams(Vocab(20, 13), p.k, np.zeros((p.buckets, 20))),
    ]


class TestAnotherVocabularyRejected:
    """A policy over other token ids cannot be scored: its responses would
    be decoded or cut at eos by the tasks' ids.  ``evaluate`` scored the two
    ``other_vocabularies`` 0.0 and 0.00625."""

    MESSAGE = "is not the tasks' 14 ids with eos 13"

    @pytest.mark.parametrize("index", [0, 1], ids=["eos_0", "20_ids"])
    def test_evaluate(self, index):
        params = other_vocabularies()[index]
        with pytest.raises(ValueError, match=self.MESSAGE):
            evaluate(params, TaskSpec(), 8, 1.0, 8, 0, 20)

    @pytest.mark.parametrize("index", [0, 1], ids=["eos_0", "20_ids"])
    def test_collect_batch(self, index):
        params = other_vocabularies()[index]
        cfg = tiny_config(buckets=params.buckets, context_order=params.k)
        with pytest.raises(ValueError, match=self.MESSAGE):
            collect_batch(params, cfg.stages[0], cfg, np.random.default_rng(0), 0)
