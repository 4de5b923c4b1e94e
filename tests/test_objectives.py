
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab.objectives import (
    AdvantageSet,
    Batch,
    clipped_objective,
    filter_mixed_groups,
    response_logprobs,
    shaped_advantages,
)
from rlvrlab.policy import PolicyParams, Vocab

import oracles
from oracles import (
    Context,
    Group,
    Rollout,
    batch_of,
    clipped_term,
    k3_divergence,
    response_buckets,
    sequence_logprobs,
    token_logprob_grad,
)


def make_params(rng, vocab_size=8, k=2, buckets=16, scale=1.0):
    vocab = Vocab(vocab_size, vocab_size - 1)
    return PolicyParams(vocab, k, rng.normal(0, scale, (buckets, vocab_size)))


def make_rollout(rng, params, length):
    query = tuple(int(t) for t in rng.integers(0, params.vocab.size, size=2))
    response = tuple(int(t) for t in rng.integers(0, params.vocab.size, size=length))
    return Rollout(query, response, truncated=params.vocab.eos not in response)


def make_group(rng, old_params, query_id=0, size=None):
    size = size or int(rng.integers(2, 5))
    rollouts = tuple(
        make_rollout(rng, old_params, int(rng.integers(1, 7))) for _ in range(size)
    )
    ones = int(rng.integers(1, size))  # mixed by construction
    rewards = np.zeros(size)
    rewards[rng.permutation(size)[:ones]] = 1.0
    penalties = rng.uniform(0, 1, size)
    return Group(query_id, rollouts, rewards, penalties)


def fd_table_gradient(loss_fn, params, step=1e-5):
    """Central finite differences over every logits entry."""
    grad = np.zeros_like(params.logits)
    for b in range(params.buckets):
        for w in range(params.vocab.size):
            params.logits[b, w] += step
            up = loss_fn(params)
            params.logits[b, w] -= 2 * step
            down = loss_fn(params)
            params.logits[b, w] += step
            grad[b, w] = (up - down) / (2 * step)
    return grad


def ratios_clear_of_clip_edges(groups, params, old_params, eps_low, eps_high, margin=1e-3):
    for g in groups:
        for ro in g.rollouts:
            _, lp_new, _ = sequence_logprobs(params, ro.query, ro.response)
            _, lp_old, _ = sequence_logprobs(old_params, ro.query, ro.response)
            ratio = np.exp(lp_new - lp_old)
            if np.any(np.abs(ratio - (1 - eps_low)) < margin):
                return False
            if np.any(np.abs(ratio - (1 + eps_high)) < margin):
                return False
    return True


class TestShapedAdvantages:
    def test_two_rollout_example(self):
        adv = shaped_advantages([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_allclose(adv.values, [1.0, -1.0], atol=1e-12)
        assert not adv.degenerate

    def test_penalty_shifts_the_shaped_reward(self):
        adv = shaped_advantages([1, 1, 0, 0], [0, 0.5, 0, 0])
        np.testing.assert_allclose(
            adv.values, [1.50755672, 0.30151134, -0.90453403, -0.90453403], atol=1e-6
        )

    def test_zero_variance_is_degenerate(self):
        adv = shaped_advantages([1, 1, 1], [0, 0, 0])
        assert adv.degenerate
        np.testing.assert_array_equal(adv.values, [0, 0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shaped_advantages([1, 0], [0])
        with pytest.raises(ValueError):
            shaped_advantages([1], [0])

    @given(
        st.integers(1, 12),
        st.integers(2, 16),
        st.sampled_from(["uniform", "grid", "zero"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_per_group_calls(self, groups, size, penalty_kind, seed):
        # One call over a (groups, G) array equals one call per group, bit
        # for bit, degenerate groups included.
        rng = np.random.default_rng(seed)
        rewards = rng.integers(0, 2, (groups, size)).astype(float)
        rewards[rng.random(groups) < 0.3] = 1.0  # all-correct groups
        rewards[0] = 1.0
        if penalty_kind == "uniform":
            penalties = rng.uniform(0, 1, (groups, size))
        elif penalty_kind == "grid":
            penalties = rng.choice([0.0, 0.25, 0.5, 1.0], (groups, size))
        else:
            penalties = np.zeros((groups, size))
        rows = shaped_advantages(rewards, penalties)
        assert rows.values.shape == (groups, size)
        assert rows.degenerate.shape == (groups,)
        for i in range(groups):
            one = shaped_advantages(rewards[i], penalties[i])
            assert np.array_equal(rows.values[i], one.values)
            assert bool(rows.degenerate[i]) == bool(one.degenerate)
        if penalty_kind == "zero":
            assert rows.degenerate[0]

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=16),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_moments(self, rewards, data):
        penalties = data.draw(
            st.lists(
                st.floats(0, 1, allow_nan=False),
                min_size=len(rewards),
                max_size=len(rewards),
            )
        )
        adv = shaped_advantages(rewards, penalties)
        if adv.degenerate:
            np.testing.assert_array_equal(adv.values, np.zeros(len(rewards)))
        else:
            assert abs(adv.values.mean()) < 1e-9
            assert abs(adv.values.std() - 1.0) < 1e-6

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=12),
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.1, 10, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_and_scale_invariance(self, rewards, shift, scale):
        base = shaped_advantages(rewards, [0.0] * len(rewards))
        shifted = shaped_advantages([r + shift for r in rewards], [0.0] * len(rewards))
        scaled = shaped_advantages(
            [r * scale for r in rewards], [0.0] * len(rewards)
        )
        np.testing.assert_allclose(base.values, shifted.values, atol=1e-9)
        np.testing.assert_allclose(base.values, scaled.values, atol=1e-9)
        if not base.degenerate:
            assert np.argmax(base.values) == np.argmax(shifted.values)
            assert np.argmax(base.values) == np.argmax(scaled.values)


class TestK3:
    def test_minimum_at_one(self):
        assert k3_divergence(1.0) == 0.0

    def test_reference_values(self):
        assert k3_divergence(2.0) == pytest.approx(0.30685281944)
        assert k3_divergence(0.5) == pytest.approx(0.19314718056)

    def test_rejects_nonpositive(self):
        for rho in (0.0, -1.0):
            with pytest.raises(ValueError):
                k3_divergence(rho)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, rho):
        assert k3_divergence(rho) >= 0.0


class TestClippedTerm:
    def test_reference_values(self):
        assert clipped_term(1.5, 1.0, 0.2, 0.2) == pytest.approx(1.2)
        assert clipped_term(0.5, -1.0, 0.2, 0.2) == pytest.approx(-0.8)

    def test_unit_ratio_passes_advantage_through(self):
        for adv in (-2.0, 0.0, 3.5):
            assert clipped_term(1.0, adv, 0.1, 0.9) == adv

    @given(
        st.floats(0.01, 5.0),
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_in_advantage_and_bounded(self, ratio, a1, a2, lo, hi):
        lo_a, hi_a = min(a1, a2), max(a1, a2)
        assert clipped_term(ratio, lo_a, lo, hi) <= clipped_term(ratio, hi_a, lo, hi)
        if hi_a > 0:
            assert clipped_term(ratio, hi_a, lo, hi) <= (1 + hi) * hi_a


class TestDynamicFilter:
    def test_uniform_groups_dropped_mixed_kept(self):
        rewards = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]], dtype=float)
        assert filter_mixed_groups(rewards).tolist() == [2]
        assert filter_mixed_groups(rewards[:2]).tolist() == []

    def test_exhaustive_patterns_g4(self):
        rewards = np.array(
            [[float((mask >> i) & 1) for i in range(4)] for mask in range(16)]
        )
        kept_patterns = filter_mixed_groups(rewards).tolist()
        assert len(kept_patterns) == 14
        assert 0 not in kept_patterns and 15 not in kept_patterns


class TestTokenMeanObjective:
    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(0)
        params = make_params(rng)
        with pytest.raises(ValueError):
            clipped_objective(batch_of([], params), params, np.empty(0), 0.2, 0.2)

    def test_on_policy_identity(self):
        # With params == old_params every ratio is 1: J is the
        # token-weighted mean advantage and the gradient is the plain
        # advantage-weighted policy gradient divided by the token count.
        rng = np.random.default_rng(5)
        params = make_params(rng)
        groups = [make_group(rng, params, i) for i in range(2)]
        batch = batch_of(groups, params)
        lp_old = response_logprobs(params, batch)
        j, grad = clipped_objective(batch, params, lp_old, 0.2, 0.2)
        # Without lp_old the objective's own log-probs serve as the old
        # ones: the same value and gradient, bit for bit.
        j_own, (rows_own, values_own) = clipped_objective(batch, params, None, 0.2, 0.2)
        assert j_own == j
        assert np.array_equal(rows_own, grad[0]) and np.array_equal(values_own, grad[1])
        grad = oracles.dense(grad, params)

        total = sum(len(r.response) for g in groups for r in g.rollouts)
        expect_j = 0.0
        expect_grad = np.zeros_like(params.logits)
        for g in groups:
            adv = shaped_advantages(g.rewards, g.penalties)
            for a, ro in zip(adv.values, g.rollouts):
                expect_j += a * len(ro.response)
                buckets = response_buckets(params, ro.query, ro.response)
                window = ((params.vocab.begin_marker,) * params.k + ro.query)[-params.k:]
                for t, tok in enumerate(ro.response):
                    b, row_grad = token_logprob_grad(
                        params, Context(params.k, window), tok
                    )
                    assert b == buckets[t]
                    expect_grad[b] += a * row_grad / total
                    window = window[1:] + (tok,)
        assert j == pytest.approx(expect_j / total)
        np.testing.assert_allclose(grad, expect_grad, atol=1e-12)

    def test_degenerate_group_contributes_nothing(self):
        rng = np.random.default_rng(8)
        params = make_params(rng)
        rollouts = tuple(make_rollout(rng, params, 3) for _ in range(3))
        g = Group(0, rollouts, np.ones(3), np.ones(3))  # zero variance
        batch = batch_of([g], params)
        lp_old = response_logprobs(params, batch)
        j, grad = clipped_objective(batch, params, lp_old, 0.2, 0.2)
        grad = oracles.dense(grad, params)
        assert j == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(grad))

    def test_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            rng = np.random.default_rng(seed)
            old = make_params(rng, scale=0.8)
            params = make_params(rng, scale=0.8)
            groups = [make_group(rng, old, i) for i in range(int(rng.integers(1, 3)))]
            if not ratios_clear_of_clip_edges(groups, params, old, 0.2, 0.3):
                continue
            batch = batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            j, grad = clipped_objective(batch, params, lp_old, 0.2, 0.3)
            grad = oracles.dense(grad, params)
            fd = fd_table_gradient(
                lambda p: clipped_objective(batch, p, lp_old, 0.2, 0.3)[0], params
            )
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"seed {seed}: rel err {rel}"
            checked += 1


class TestSequenceMeanObjective:
    def test_beta_zero_equal_lengths_matches_token_mean(self):
        rng = np.random.default_rng(21)
        old = make_params(rng)
        params = make_params(rng)
        ref = old
        groups = []
        for i in range(2):
            rollouts = tuple(make_rollout(rng, old, 4) for _ in range(3))
            rewards = np.array([1.0, 0.0, 0.0])
            groups.append(Group(i, rollouts, rewards, np.zeros(3)))
        batch = batch_of(groups, old)
        lp_old = response_logprobs(old, batch)
        j_seq, g_seq = clipped_objective(
            batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.0
        )
        g_seq = oracles.dense(g_seq, params)
        j_tok, g_tok = clipped_objective(batch, params, lp_old, 0.2, 0.2)
        g_tok = oracles.dense(g_tok, params)
        assert j_seq == pytest.approx(j_tok, rel=1e-12)
        np.testing.assert_allclose(g_seq, g_tok, atol=1e-12)

    def test_ref_equal_params_kills_kl(self):
        rng = np.random.default_rng(22)
        old = make_params(rng)
        params = make_params(rng)
        groups = [make_group(rng, old, 0)]
        ref = params
        batch = batch_of(groups, old)
        lp_old = response_logprobs(old, batch)
        j0, g0 = clipped_objective(
            batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.0
        )
        g0 = oracles.dense(g0, params)
        j1, g1 = clipped_objective(
            batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.7
        )
        g1 = oracles.dense(g1, params)
        assert j0 == pytest.approx(j1, abs=1e-12)
        np.testing.assert_allclose(g0, g1, atol=1e-12)

    def test_length_bias_contrast(self):
        # One short and one long rollout with opposite advantages: the
        # token-mean form tilts toward the long rollout while the
        # sequence-mean form weighs both rollouts equally.
        rng = np.random.default_rng(23)
        params = make_params(rng)
        short = make_rollout(rng, params, 2)
        long = make_rollout(rng, params, 20)
        g = Group(0, (short, long), np.array([1.0, 0.0]), np.zeros(2))
        batch = batch_of([g], params)
        lp_old = response_logprobs(params, batch)
        j_tok, _ = clipped_objective(batch, params, lp_old, 0.2, 0.2)
        j_seq, _ = clipped_objective(batch, params, lp_old, 0.2, 0.2, per_sequence=True)
        assert j_tok == pytest.approx((2 * 1.0 + 20 * -1.0) / 22)
        assert j_seq == pytest.approx(0.0, abs=1e-12)
        assert abs(j_tok - j_seq) > 0.5

    def test_matches_finite_differences_with_kl(self):
        checked = 0
        seed = 100
        while checked < 20:
            seed += 1
            rng = np.random.default_rng(seed)
            old = make_params(rng, scale=0.8)
            params = make_params(rng, scale=0.8)
            ref = make_params(rng, scale=0.8)
            groups = [make_group(rng, old, i) for i in range(int(rng.integers(1, 3)))]
            if not ratios_clear_of_clip_edges(groups, params, old, 0.2, 0.2):
                continue
            batch = batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            j, grad = clipped_objective(
                batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.04
            )
            grad = oracles.dense(grad, params)
            fd = fd_table_gradient(
                lambda p: clipped_objective(
                    batch, p, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.04
                )[0],
                params,
            )
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"seed {seed}: rel err {rel}"
            checked += 1


def unfilled(buckets):
    """``buckets`` with the first position of the first row emptied: every
    response ``make_group`` draws holds at least one token."""
    out = buckets.copy()
    out[0, 0] = -1
    return out


class TestBatch:
    """Groups of 2, 4 and 3 rollouts, and every check of ``Batch`` rejecting
    one malformed field."""

    @staticmethod
    def fields():
        rng = np.random.default_rng(3)
        params = make_params(rng)
        groups = [make_group(rng, params, i, size) for i, size in enumerate((2, 4, 3))]
        batch = batch_of(groups, params)
        return {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)}

    def test_ragged_groups_accepted(self):
        batch = Batch(**self.fields())
        assert batch.sizes.tolist() == [2, 4, 3]
        assert batch.tokens.shape[0] == len(batch.rewards) == 9

    @pytest.mark.parametrize(
        "name,change,message",
        [
            ("rewards", lambda a: a[:-1], "per-rollout arrays must align"),
            ("penalties", lambda a: a[:-1], "per-rollout arrays must align"),
            ("buckets", lambda a: a[:, :-1], "must be 2-D arrays of one shape"),
            ("buckets", unfilled, "buckets must hold a bucket exactly where tokens hold a token"),
            ("sizes", lambda a: np.array([2, 1, 6]), "a group needs at least 2 rollouts"),
            ("sizes", lambda a: np.array([2, 4, 4]), "group sizes sum to 10, not 9 rollouts"),
        ],
        ids=[
            "short_rewards",
            "short_penalties",
            "narrow_buckets",
            "unfilled_bucket",
            "one_rollout_group",
            "sizes_past_rows",
        ],
    )
    def test_malformed_batch_rejected(self, name, change, message):
        fields = self.fields()
        fields[name] = change(fields[name])
        with pytest.raises(ValueError, match=re.escape(message)):
            Batch(**fields)


class TestRefModel:
    """The K3 reference: a ``PolicyParams`` of the policy's own shape."""

    @pytest.mark.parametrize(
        "shape",
        [dict(k=3), dict(buckets=23), dict(vocab_size=9)],
        ids=["k", "buckets", "vocab"],
    )
    def test_reference_of_another_shape_rejected(self, shape):
        # The K3 term reads the reference at the policy's own buckets, so a
        # reference must share the policy's vocabulary, order and table size.
        rng = np.random.default_rng(3)
        params = make_params(rng)
        batch = batch_of([make_group(rng, params)], params)
        ref = make_params(rng, **shape)
        with pytest.raises(ValueError, match="reference .* differs from the policy's"):
            clipped_objective(
                batch, params, None, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.1
            )

    @pytest.mark.parametrize("per_sequence", [False, True])
    def test_beta_without_reference_rejected(self, per_sequence):
        # The K3 term enters if and only if a reference is passed, so a
        # weight for it without one would be silently ignored.
        rng = np.random.default_rng(4)
        params = make_params(rng)
        batch = batch_of([make_group(rng, params)], params)
        with pytest.raises(ValueError, match="needs a ref"):
            clipped_objective(batch, params, None, 0.2, 0.2, per_sequence, beta=0.1)


def oracle_batch(rng, old):
    """Groups of random size and response length (empty responses
    included), a quarter of them degenerate: every advantage zero."""
    groups = []
    for i in range(int(rng.integers(1, 6))):
        size = int(rng.integers(2, 6))
        rollouts = tuple(
            make_rollout(rng, old, int(rng.integers(0, 13))) for _ in range(size)
        )
        if rng.random() < 0.25:
            rewards, penalties = np.ones(size), np.full(size, 0.5)
        else:
            rewards = rng.integers(0, 2, size).astype(float)
            penalties = rng.uniform(0, 1, size)
        groups.append(Group(i, rollouts, rewards, penalties))
    return groups


def current_params(rng, old, regime):
    """The policy being optimized: equal to ``old`` (every ratio 1), near it
    (ratios on both sides of the clip bounds), or unrelated to it."""
    if regime == 0:
        return old
    if regime == 1:
        return PolicyParams(old.vocab, old.k, old.logits + rng.normal(0, 0.2, old.logits.shape))
    return make_params(rng)


class TestPackedObjectiveMatchesOracle:
    """Both weightings of the objective against the per-rollout loops in
    ``oracles``: the same gradient bit for bit, the same value up to
    summation order."""

    def test_token_mean(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            old = make_params(rng)
            params = current_params(rng, old, seed % 3)
            groups = oracle_batch(rng, old)
            eps_low, eps_high = (float(e) for e in rng.uniform(0.05, 0.5, 2))
            batch = batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            if not any(ro.response for g in groups for ro in g.rollouts):
                with pytest.raises(ValueError):
                    clipped_objective(batch, params, lp_old, eps_low, eps_high)
                continue
            j, grad = clipped_objective(batch, params, lp_old, eps_low, eps_high)
            grad = oracles.dense(grad, params)
            want_j, want_grad = oracles.token_mean_objective(
                groups, params, old, eps_low, eps_high
            )
            assert np.array_equal(grad, want_grad), f"seed {seed}"
            assert abs(j - want_j) <= 1e-12, f"seed {seed}"

    def test_sequence_mean_with_k3(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            old = make_params(rng)
            params = current_params(rng, old, seed % 3)
            groups = oracle_batch(rng, old)
            ref = make_params(rng)  # a distinct reference
            beta, eps = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.05, 0.5))
            batch = batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            j, grad = clipped_objective(
                batch, params, lp_old, eps, eps, per_sequence=True, ref=ref, beta=beta
            )
            grad = oracles.dense(grad, params)
            want_j, want_grad = oracles.sequence_mean_objective(
                groups, params, old, ref, beta, eps
            )
            assert np.array_equal(grad, want_grad), f"seed {seed}"
            assert abs(j - want_j) <= 1e-12, f"seed {seed}"

    def test_rows_are_the_touched_buckets(self):
        # The gradient's rows are the distinct buckets of every context in
        # the batch, sorted, degenerate groups included.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            old = make_params(rng)
            params = current_params(rng, old, seed % 3)
            groups = oracle_batch(rng, old)
            nonempty = [ro for g in groups for ro in g.rollouts if ro.response]
            if not nonempty:
                continue
            want = np.unique(
                np.concatenate(
                    [response_buckets(params, ro.query, ro.response) for ro in nonempty]
                )
            )
            ref = make_params(rng)
            batch = batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            for _, (rows, values) in (
                clipped_objective(batch, params, lp_old, 0.2, 0.28),
                clipped_objective(
                    batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.1
                ),
            ):
                assert np.array_equal(rows, want), f"seed {seed}"
                assert values.shape == (len(want), params.vocab.size)

    def test_all_empty_responses(self):
        rng = np.random.default_rng(0)
        params = make_params(rng)
        rollouts = tuple(make_rollout(rng, params, 0) for _ in range(3))
        groups = [Group(0, rollouts, np.array([1.0, 0.0, 0.0]), np.zeros(3))]
        ref = make_params(rng)
        batch = batch_of(groups, params)
        lp_old = response_logprobs(params, batch)
        j, grad = clipped_objective(
            batch, params, lp_old, 0.2, 0.2, per_sequence=True, ref=ref, beta=0.5
        )
        grad = oracles.dense(grad, params)
        assert j == 0.0
        assert not grad.any()
        with pytest.raises(ValueError):
            clipped_objective(batch, params, lp_old, 0.2, 0.2)
