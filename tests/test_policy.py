import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab import policy
from rlvrlab.objectives import clipped_objective, response_logprobs
from rlvrlab.policy import (
    FIRST_BLOCK,
    PolicyParams,
    Vocab,
    bucket_of,
    load_checkpoint,
    sample_groups,
    sample_response,
    save_checkpoint,
)

import oracles
from oracles import (
    Context,
    Group,
    bucket,
    padded_queries,
    reference_sample,
    token_logprob,
    token_logprob_grad,
)


def random_params(rng, vocab_size=8, k=3, buckets=32, scale=1.0):
    vocab = Vocab(vocab_size, vocab_size - 1)
    logits = rng.normal(0, scale, size=(buckets, vocab_size))
    return PolicyParams(vocab, k, logits)


def fd_row_gradient(params, ctx, tok, step=1e-5):
    """Central finite differences of token_logprob over the context's row."""
    b = bucket(params, ctx)
    grad = np.zeros(params.vocab.size)
    for w in range(params.vocab.size):
        params.logits[b, w] += step
        up = token_logprob(params, ctx, tok)
        params.logits[b, w] -= 2 * step
        down = token_logprob(params, ctx, tok)
        params.logits[b, w] += step
        grad[w] = (up - down) / (2 * step)
    return grad


class TestVocabAndContext:
    def test_vocab_validation(self):
        with pytest.raises(ValueError):
            Vocab(1, 0)
        with pytest.raises(ValueError):
            Vocab(4, 4)
        assert Vocab(4, 3).begin_marker == 4

    def test_context_window_must_match_order(self):
        with pytest.raises(ValueError):
            Context(3, (1, 2))

    def test_bucket_deterministic_and_in_range(self):
        for buckets in (7, 64, 4096):
            b = bucket_of((1, 2, 3), buckets)
            assert 0 <= b < buckets
            assert b == bucket_of((1, 2, 3), buckets)


class TestTokenLogprob:
    def test_uniform_logits_give_log_inverse_vocab(self):
        params = PolicyParams.uniform(Vocab(8, 7), 3, 64)
        ctx = Context(3, (8, 8, 8))
        for tok in range(8):
            assert token_logprob(params, ctx, tok) == pytest.approx(-math.log(8))

    def test_dominant_logit_beats_the_rest(self):
        params = PolicyParams.uniform(Vocab(8, 7), 3, 16)
        ctx = Context(3, (0, 1, 2))
        params.logits[bucket(params, ctx), 0] = 5.0
        top = token_logprob(params, ctx, 0)
        assert all(token_logprob(params, ctx, t) < top for t in range(1, 8))

    def test_two_token_softmax_value(self):
        params = PolicyParams(Vocab(2, 1), 3, np.tile([1.0, 2.0], (4, 1)))
        got = token_logprob(params, Context(3, (0, 0, 0)), 1)
        assert got == pytest.approx(-math.log(1 + math.exp(-1)), abs=1e-12)

    def test_distribution_normalizes(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, scale=3.0)
        for trial in range(20):
            ctx = Context(3, tuple(rng.integers(0, 9, size=3)))
            total = sum(
                math.exp(token_logprob(params, ctx, t)) for t in range(8)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_token_and_nonfinite_row(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        with pytest.raises(ValueError):
            token_logprob(params, Context(2, (0, 0)), 4)
        params.logits[bucket(params, (0, 0)), 1] = np.nan
        with pytest.raises(ValueError):
            token_logprob(params, Context(2, (0, 0)), 0)

    def test_row_maxima_match_the_per_row_reduction(self):
        # log_softmax_at takes its row maxima across rows.  A maximum does
        # not depend on the order of the reduction, except in which zero a
        # tie of +0.0 and -0.0 returns, and that sign reaches no softmax
        # value and only the sign of a zero log-prob.
        rng = np.random.default_rng(3)
        big = np.finfo(np.float64).max
        specials = np.array([0.0, -0.0, 1e308, -1e308, big, -big, 5e-324, -5e-324])
        ties = 0
        for trial in range(300):
            n, v = int(rng.integers(0, 600)), int(rng.integers(1, 20))
            rows = rng.normal(0.0, 10.0, (n, v))
            if trial % 3:
                rows = -np.abs(rows)  # maxima at the zeros
            mask = rng.random((n, v)) < rng.uniform(0.0, 0.9)
            rows[mask] = rng.choice(specials, int(mask.sum()))
            toks = rng.integers(0, v, n)
            old = rows.max(axis=1)
            new = np.ascontiguousarray(rows.T).max(axis=0)
            zeros = rows == 0
            tie = (
                (old == 0)
                & (zeros & np.signbit(rows)).any(axis=1)
                & (zeros & ~np.signbit(rows)).any(axis=1)
            )
            ties += int(tie.sum())
            assert np.array_equal(old, new)
            assert np.array_equal(old[~tie].view(np.int64), new[~tie].view(np.int64))
            with np.errstate(over="ignore"):
                logprobs, probs = policy.log_softmax_at(rows, toks)
                expd = np.exp(rows - old[:, None])
                denom = expd.sum(axis=1)
                want_lp = rows[np.arange(n), toks] - old - np.log(denom)
            want_probs = expd / denom[:, None]
            assert np.array_equal(probs.view(np.int64), want_probs.view(np.int64))
            assert np.array_equal(logprobs, want_lp)
            same_bits = logprobs.view(np.int64) == want_lp.view(np.int64)
            assert (same_bits | (tie & (want_lp == 0))).all()
        assert ties > 100

    def test_table_rejects_nonfinite_at_construction(self):
        logits = np.zeros((4, 4))
        logits[2, 1] = np.inf
        with pytest.raises(ValueError):
            PolicyParams(Vocab(4, 3), 2, logits)

    def test_table_rejects_zero_buckets(self):
        # The sampler hashes every window modulo the number of buckets.
        with pytest.raises(ValueError, match="at least one bucket"):
            PolicyParams(Vocab(4, 3), 2, np.zeros((0, 4)))


class TestTokenLogprobGrad:
    def test_uniform_gradient_is_centered_onehot(self):
        params = PolicyParams.uniform(Vocab(4, 3), 3, 16)
        _, grad = token_logprob_grad(params, Context(3, (0, 0, 0)), 2)
        np.testing.assert_allclose(grad, [-0.25, -0.25, 0.75, -0.25], atol=1e-12)

    def test_row_sums_to_zero(self):
        rng = np.random.default_rng(11)
        params = random_params(rng, scale=2.0)
        for trial in range(20):
            ctx = Context(3, tuple(rng.integers(0, 9, size=3)))
            tok = int(rng.integers(0, 8))
            _, grad = token_logprob_grad(params, ctx, tok)
            assert abs(grad.sum()) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            params = random_params(rng, scale=2.0)
            ctx = Context(3, tuple(rng.integers(0, 9, size=3)))
            tok = int(rng.integers(0, 8))
            b, grad = token_logprob_grad(params, ctx, tok)
            assert b == bucket(params, ctx)
            fd = fd_row_gradient(params, ctx, tok)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-6


class TestSampleResponse:
    def test_cap_is_enforced(self):
        params = PolicyParams.uniform(Vocab(6, 5), 3, 16)
        params.logits[:, 5] = -20.0  # eos effectively never sampled
        for seed in range(5):
            response = sample_response(params, (0,), 5, 1.0, np.random.default_rng(seed))
            assert len(response) <= 5
            assert (response[-1] != 5) == (5 not in response)

    def test_same_seed_same_rollout(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        params = PolicyParams.uniform(Vocab(6, 5), 3, 16)
        a = sample_response(params, (1, 2), 12, 1.0, rng_a)
        b = sample_response(params, (1, 2), 12, 1.0, rng_b)
        assert a == b

    def test_truncated_iff_no_eos(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        rng = np.random.default_rng(5)
        for trial in range(50):
            response = sample_response(params, (0,), 4, 1.0, rng)
            truncated = response[-1] != 3
            assert truncated == (3 not in response)
            if not truncated:
                assert 3 not in response[:-1]

    def test_objective_takes_old_logprobs_at_temperature_one(self):
        # Rollouts sampled at temperature 0.25 with the old table equal to
        # the new one: the oracle's ratios are exactly 1, so the packed
        # objective's gradient equals it only if it too takes the old
        # log-probs from the unscaled table.
        rng = np.random.default_rng(9)
        params = random_params(rng, vocab_size=6, scale=1.5)
        queries = [(0, 1), (2,), (3, 4), ()]
        tokens, _ = sample_groups(
            params,
            padded_queries(queries, params.vocab.begin_marker),
            4,
            8,
            0.25,
            [np.random.default_rng(i) for i in range(4)],
        )
        groups = [
            Group(
                g,
                oracles.rollouts_from(query, tokens[4 * g : 4 * g + 4], params.vocab.eos),
                np.array([1.0, 0.0, 1.0, 0.0]),
                rng.uniform(0, 1, 4),
            )
            for g, query in enumerate(queries)
        ]
        batch = oracles.batch_of(groups, params)
        lp_old = response_logprobs(params, batch)
        got_j, got_grad = clipped_objective(batch, params, lp_old, 0.2, 0.28)
        got_grad = oracles.dense(got_grad, params)
        want_j, want_grad = oracles.token_mean_objective(
            groups, params, params.copy(), 0.2, 0.28
        )
        assert np.any(got_grad != 0)
        assert np.array_equal(got_grad, want_grad)
        assert got_j == pytest.approx(want_j, abs=1e-12)

    def test_parameter_validation(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_response(params, (0,), 0, 1.0, rng)
        with pytest.raises(ValueError):
            sample_response(params, (0,), 5, 0.0, rng)
        with pytest.raises(ValueError):
            sample_response(params, (0,), 5, -1.0, rng)
        # nan passes a plain ``<= 0`` test, and inf scales every row to
        # zero, a uniform draw; both are rejected.
        queries = np.zeros((1, 1), dtype=np.int64)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                sample_groups(params, queries, 2, 5, bad, [rng])

    def test_nonfinite_row_rejected(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        params.logits[bucket(params, (4, 0)), 2] = -np.inf
        with pytest.raises(ValueError):
            sample_response(params, (0,), 5, 1.0, np.random.default_rng(0))

    @staticmethod
    def counting_params():
        # After token w the policy all but surely emits w + 1, so the query
        # (0,) reads the rows of contexts (0,) .. (6,) at positions 0 .. 6
        # and stops at eos 7; the row of context (7,) is never read.
        params = PolicyParams.uniform(Vocab(8, 7), 1, 64)
        for w in range(7):
            params.logits[bucket(params, (w,)), w + 1] = 50.0
        return params

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_nonfinite_row_past_first_block_rejected(self, bad):
        params = self.counting_params()
        rng = np.random.default_rng(0)
        assert sample_response(params, (0,), 10, 1.0, rng) == tuple(range(1, 8))
        # First read at position 5, in the second block of noise.
        assert 5 >= FIRST_BLOCK
        params.logits[bucket(params, (5,)), 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))
        rngs = [np.random.default_rng(i) for i in (1, 2)]
        with pytest.raises(ValueError, match="non-finite"):
            sample_groups(params, np.array([[3], [0]]), 2, 10, 1.0, rngs)

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    def test_nonfinite_row_never_read_accepted(self, bad):
        params = self.counting_params()
        want = sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))
        params.logits[bucket(params, (7,)), :] = bad
        # Rows of no context of this vocabulary, the last of them the one a
        # -1 past the rollout's end would name if it indexed the table.
        params.logits[40:, 3] = bad
        got = sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))
        assert got == want

    @pytest.mark.parametrize("max_len", [1, 2, 3, 7])
    def test_row_read_only_at_the_last_position_is_checked(self, max_len):
        # Query (0,) reads the rows of contexts (0,) .. (max_len - 1,), the
        # last of them only at its last position; the row of context
        # (max_len,) is never read.
        params = self.counting_params()
        want = sample_response(params, (0,), max_len, 1.0, np.random.default_rng(0))
        assert want == tuple(range(1, max_len + 1))
        params.logits[bucket(params, (max_len,)), :] = np.nan
        got = sample_response(params, (0,), max_len, 1.0, np.random.default_rng(0))
        assert got == want
        params.logits[bucket(params, (max_len - 1,)), 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sample_response(params, (0,), max_len, 1.0, np.random.default_rng(0))

    def test_row_read_by_one_rollout_of_a_later_group_is_checked(self):
        # After token 0 the policy emits 1 or 5 with even odds, so a rollout
        # of query (0,) reads the row of context (2,), at position 2, only
        # if it took the branch through 1.  Query (3,) never reads it.
        params = self.counting_params()
        params.logits[bucket(params, (0,)), 5] = 50.0
        row = bucket(params, (2,))

        def sample():
            rngs = [np.random.default_rng([0, g]) for g in range(2)]
            return sample_groups(params, np.array([[3], [0]]), 4, 10, 1.0, rngs)

        tokens, buckets = sample()
        assert tokens[:, 0].tolist() == [4, 4, 4, 4, 1, 5, 5, 5]
        assert np.argwhere(buckets == row).tolist() == [[4, 2]]
        assert 2 >= FIRST_BLOCK
        params.logits[bucket(params, (7,)), :] = np.nan  # never read
        np.testing.assert_array_equal(sample()[0], tokens)
        params.logits[row, 0] = -np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sample()

    def test_matches_token_at_a_time_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(300):
            vocab_size = int(rng.integers(2, 12))
            params = PolicyParams(
                Vocab(vocab_size, int(rng.integers(0, vocab_size))),
                int(rng.integers(1, 5)),
                rng.normal(
                    0, rng.uniform(0.1, 4.0), (int(rng.integers(1, 40)), vocab_size)
                ),
            )
            query = tuple(rng.integers(0, vocab_size, int(rng.integers(0, 6))).tolist())
            max_len = int(rng.integers(1, 30))
            temperature = float(rng.uniform(0.2, 3.0))
            seed = int(rng.integers(1 << 31))
            want = reference_sample(
                params, query, max_len, temperature, np.random.default_rng(seed)
            )
            tokens, _ = sample_groups(
                params,
                padded_queries([query], params.vocab.begin_marker),
                1,
                max_len,
                temperature,
                [np.random.default_rng(seed)],
            )
            (got,) = oracles.rollouts_from(query, tokens, params.vocab.eos)
            assert got == want
            response = sample_response(
                params, query, max_len, temperature, np.random.default_rng(seed)
            )
            assert response == want.response


class TestSampleGroups:
    def test_shapes(self):
        rng = np.random.default_rng(8)
        params = random_params(rng, vocab_size=5, scale=1.0)
        rngs = [np.random.default_rng(i) for i in range(2)]
        queries = padded_queries([(0, 1), (2,)], params.vocab.begin_marker)
        tokens, buckets = sample_groups(params, queries, 3, 7, 0.7, rngs)
        assert tokens.shape == buckets.shape == (6, 7)
        for g, query in enumerate([(0, 1), (2,)]):
            group = oracles.rollouts_from(query, tokens[3 * g : 3 * g + 3], 4)
            assert len(group) == 3
            for ro in group:
                assert ro.query == query and 1 <= len(ro.response) <= 7
                assert ro.truncated == (4 not in ro.response)

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 5),
        vocab_size=st.integers(2, 10),
        buckets=st.sampled_from([1, 7, 64, 16384]),
        group_size=st.integers(1, 4),
        max_len=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_buckets_are_the_context_buckets(
        self, order, vocab_size, buckets, group_size, max_len, seed, data
    ):
        # The bucket array holds the bucket of every context of the queries
        # and the returned tokens, hashed one context at a time, and both
        # arrays hold -1 exactly past each rollout's last token.
        rng = np.random.default_rng(seed)
        params = random_params(rng, vocab_size, order, buckets, scale=2.0)
        queries = data.draw(
            st.lists(
                st.lists(st.integers(0, vocab_size - 1), max_size=6).map(tuple),
                min_size=1,
                max_size=4,
            )
        )
        rngs = [np.random.default_rng([seed, i]) for i in range(len(queries))]
        padded = padded_queries(queries, params.vocab.begin_marker)
        tokens, got = sample_groups(params, padded, group_size, max_len, 1.0, rngs)
        rows = np.repeat(padded, group_size, axis=0)
        assert got.shape == tokens.shape == (len(rows), max_len)
        assert np.array_equal(got, oracles.row_buckets(params, rows, tokens))
        lengths = (tokens >= 0).sum(axis=1)
        assert (lengths >= 1).all()
        assert np.array_equal(tokens >= 0, np.arange(max_len) < lengths[:, None])

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 5),
        vocab_size=st.integers(2, 10),
        buckets=st.sampled_from([1, 7, 64, 16384]),
        group_size=st.integers(1, 4),
        max_len=st.integers(1, 20),
        temperature=st.sampled_from([0.3, 0.7, 1.0, 2.5]),
        eos_bias=st.floats(-3.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_per_position_lockstep_oracle(
        self, order, vocab_size, buckets, group_size, max_len, temperature, eos_bias,
        seed, data,
    ):
        # Noise drawn in blocks equals noise drawn one position at a time,
        # bit for bit, wherever the blocks end: mid-rollout, or after some
        # groups have finished.
        rng = np.random.default_rng(seed)
        params = random_params(rng, vocab_size, order, buckets, scale=2.0)
        params.logits[:, params.vocab.eos] += eos_bias
        queries = data.draw(
            st.lists(
                st.lists(st.integers(0, vocab_size - 1), max_size=6).map(tuple),
                min_size=1,
                max_size=5,
            )
        )

        def rngs():
            return [np.random.default_rng([seed, i]) for i in range(len(queries))]

        padded = padded_queries(queries, params.vocab.begin_marker)
        got = sample_groups(params, padded, group_size, max_len, temperature, rngs())
        want = oracles.reference_lockstep(
            params, queries, group_size, max_len, temperature, rngs()
        )
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    @pytest.mark.parametrize(
        "widths", [(1, 1), (2, 16), (3, 5), (4, 8), "max_len"], ids=str
    )
    def test_block_widths_change_no_sample(self, monkeypatch, widths, temperature):
        # Position t of rollout i reads offset (t * group_size + i) * vocab
        # of its group's stream whatever the block widths, so every width
        # gives the per-position oracle's tokens and buckets, stragglers
        # included.
        rng = np.random.default_rng(41)
        capped = stopped = 0
        for trial in range(25):
            vocab_size = int(rng.integers(2, 9))
            params = random_params(
                rng, vocab_size, int(rng.integers(1, 4)), int(rng.integers(1, 50)), 2.0
            )
            # Most rollouts stop soon; a few run to the cap.
            params.logits[:, params.vocab.eos] += rng.uniform(-4.0, 2.0)
            max_len = int(rng.integers(1, 40))
            group_size = int(rng.integers(1, 6))
            queries = [
                tuple(rng.integers(0, vocab_size, int(rng.integers(0, 4))).tolist())
                for _ in range(int(rng.integers(1, 6)))
            ]
            seed = int(rng.integers(1 << 31))

            def rngs():
                return [np.random.default_rng([seed, i]) for i in range(len(queries))]

            first, block = (max_len, max_len) if widths == "max_len" else widths
            monkeypatch.setattr(policy, "FIRST_BLOCK", first)
            monkeypatch.setattr(policy, "BLOCK", block)
            padded = padded_queries(queries, params.vocab.begin_marker)
            got = sample_groups(params, padded, group_size, max_len, temperature, rngs())
            want = oracles.reference_lockstep(
                params, queries, group_size, max_len, temperature, rngs()
            )
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            ended = (got[0] == params.vocab.eos).any(axis=1)
            capped += int((~ended).sum()) if max_len > 1 else 0
            stopped += int(ended.sum())
        assert capped > 5 and stopped > 5

    def test_generator_advances_past_the_block(self):
        # Every rollout stops at its first token, but the generator has
        # drawn the whole first block of noise.
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        params.logits[:, 3] = 50.0
        rng = np.random.default_rng(0)
        tokens, _ = sample_groups(params, np.array([[0]]), 2, 10, 1.0, [rng])
        assert tokens[:, 0].tolist() == [3, 3] and (tokens[:, 1:] == -1).all()
        skipped = np.random.default_rng(0)
        skipped.random((FIRST_BLOCK, 2, 4))
        assert rng.random() == skipped.random()

    @pytest.mark.parametrize("shift", [0.0, -10.0])
    @pytest.mark.parametrize("temperature", [1e-2, 1e-310, 5e-324])
    def test_tiny_temperature_samples_the_largest_logit(self, temperature, shift):
        # Over a subnormal temperature every entry overflows to +-inf, where
        # the noise breaks no tie: the draw must stay greedy rather than
        # take the lowest token id, and raise no overflow warning.
        params = PolicyParams.uniform(Vocab(5, 4), 2, 8)
        params.logits[:] = np.array([1.0, -1.0, 2.0, 0.5, -2.0]) + shift
        rngs = [np.random.default_rng(i) for i in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tokens, _ = sample_groups(
                params, np.array([[0], [1], [2]]), 4, 12, temperature, rngs
            )
        assert (tokens == 2).all()

    def test_generator_count_must_match(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        with pytest.raises(ValueError):
            sample_groups(
                params, np.array([[0], [1]]), 2, 5, 1.0, [np.random.default_rng(0)]
            )

    def test_queries_must_be_rows_of_an_array(self):
        params = PolicyParams.uniform(Vocab(4, 3), 2, 8)
        with pytest.raises(ValueError, match="2-D"):
            sample_groups(params, np.array([0, 1]), 2, 5, 1.0, [np.random.default_rng(0)])


class _RecordingTable(np.ndarray):
    """A logits table that records the rows each ``take`` gathers."""

    def take(self, indices, axis=None, out=None, mode="raise"):
        self.reads.append(np.array(indices).ravel())
        return np.asarray(self).take(indices, axis=axis, out=out, mode=mode)


def recording(params):
    """Give ``params`` a table that records its gathers; returns the list
    of the rows gathered, one array per ``take``."""
    params.logits = params.logits.view(_RecordingTable)
    params.logits.reads = []
    return params.logits.reads


class TestSamplerTail:
    """A block after the first that starts with at most ``TAIL_LIVE`` live
    rollouts runs to the end of the call, settled by fixed-point passes:
    every token and bucket is the loop's, and so is every accept or
    reject."""

    @pytest.mark.parametrize("temperature", [1.0, 0.6])
    @pytest.mark.parametrize("tail_live", [0, 32, 10**9], ids=["never", "default", "always"])
    def test_tail_changes_no_sample(self, monkeypatch, tail_live, temperature):
        rng = np.random.default_rng(43)
        monkeypatch.setattr(policy, "TAIL_LIVE", tail_live)
        capped = ended_in_tail = 0
        for trial in range(25):
            vocab_size = int(rng.integers(2, 9))
            params = random_params(
                rng, vocab_size, int(rng.integers(1, 4)), int(rng.integers(1, 50)), 2.0
            )
            params.logits[:, params.vocab.eos] += rng.uniform(-4.0, 1.0)
            max_len = int(rng.integers(3, 40))
            group_size = int(rng.integers(1, 6))
            queries = [
                tuple(rng.integers(0, vocab_size, int(rng.integers(0, 4))).tolist())
                for _ in range(int(rng.integers(1, 10)))
            ]
            seed = int(rng.integers(1 << 31))

            def rngs():
                return [np.random.default_rng([seed, i]) for i in range(len(queries))]

            padded = padded_queries(queries, params.vocab.begin_marker)
            got = sample_groups(params, padded, group_size, max_len, temperature, rngs())
            want = oracles.reference_lockstep(
                params, queries, group_size, max_len, temperature, rngs()
            )
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            ended = (got[0] == params.vocab.eos).any(axis=1)
            lengths = (got[0] >= 0).sum(axis=1)
            capped += int((~ended).sum())
            ended_in_tail += int((ended & (lengths > FIRST_BLOCK + 1)).sum())
        assert capped > 5 and ended_in_tail > 5

    def test_group_alone_and_in_a_crowd_of_long_rollouts(self, monkeypatch):
        # Alone, the group's 4 rollouts take the tail after the first block;
        # among 64 long rollouts they go through the loop first.  The rows
        # must not depend on which.
        rng = np.random.default_rng(5)
        params = random_params(rng, vocab_size=8, k=3, buckets=64, scale=1.0)
        params.logits[:, params.vocab.eos] -= 0.5
        tails = []
        real = policy._sample_block

        def spy(*args):
            live, start, stop = args[-3:]
            if start and live.size <= policy.TAIL_LIVE:
                tails.append((start, live.size))
            return real(*args)

        monkeypatch.setattr(policy, "_sample_block", spy)
        queries = rng.integers(0, 7, (16, 2))

        def rngs(ids):
            return [np.random.default_rng([9, i]) for i in ids]

        crowd = sample_groups(params, queries, 4, 40, 0.6, rngs(range(16)))
        crowd_tails = tails[:]
        tails.clear()
        alone = sample_groups(params, queries[5:6], 4, 40, 0.6, rngs([5]))
        assert tails == [(FIRST_BLOCK, 4)]
        assert crowd_tails and crowd_tails[0][0] > FIRST_BLOCK
        assert (alone[0] >= 0).sum(axis=1).max() > crowd_tails[0][0]
        np.testing.assert_array_equal(alone[0], crowd[0][20:24])
        np.testing.assert_array_equal(alone[1], crowd[1][20:24])

    def test_row_only_a_first_guess_reads_is_accepted(self):
        # The tail's first pass reads each window after its first position
        # from a guess of no token (a 0 in the history, the hash of token
        # -1).  That row is read but no settled position reads it.
        params = TestSampleResponse.counting_params()
        want = sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))
        guess = bucket(params, (-1,))
        assert guess not in {bucket(params, (w,)) for w in range(9)}
        params.logits[guess] = np.nan
        reads = recording(params)
        got = sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))
        assert got == want
        assert guess in np.concatenate(reads)
        # A row that a settled position of the tail reads is rejected.
        params.logits[bucket(params, (4,)), 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sample_response(params, (0,), 10, 1.0, np.random.default_rng(0))

    def test_passes_are_bounded_by_the_tail_width(self):
        # On a sharply peaked table each token is set by the one before, so
        # a pass settles one position: the tail then gathers rows at most
        # once per position, like the loop.  On a flat one a few passes
        # settle every position.  More than TAIL_LIVE rollouts are never
        # settled by passes: each of their positions gathers its rows once.
        query = np.array([[1, 2]])
        max_len = 40
        counts = []
        for scale in (50.0, 0.1):
            rng = np.random.default_rng(3)
            params = random_params(rng, vocab_size=12, k=2, buckets=4096, scale=scale)
            params.logits[:, params.vocab.eos] = -1e3  # every rollout runs to the cap
            want = oracles.reference_lockstep(
                params, [(1, 2)], 1, max_len, 1.0, [np.random.default_rng(0)]
            )
            reads = recording(params)
            got = sample_groups(params, query, 1, max_len, 1.0, [np.random.default_rng(0)])
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            # The first block's positions, the tail's passes, the check.
            counts.append(len(reads) - FIRST_BLOCK - 1)
            queries = rng.integers(0, 11, (10, 2))
            group_size = 4
            assert len(queries) * group_size > policy.TAIL_LIVE
            reads.clear()
            tokens, _ = sample_groups(
                params,
                queries,
                group_size,
                max_len,
                1.0,
                [np.random.default_rng([0, i]) for i in range(len(queries))],
            )
            assert (tokens >= 0).all()
            # Every row each position gathered, not counting the check.
            assert sum(r.size for r in reads[:-1]) == tokens.size == 1600
        peaked, flat = counts
        assert max_len // 2 < peaked <= max_len - FIRST_BLOCK
        assert flat <= 5


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        params = random_params(rng, vocab_size=6, k=2, buckets=11, scale=2.0)
        path = str(tmp_path / "p.ckpt")
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab == params.vocab
        assert loaded.k == params.k
        assert loaded.buckets == params.buckets
        np.testing.assert_array_equal(loaded.logits, params.logits)

    def test_header_is_little_endian_uint32(self, tmp_path):
        params = PolicyParams.uniform(Vocab(5, 4), 2, 3)
        path = str(tmp_path / "p.ckpt")
        save_checkpoint(params, path)
        raw = open(path, "rb").read()
        assert len(raw) == 20 + 8 * 3 * 5
        header = np.frombuffer(raw[:20], dtype="<u4")
        assert list(header) == [2, 2, 3, 5, 4]

    def test_extreme_entries_round_trip_bit_for_bit(self, tmp_path):
        # Past float32's range, and a subnormal below it: the table is
        # stored as trained.
        params = PolicyParams.uniform(Vocab(5, 4), 2, 3)
        params.logits[0, :4] = [4e38, -4e38, -1e300, 5e-324]
        path = str(tmp_path / "p.ckpt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            save_checkpoint(params, path)
            loaded = load_checkpoint(path)
        assert loaded.logits.dtype == np.float64
        assert loaded.logits.tobytes() == params.logits.tobytes()

    def test_version_1_file_loads(self, tmp_path):
        # Runs before version 2 wrote a float32 table; it is read to the
        # float64 values of its float32 entries.
        table = np.array(
            [[0.1, -2.5, 3.4e38], [-3.4e38, 1e-40, 7.0]], dtype="<f4"
        )
        path = tmp_path / "v1.ckpt"
        path.write_bytes(struct.pack("<5I", 1, 3, 2, 3, 2) + table.tobytes())
        loaded = load_checkpoint(str(path))
        assert (loaded.vocab, loaded.k, loaded.buckets) == (Vocab(3, 2), 3, 2)
        assert loaded.logits.dtype == np.float64
        np.testing.assert_array_equal(loaded.logits, table.astype(np.float64))

    @pytest.mark.parametrize(
        "header,reason",
        [
            (struct.pack("<5I", 7, 2, 3, 5, 4), "unsupported checkpoint version 7"),
            (
                struct.pack("<5I", 2, 2, 3, 5, 4),
                "checkpoint size mismatch: expected 140 bytes, got 67108864",
            ),
        ],
        ids=["bad_version", "wrong_size"],
    )
    def test_large_file_with_bad_header_rejected_before_reading(
        self, tmp_path, header, reason
    ):
        # A sparse 64 MB file: the header is checked, and the size taken
        # from the file system, before the table is read.
        path = tmp_path / "big.ckpt"
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=reason):
                load_checkpoint(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"

    def test_save_and_load_hold_no_second_table(self, tmp_path):
        params = PolicyParams.uniform(Vocab(14, 13), 4, 1 << 16)
        params.logits[:] = np.random.default_rng(3).normal(size=params.logits.shape)
        path = str(tmp_path / "p.ckpt")

        def peak(fn):
            tracemalloc.start()
            try:
                result = fn()
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, saved = peak(lambda: save_checkpoint(params, path))
        loaded, read = peak(lambda: load_checkpoint(path))
        table = params.logits.nbytes  # 7.3 MB
        assert saved < 1e6, f"save peak {saved / 1e6:.2f} MB"
        # The table read, and the one-byte-per-entry finiteness check.
        assert read < 1.25 * table, f"load peak {read / 1e6:.2f} MB"
        assert loaded.logits.tobytes() == params.logits.tobytes()

    def test_version_2_load_holds_one_table(self, tmp_path):
        # The finiteness check reads the table's extremes: the table read
        # is the load's only large allocation.
        params = PolicyParams.uniform(Vocab(14, 13), 4, 1 << 16)
        path = str(tmp_path / "p.ckpt")
        save_checkpoint(params, path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            _, read = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = params.logits.nbytes
        assert read < 1.05 * table, f"load peak {read / 1e6:.2f} MB"

    def test_corrupt_files_rejected(self, tmp_path):
        path = str(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError):
            load_checkpoint(path)
        params = PolicyParams.uniform(Vocab(5, 4), 2, 3)
        save_checkpoint(params, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(ValueError):
            load_checkpoint(path)
