import numpy as np
import pytest

from rlvrlab.tasks import (
    EOS,
    EQUALS,
    PLUS,
    QUERY_LENGTH,
    TIMES,
    TaskSpec,
    decode_tokens,
    generate_task,
    generate_tasks,
)

import oracles
from oracles import encode_text


class TestGenerateTask:
    @pytest.mark.parametrize("family", ["modular-add", "modular-mul"])
    @pytest.mark.parametrize("modulus", range(2, 11))
    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_equals_per_task_scalar_draws(self, family, modulus, n):
        # One (n, 2) draw gives the queries, golds and generator state of n
        # tasks drawn one at a time with two scalar draws each.
        spec = TaskSpec(family, modulus)
        seed = [modulus, n, family == "modular-mul"]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        queries, golds = generate_tasks(spec, got_rng, n)
        want = [oracles.generate_task(spec, want_rng) for _ in range(n)]
        assert queries.dtype == np.int64 and queries.shape == (n, QUERY_LENGTH)
        assert queries.tolist() == [list(query) for query, _ in want]
        assert golds == [gold for _, gold in want]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_one_task_is_the_one_row_draw(self):
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(20):
            assert generate_task(TaskSpec(), got_rng) == oracles.generate_task(
                TaskSpec(), want_rng
            )
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_modular_add_structure(self):
        queries, golds = generate_tasks(
            TaskSpec("modular-add", 10), np.random.default_rng(0), 50
        )
        for (a, op, b, eq), gold in zip(queries.tolist(), golds):
            assert op == PLUS and eq == EQUALS
            assert gold == str((a + b) % 10)

    def test_seeded_example(self):
        queries, golds = generate_tasks(
            TaskSpec("modular-add", 10), np.random.default_rng(123), 1
        )
        a, _, b, _ = queries[0].tolist()
        assert decode_tokens(queries[0]) == f"{a}+{b}="
        assert golds == [str((a + b) % 10)]

    def test_gold_is_integer_below_modulus(self):
        rng = np.random.default_rng(1)
        for family in ("modular-add", "modular-mul"):
            _, golds = generate_tasks(TaskSpec(family, 7), rng, 200)
            assert all(0 <= int(gold) < 7 for gold in golds)

    def test_residue_distribution_is_uniform_for_modular_add(self):
        n = 10_000
        _, golds = generate_tasks(TaskSpec("modular-add", 10), np.random.default_rng(3), n)
        counts = np.bincount([int(gold) for gold in golds], minlength=10)
        # within 5% relative of the uniform 1/10 at this sample size
        np.testing.assert_allclose(counts / n, 0.1, rtol=0.05)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec("division")
        with pytest.raises(ValueError, match="unknown task family 'digit-sum'"):
            TaskSpec("digit-sum")
        with pytest.raises(ValueError):
            TaskSpec("modular-add", modulus=11)
        with pytest.raises(ValueError, match=r"^family must be a string, got \['modular-add'\]$"):
            TaskSpec(["modular-add"])

    @pytest.mark.parametrize("modulus", [7.5, 7.0, True, "7"], ids=repr)
    def test_non_integer_modulus_rejected(self, modulus):
        # Built directly, as from a config file: a float modulus would make
        # golds such as '3.0' that no integer answer matches.
        with pytest.raises(ValueError, match=f"^modulus must be an integer, got {modulus!r}$"):
            TaskSpec("modular-add", modulus=modulus)


class TestEncoding:
    def test_decode_stops_at_eos(self):
        assert decode_tokens([3, PLUS, 4, EQUALS, 7, EOS, 9]) == "3+4=7"

    def test_round_trip(self):
        text = "9*3="
        assert decode_tokens(encode_text(text)) == text

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError):
            encode_text("3-4")

    def test_times_token(self):
        assert decode_tokens([2, TIMES, 5, EQUALS]) == "2*5="
