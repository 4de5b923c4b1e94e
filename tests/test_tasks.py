import numpy as np
import pytest

from rlvrlab.tasks import (
    EOS,
    EQUALS,
    PLUS,
    TIMES,
    TaskSpec,
    decode_tokens,
    generate_task,
)

from oracles import encode_text


class TestGenerateTask:
    def test_modular_add_structure(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            query, gold = generate_task(TaskSpec("modular-add", 10), rng)
            a, op, b, eq = query
            assert op == PLUS and eq == EQUALS
            assert gold == str((a + b) % 10)

    def test_seeded_example(self):
        rng = np.random.default_rng(123)
        query, gold = generate_task(TaskSpec("modular-add", 10), rng)
        a, _, b, _ = query
        assert decode_tokens(query) == f"{a}+{b}="
        assert gold == str((a + b) % 10)

    def test_gold_is_integer_below_modulus(self):
        rng = np.random.default_rng(1)
        for family in ("modular-add", "modular-mul"):
            for _ in range(200):
                _, gold = generate_task(TaskSpec(family, 7), rng)
                assert 0 <= int(gold) < 7

    def test_residue_distribution_is_uniform_for_modular_add(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(10)
        n = 10_000
        for _ in range(n):
            _, gold = generate_task(TaskSpec("modular-add", 10), rng)
            counts[int(gold)] += 1
        # within 5% relative of the uniform 1/10 at this sample size
        np.testing.assert_allclose(counts / n, 0.1, rtol=0.05)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec("division")
        with pytest.raises(ValueError, match="unknown task family 'digit-sum'"):
            TaskSpec("digit-sum")
        with pytest.raises(ValueError):
            TaskSpec("modular-add", modulus=11)


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
