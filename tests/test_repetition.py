import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab.repetition import detect_loop, repetition_score


def brute_force_loop(tokens, min_period=1, min_repeats=3):
    """Independent oracle: scan every (start, period) pair directly, and
    return the first start that qualifies.

    The suffix is periodic with period p exactly when it equals itself
    shifted by p, which the slice comparison states verbatim.
    """
    for start in range(len(tokens)):
        suffix = tuple(tokens[start:])
        m = len(suffix)
        for period in range(min_period, m + 1):
            if m // period >= min_repeats and suffix[period:] == suffix[: m - period]:
                return start
    return None


def brute_force_score(tokens, min_period=1, min_repeats=3):
    start = brute_force_loop(tokens, min_period, min_repeats)
    return 0.0 if start is None else (len(tokens) - start) / len(tokens)


class TestDetectLoop:
    def test_all_distinct_has_no_loop(self):
        assert detect_loop([1, 2, 3, 4, 5]) is None

    def test_constant_sequence(self):
        assert detect_loop([7] * 6) == 0

    def test_prefixed_loop_with_partial_tail(self):
        # 3 full copies of (1,2,3) plus the partial (1,2) tail, from index 2.
        tokens = [9, 8, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]
        assert detect_loop(tokens) == 2
        assert detect_loop(tokens, min_repeats=4) is None

    def test_min_period_skips_short_blocks(self):
        # With blocks of 2 or more, 5 copies of one token hold only 2 full
        # blocks of (5, 5), and 6 copies hold 3.
        assert detect_loop([5] * 5) == 0
        assert detect_loop([5] * 5, min_period=2) is None
        assert detect_loop([5] * 6, min_period=2) == 0

    def test_min_repeats_gate(self):
        assert detect_loop([1, 2, 1, 2]) is None  # only 2 copies
        assert detect_loop([1, 2, 1, 2, 1, 2]) == 0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            detect_loop([])

    def test_matches_oracle_on_fixed_cases(self):
        cases = [
            [1],
            [1, 1, 1],
            [0, 1, 0, 1, 0, 1, 0],
            [2, 0, 0, 0, 0],
            [1, 2, 3, 1, 2, 3],
            [4, 4, 4, 4, 5],
            [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2],
        ]
        for tokens in cases:
            assert detect_loop(tokens) == brute_force_loop(tokens), tokens


class TestRepetitionScore:
    def test_no_repetition_scores_zero(self):
        assert repetition_score([3, 1, 4, 1, 5, 9, 2, 6]) == 0.0

    def test_whole_sequence_loop_scores_one(self):
        assert repetition_score([2, 2, 2, 2]) == 1.0

    def test_thirteen_token_example(self):
        tokens = [9, 8, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]
        assert repetition_score(tokens) == pytest.approx(11 / 13)
        assert repetition_score(tokens) == pytest.approx(brute_force_score(tokens))

    def test_earlier_loops_score_higher_at_equal_length(self):
        late = [9, 9, 9, 1, 2, 1, 2, 1, 2]  # loop of period 2 starts at 3
        early = [1, 2, 1, 2, 1, 2, 1, 2, 1]  # same length, loop starts at 0
        assert repetition_score(early) > repetition_score(late)

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=40),
        st.integers(1, 3),
        st.integers(2, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_zero_iff_no_span(self, tokens, min_period, min_repeats):
        score = repetition_score(tokens, min_period, min_repeats)
        assert 0.0 <= score <= 1.0
        start = detect_loop(tokens, min_period, min_repeats)
        assert (score == 0.0) == (start is None)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, tokens):
        assert repetition_score(tokens) == pytest.approx(brute_force_score(tokens))

    @given(st.lists(st.integers(0, 2), min_size=6, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_fresh_prefix_strictly_decreases_score(self, tokens):
        base = repetition_score(tokens)
        if base == 0.0:
            return
        # Tokens outside the alphabet cannot create or extend any loop.
        prefixed = [101, 102, 103] + tokens
        assert repetition_score(prefixed) < base

    def test_appending_loop_copies_weakly_increases_score(self):
        tokens = [9, 1, 2, 1, 2, 1, 2]
        base = repetition_score(tokens)
        extended = tokens + [1, 2]
        assert repetition_score(extended) >= base


@st.composite
def loop_cases(draw):
    """(tokens, min_period, min_repeats): 1-48 tokens over 1-4 symbols, half
    of them built as a prefix, a block repeated and a cut copy of it."""
    symbols = draw(st.integers(1, 4))
    token = st.integers(0, symbols - 1)
    if draw(st.booleans()):
        tokens = draw(st.lists(token, min_size=1, max_size=48))
    else:
        prefix = draw(st.lists(token, max_size=12))
        block = draw(st.lists(token, min_size=1, max_size=6))
        repeats = draw(st.integers(1, 8))
        tail = draw(st.integers(0, len(block) - 1))
        tokens = (prefix + block * repeats + block[:tail])[:48]
    return tokens, draw(st.integers(1, 4)), draw(st.integers(1, 5))


class TestScanMatchesBorderDetector:
    @given(loop_cases())
    @settings(max_examples=1000, deadline=None)
    def test_same_span(self, case):
        tokens, min_period, min_repeats = case
        assert detect_loop(tokens, min_period, min_repeats) == oracles.detect_loop(
            tokens, min_period, min_repeats
        )

    @pytest.mark.parametrize("min_period,min_repeats", [(0, 3), (1, 0), (-1, 2)])
    def test_nonpositive_gates_rejected(self, min_period, min_repeats):
        with pytest.raises(ValueError, match="must be >= 1"):
            detect_loop([1, 1, 1], min_period, min_repeats)
