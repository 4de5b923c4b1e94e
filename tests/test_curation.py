import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlvrlab.curation import (
    CurationConfig,
    FunnelReport,
    ProblemRecord,
    StageCount,
    answer_length_filter,
    decontaminate,
    difficulty_filter,
    exact_dedup,
    ngram_dedup,
    read_records,
    run_pipeline,
    style_filter,
    write_records,
)
from oracles import estimate_pass_rate, policy_answerer, select_longest
from curation_fixture import (
    EXPECTED_FINAL,
    EXPECTED_STAGE_EXCLUSIONS,
    build_funnel_fixture,
)


def rec(question, answer="42", **kw):
    rec_id = kw.pop("id", f"id{abs(hash(question)) % 10_000}")
    return ProblemRecord(id=rec_id, question=question, answer=answer, **kw)


def words(n, tag="w"):
    return " ".join(f"{tag}{i}" for i in range(n))


class TestStyleFilter:
    def test_proof_questions_excluded(self):
        kept, excluded = style_filter(
            [rec("Prove that sqrt 2 is irrational."), rec("Compute 3 + 4.")]
        )
        assert [r.question for r in excluded] == ["Prove that sqrt 2 is irrational."]
        assert [r.question for r in kept] == ["Compute 3 + 4."]

    def test_show_that_and_disprove_excluded(self):
        kept, excluded = style_filter(
            [rec("Show that the sum converges"), rec("Prove or disprove: x")]
        )
        assert kept == [] and len(excluded) == 2

    def test_prove_inside_a_word_is_fine(self):
        kept, excluded = style_filter([rec("Improve the estimate of x")])
        assert excluded == []

    def test_cjk_ratio_excluded(self):
        half_cjk = "计算这个值 abcde"  # 5 CJK of 11 chars
        kept, excluded = style_filter([rec(half_cjk)])
        assert kept == [] and len(excluded) == 1

    def test_light_accents_kept(self):
        kept, excluded = style_filter([rec("Evaluate the Ramanujan series approximation")])
        assert excluded == []


class TestExactDedup:
    def test_second_identical_excluded(self):
        a, b = rec("What is 2+2?", id="a"), rec("What is 2+2?", id="b")
        kept, excluded = exact_dedup([a, b])
        assert kept == [a] and excluded == [b]

    def test_whitespace_and_case_variants_are_duplicates(self):
        a = rec("What is  2+2?", id="a")
        b = rec("  what is 2+2?  ", id="b")
        kept, excluded = exact_dedup([a, b])
        assert kept == [a] and excluded == [b]

    def test_distinct_kept(self):
        kept, excluded = exact_dedup([rec("alpha"), rec("beta")])
        assert len(kept) == 2 and excluded == []


class TestNgramDedup:
    def test_identical_thirty_word_questions(self):
        q = words(30)
        kept, excluded = ngram_dedup([rec(q, id="a"), rec(q + " ", id="b")])
        assert len(kept) == 1 and len(excluded) == 1

    def test_no_shared_tengram_both_kept(self):
        kept, excluded = ngram_dedup([rec(words(30, "a")), rec(words(30, "b"))])
        assert len(kept) == 2

    def test_one_word_changed_in_thirty_is_below_threshold(self):
        base = words(30).split()
        changed = list(base)
        changed[15] = "different"
        # 21 ten-grams each, 10 destroyed: 11 shared, union 31
        a, b = rec(" ".join(base), id="a"), rec(" ".join(changed), id="b")
        kept, excluded = ngram_dedup([a, b])
        assert len(kept) == 2 and excluded == []

    def test_short_questions_have_no_ngrams_and_pass(self):
        kept, excluded = ngram_dedup([rec("short one"), rec("short one two")])
        assert len(kept) == 2

    def test_threshold_one_with_exact_text_matches_exact_dedup(self):
        questions = [words(15, "a"), words(15, "b"), words(15, "a"), words(15, "c")]
        records = [rec(q, id=f"r{i}") for i, q in enumerate(questions)]
        kept_exact, _ = exact_dedup(records)
        kept_ngram, _ = ngram_dedup(records, n=10, jaccard_threshold=1.0)
        assert [r.id for r in kept_exact] == [r.id for r in kept_ngram]


class TestDecontaminate:
    def test_verbatim_eval_question_excluded(self):
        q = words(12, "e")
        kept, excluded = decontaminate([rec(q)], [q])
        assert kept == [] and len(excluded) == 1

    def test_zero_overlap_kept(self):
        kept, excluded = decontaminate([rec(words(12, "a"))], [words(12, "e")])
        assert excluded == []

    def test_embedded_ten_word_phrase_excluded(self):
        eval_q = words(12, "e")
        phrase = " ".join(eval_q.split()[:10])
        kept, excluded = decontaminate(
            [rec(f"{words(5, 'pre')} {phrase} {words(5, 'post')}")], [eval_q]
        )
        assert kept == [] and len(excluded) == 1


class TestDifficultyFilter:
    def test_extremes_excluded_interior_kept(self):
        recs = [
            rec("a", pass_rate=1.0, id="one"),
            rec("b", pass_rate=0.8, id="point8"),
            rec("c", pass_rate=0.0, id="zero"),
            rec("d", pass_rate=0.2, id="point2"),
        ]
        kept, excluded = difficulty_filter(recs)
        assert {r.id for r in excluded} == {"one", "zero"}
        assert {r.id for r in kept} == {"point8", "point2"}

    def test_missing_pass_rate_passes_through(self):
        r = rec("no rate yet")
        kept, excluded = difficulty_filter([r])
        assert kept == [r] and excluded == []


class TestEstimatePassRate:
    def test_always_correct_oracle(self):
        recs = [rec("q1", answer="7"), rec("q2", answer="9")]
        out = estimate_pass_rate(recs, lambda q, rng: (recs[0].answer if q == "q1" else "9", False))
        assert [r.pass_rate for r in out] == [1.0, 1.0]

    def test_always_wrong_oracle(self):
        out = estimate_pass_rate([rec("q", answer="7")], lambda q, rng: ("8", False))
        assert out[0].pass_rate == 0.0

    def test_four_of_five_attempts(self):
        calls = {"n": 0}

        def oracle(question, rng):
            calls["n"] += 1
            return ("7" if calls["n"] <= 4 else "8"), False

        out = estimate_pass_rate([rec("q", answer="7")], oracle, attempts=5)
        assert out[0].pass_rate == pytest.approx(0.8)

    def test_truncated_attempts_never_count(self):
        out = estimate_pass_rate([rec("q", answer="7")], lambda q, rng: ("7", True))
        assert out[0].pass_rate == 0.0

    def test_originals_not_mutated(self):
        r = rec("q", answer="7")
        estimate_pass_rate([r], lambda q, rng: ("7", False))
        assert r.pass_rate is None

    def test_toy_policy_as_the_roller(self):
        from rlvrlab.config import StagePlan, TrainConfig
        from rlvrlab.tasks import TaskSpec
        from rlvrlab.trainer import init_policy
        from test_trainer import oracle_policy

        perfect = policy_answerer(oracle_policy(), max_len=8)
        out = estimate_pass_rate(
            [rec("3+4=", answer="7"), rec("9+9=", answer="8")], perfect
        )
        assert [r.pass_rate for r in out] == [1.0, 1.0]

        scaffold = init_policy(
            TrainConfig(
                stages=(StagePlan(12, max_steps=1),),
                task=TaskSpec(),
                group_size=4,
                batch_groups=4,
                learning_rate=1.0,
                seed=0,
            )
        )
        guesser = policy_answerer(scaffold, max_len=12)
        rated = estimate_pass_rate(
            [rec(f"{a}+1=", answer=str((a + 1) % 10), id=f"r{a}") for a in range(10)],
            guesser,
            attempts=16,
        )
        rates = [r.pass_rate for r in rated]
        assert all(0.0 <= p <= 1.0 for p in rates)
        assert 0.0 < np.mean(rates) < 0.4  # chance-level guessing


class TestAnswerLengthFilter:
    def test_boundary(self):
        kept, excluded = answer_length_filter(
            [
                rec("a", answer="1" * 21, id="long"),
                rec("b", answer="1" * 20, id="edge"),
                rec("c", answer="42", id="short"),
            ]
        )
        assert [r.id for r in excluded] == ["long"]
        assert {r.id for r in kept} == {"edge", "short"}

    def test_normalization_applies_before_counting(self):
        # 22 raw chars but 20 after whitespace removal
        kept, excluded = answer_length_filter([rec("a", answer="1111111111 1111111111")])
        assert excluded == []


class TestSelectLongest:
    def test_identity_when_k_is_count(self):
        recs = [rec(f"q{i}", response_len=i + 1, id=f"r{i}") for i in range(4)]
        assert set(r.id for r in select_longest(recs, 4)) == {r.id for r in recs}

    def test_top_one(self):
        recs = [
            rec("a", response_len=5, id="m"),
            rec("b", response_len=9, id="top"),
            rec("c", response_len=2, id="s"),
        ]
        assert [r.id for r in select_longest(recs, 1)] == ["top"]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(4)
        recs = [
            rec(f"q{i}", response_len=int(rng.integers(0, 40)), id=f"r{i:03d}")
            for i in range(100)
        ]
        got = select_longest(recs, 30)
        oracle = sorted(recs, key=lambda r: (-r.response_len, r.id))[:30]
        assert [r.id for r in got] == [r.id for r in oracle]

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            select_longest([rec("a", response_len=1)], 2)


class TestRunPipeline:
    def test_empty_input(self):
        kept, report = run_pipeline([], CurationConfig())
        assert kept == []
        assert report.final_count == 0
        assert all(s.excluded_count == 0 for s in report.stages)

    def test_untouched_input_passes_through(self):
        recs = [
            rec(words(30, f"t{i}"), pass_rate=0.5, id=f"r{i}") for i in range(5)
        ]
        kept, report = run_pipeline(recs, CurationConfig())
        assert kept == recs
        assert report.final_count == 5

    def test_funnel_fixture_counts_match_exactly(self):
        records, eval_questions = build_funnel_fixture()
        config = CurationConfig(eval_questions=tuple(eval_questions))
        kept, report = run_pipeline(records, config)
        got = {s.name: s.excluded_count for s in report.stages}
        assert got == EXPECTED_STAGE_EXCLUSIONS
        assert report.final_count == EXPECTED_FINAL == len(kept)

    def test_pipeline_is_idempotent(self):
        records, eval_questions = build_funnel_fixture()
        config = CurationConfig(eval_questions=tuple(eval_questions))
        once, _ = run_pipeline(records, config)
        twice, report2 = run_pipeline(once, config)
        assert twice == once
        assert all(s.excluded_count == 0 for s in report2.stages)

    def test_each_filter_is_idempotent_and_partitions(self):
        records, eval_questions = build_funnel_fixture()
        filters = [
            style_filter,
            exact_dedup,
            ngram_dedup,
            lambda rs: decontaminate(rs, eval_questions),
            difficulty_filter,
            answer_length_filter,
        ]
        current = records
        for fn in filters:
            kept, excluded = fn(current)
            assert len(kept) + len(excluded) == len(current)
            assert {r.id for r in kept}.isdisjoint({r.id for r in excluded})
            kept2, excluded2 = fn(kept)
            assert kept2 == kept and excluded2 == []
            current = kept

    def test_report_telescopes_by_construction(self):
        with pytest.raises(ValueError):
            FunnelReport((StageCount("a", 10, 3), StageCount("b", 8, 1)), 6)
        with pytest.raises(ValueError):
            FunnelReport((StageCount("a", 10, 3),), 6)


class TestRecordValidation:
    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            ProblemRecord(id="x", question="", answer="1")

    def test_bad_pass_rate_rejected(self):
        with pytest.raises(ValueError):
            ProblemRecord(id="x", question="q", answer="1", pass_rate=1.5)

    @pytest.mark.parametrize(
        "bad", [True, False, "0.5", [0.5]], ids=["true", "false", "string", "list"]
    )
    def test_pass_rate_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match="pass_rate must be a number"):
            ProblemRecord(id="x", question="q", answer="1", pass_rate=bad)
        assert ProblemRecord(id="x", question="q", answer="1", pass_rate=1).pass_rate == 1

    def test_null_fields_read_as_absent(self):
        d = {"id": None, "question": "q", "answer": None, "source": None,
             "pass_rate": None, "response": None, "response_len": None}
        record = ProblemRecord.from_dict(d, "r4")
        assert record == ProblemRecord(id="r4", question="q", answer="", source="")
        assert record.to_dict() == {"id": "r4", "question": "q", "answer": "", "source": ""}

    def test_numbers_keep_their_string_form(self):
        record = ProblemRecord.from_dict({"id": 7, "question": "q", "answer": 2.5})
        assert (record.id, record.answer) == ("7", "2.5")

    @pytest.mark.parametrize("key", ["id", "answer", "source"])
    @pytest.mark.parametrize(
        "bad,kind",
        [(["8"], "list"), ({"a": 1}, "dict"), (True, "bool"), (False, "bool")],
        ids=["list", "object", "true", "false"],
    )
    def test_text_fields_take_only_strings_and_numbers(self, key, bad, kind):
        with pytest.raises(ValueError, match=f"{key} must be a string or a number, got {kind}"):
            ProblemRecord.from_dict({"question": "q", key: bad})

    @pytest.mark.parametrize(
        "bad,kind", [(7, "int"), (True, "bool"), (["a"], "list")], ids=["int", "true", "list"]
    )
    def test_response_must_be_a_string(self, bad, kind):
        with pytest.raises(ValueError, match=f"response must be a string, got {kind}"):
            ProblemRecord.from_dict({"question": "q", "response": bad})

    @pytest.mark.parametrize(
        "bad,shown",
        [(True, "bool"), (False, "bool"), (-1, "-1"), (2.0, "float"), ("3", "str")],
        ids=["true", "false", "negative", "float", "string"],
    )
    def test_response_len_must_be_a_nonnegative_int(self, bad, shown):
        with pytest.raises(ValueError, match=f"response_len must be an integer >= 0, got {shown}"):
            ProblemRecord.from_dict({"question": "q", "response_len": bad})

    def test_response_fields_round_trip(self):
        d = {"id": "a", "question": "q", "answer": "1", "source": "s",
             "response": "so 1", "response_len": 0}
        assert ProblemRecord.from_dict(d).to_dict() == d


class TestJsonlRoundTrip:
    def test_null_id_falls_back_to_the_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            json.dumps({"id": "a", "question": "What is 1+1?", "answer": None})
            + "\n"
            + json.dumps({"id": None, "question": "What is 2+2?", "source": None})
            + "\n"
        )
        assert read_records(str(path)) == [
            ProblemRecord(id="a", question="What is 1+1?", answer=""),
            ProblemRecord(id="r1", question="What is 2+2?", answer=""),
        ]

    def test_bool_pass_rate_names_its_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            json.dumps({"question": "q1", "pass_rate": 0.5})
            + "\n"
            + json.dumps({"question": "q2", "pass_rate": True})
            + "\n"
        )
        with pytest.raises(ValueError, match="^line 2: pass_rate must be a number"):
            read_records(str(path))

    def test_round_trip(self, tmp_path):
        records, _ = build_funnel_fixture()
        path = str(tmp_path / "records.jsonl")
        write_records(records[:50], path)
        back = read_records(path)
        assert back == records[:50]

    def test_report_json_shape(self):
        records, eval_questions = build_funnel_fixture()
        _, report = run_pipeline(
            records, CurationConfig(eval_questions=tuple(eval_questions))
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["final_count"] == EXPECTED_FINAL
        assert [s["name"] for s in doc["stages"]] == [
            "style",
            "exact_dedup",
            "ngram_dedup",
            "decontaminate",
            "difficulty",
            "answer_length",
        ]
        table = report.render_table()
        assert "style" in table and str(EXPECTED_FINAL) in table


@given(
    st.lists(
        st.text(alphabet="abcdef ", min_size=1, max_size=30).filter(str.strip),
        min_size=0,
        max_size=30,
    )
)
@settings(max_examples=100, deadline=None)
def test_exact_dedup_idempotent_property(questions):
    records = [
        ProblemRecord(id=f"r{i}", question=q, answer="1")
        for i, q in enumerate(questions)
    ]
    kept, excluded = exact_dedup(records)
    assert len(kept) + len(excluded) == len(records)
    kept2, excluded2 = exact_dedup(kept)
    assert kept2 == kept and excluded2 == []
