"""End-to-end acceptance suite.

Each numbered test implements one exit criterion at its stated tolerance;
the conftest hook prints a per-criterion pass/fail summary after the run.
The two training criteria share a module-scoped run; all runs are
seed-pinned and sequential, so results are reproducible bit for bit.
"""

import itertools
import json
import time

import numpy as np
import pytest

from rlvrlab.cli import _config_hash, dispatch
from rlvrlab.config import StagePlan, TrainConfig
from rlvrlab.curation import CurationConfig, run_pipeline
from rlvrlab.objectives import (
    clipped_objective,
    filter_mixed_groups,
    response_logprobs,
    shaped_advantages,
)
from rlvrlab.policy import load_checkpoint
from rlvrlab.repetition import repetition_score
from rlvrlab.tasks import TaskSpec
from rlvrlab.trainer import evaluate, init_policy, train
from rlvrlab.verifier import EQUIVALENT, NOT_EQUIVALENT, UNVERIFIABLE, verify

import oracles
from curation_fixture import (
    EXPECTED_FINAL,
    EXPECTED_STAGE_EXCLUSIONS,
    build_funnel_fixture,
)
from test_objectives import (
    fd_table_gradient,
    make_group,
    make_params,
    ratios_clear_of_clip_edges,
)
from verifier_corpus import (
    EQUIVALENT_PAIRS,
    NOT_EQUIVALENT_PAIRS,
    UNVERIFIABLE_PAIRS,
)

# ---------------------------------------------------------------------------
# criterion 1: gradient correctness against central finite differences
# ---------------------------------------------------------------------------


def test_c01_gradient_correctness():
    t0 = time.time()
    for objective in ("token_mean", "sequence_mean"):
        checked = 0
        seed = 0 if objective == "token_mean" else 1000
        while checked < 20:
            seed += 1
            rng = np.random.default_rng(seed)
            old = make_params(rng, vocab_size=8, k=2, buckets=16, scale=0.8)
            params = make_params(rng, vocab_size=8, k=2, buckets=16, scale=0.8)
            groups = [make_group(rng, old, i) for i in range(int(rng.integers(1, 3)))]
            if not ratios_clear_of_clip_edges(groups, params, old, 0.2, 0.3):
                continue
            batch = oracles.batch_of(groups, old)
            lp_old = response_logprobs(old, batch)
            if objective == "token_mean":
                _, grad = clipped_objective(batch, params, lp_old, 0.2, 0.3)
                grad = oracles.dense(grad, params)
                fd = fd_table_gradient(
                    lambda p: clipped_objective(batch, p, lp_old, 0.2, 0.3)[0],
                    params,
                )
            else:
                ref = make_params(rng, scale=0.8)
                kwargs = dict(per_sequence=True, ref=ref, beta=0.04)
                _, grad = clipped_objective(batch, params, lp_old, 0.2, 0.2, **kwargs)
                grad = oracles.dense(grad, params)
                fd = fd_table_gradient(
                    lambda p: clipped_objective(batch, p, lp_old, 0.2, 0.2, **kwargs)[0],
                    params,
                )
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4, f"{objective} seed {seed}: rel err {rel:.2e}"
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: advantage normalization invariants on 1000 random groups
# ---------------------------------------------------------------------------


def test_c02_advantage_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        g = int(rng.integers(2, 17))
        rewards = rng.integers(0, 2, g).astype(float)
        penalties = rng.uniform(0, 1, g)
        adv = shaped_advantages(rewards, penalties)
        if adv.degenerate:
            np.testing.assert_array_equal(adv.values, np.zeros(g))
            continue
        assert abs(adv.values.mean()) < 1e-9
        assert abs(adv.values.std() - 1.0) < 1e-6
        # Shift and positive-scale invariance of the shaped rewards.
        shift = float(rng.normal(0, 3))
        scale = float(rng.uniform(0.1, 10))
        shifted = shaped_advantages(rewards + shift, penalties)
        scaled = shaped_advantages(rewards * scale, penalties * scale)
        np.testing.assert_allclose(adv.values, shifted.values, atol=1e-9)
        np.testing.assert_allclose(adv.values, scaled.values, atol=1e-9)
        assert np.argmax(adv.values) == np.argmax(shifted.values)
        assert np.argmax(adv.values) == np.argmax(scaled.values)


# ---------------------------------------------------------------------------
# criterion 3: the dynamic filter keeps exactly the mixed patterns at G = 4
# ---------------------------------------------------------------------------


def test_c03_dynamic_filter_exhaustive():
    kept = []
    for mask in range(16):
        rewards = np.array([[float((mask >> i) & 1) for i in range(4)]])
        if len(filter_mixed_groups(rewards)):
            kept.append(mask)
    assert len(kept) == 14
    assert set(kept) == set(range(16)) - {0, 15}


# ---------------------------------------------------------------------------
# criterion 4: repetition score equals the brute-force oracle, exhaustively
# ---------------------------------------------------------------------------


def oracle_repetition_score(tokens, min_period=1, min_repeats=3):
    """Direct scan of every (start, period) pair; a suffix has period p iff
    it equals itself shifted by p."""
    n = len(tokens)
    for start in range(n):
        suffix = tokens[start:]
        m = n - start
        for period in range(min_period, m // min_repeats + 1):
            if suffix[period:] == suffix[: m - period]:
                return (n - start) / n
    return 0.0


def test_c04_repetition_oracle_equivalence():
    t0 = time.time()
    for n in range(1, 13):
        for seq in itertools.product((0, 1, 2), repeat=n):
            assert repetition_score(seq) == oracle_repetition_score(seq)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"exhaustive repetition check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 5: verifier corpus at 100%, reflexivity, stage monotonicity
# ---------------------------------------------------------------------------


def test_c05_verifier_corpus():
    assert (len(EQUIVALENT_PAIRS), len(NOT_EQUIVALENT_PAIRS), len(UNVERIFIABLE_PAIRS)) == (20, 20, 20)
    for cand, gold in EQUIVALENT_PAIRS:
        verdict = verify(cand, gold)
        assert verdict.outcome == EQUIVALENT, (cand, gold, verdict)
        restarted = verify(cand, gold, start_stage=verdict.stage)
        assert restarted.outcome == EQUIVALENT
        assert restarted.stage == verdict.stage
    for cand, gold in NOT_EQUIVALENT_PAIRS:
        assert verify(cand, gold).outcome == NOT_EQUIVALENT, (cand, gold)
    for cand, gold in UNVERIFIABLE_PAIRS:
        verdict = verify(cand, gold)
        assert verdict.outcome == UNVERIFIABLE and verdict.stage is None, (cand, gold)
    all_pairs = EQUIVALENT_PAIRS + NOT_EQUIVALENT_PAIRS + UNVERIFIABLE_PAIRS
    for text in {s for pair in all_pairs for s in pair}:
        assert verify(text, text).outcome == EQUIVALENT, text
    for cand, gold in all_pairs:
        assert verify(cand, gold).outcome == verify(gold, cand).outcome, (cand, gold)


# ---------------------------------------------------------------------------
# criteria 6 and 8: the pinned two-stage curriculum run
# ---------------------------------------------------------------------------

CURRICULUM_CONFIG = TrainConfig(
    stages=(
        StagePlan(max_response_len=24, max_steps=30),
        StagePlan(max_response_len=48, max_steps=300),
    ),
    task=TaskSpec("modular-add", 10),
    group_size=8,
    batch_groups=16,
    learning_rate=20.0,
    seed=1,
)


# The ``config_hash`` the run's manifest records: an edit to the pinned run,
# or to how configs serialize, changes it.
CURRICULUM_CONFIG_HASH = "b2fd8d70f375fc8beaf311c4bd955c01f51b0bd9fb4641fcf7589975ced501c3"


def test_curriculum_config_hash_is_pinned():
    assert _config_hash(CURRICULUM_CONFIG.to_dict()) == CURRICULUM_CONFIG_HASH


# The same pins for criterion 7's penalty-on and penalty-off runs and for
# criterion 10's run.
PENALTY_ON_CONFIG_HASH = "7f0c8f5d79f33d03c46e4642742730b3c71639e8ddb8b9451eaa3c5528750f8f"
PENALTY_OFF_CONFIG_HASH = "36b4dd39b847a57ae930a61af6312e5eba1139185e8d535a609872766c96c4dc"
DETERMINISM_CONFIG_HASH = "da335ee5e98fdc54e976f47e068759edfeae7e4ea228ee6cccfc8798b9377505"


def test_criterion_7_and_10_config_hashes_are_pinned():
    assert _config_hash(_penalty_config(True).to_dict()) == PENALTY_ON_CONFIG_HASH
    assert _config_hash(_penalty_config(False).to_dict()) == PENALTY_OFF_CONFIG_HASH
    assert _config_hash(DETERMINISM_CONFIG.to_dict()) == DETERMINISM_CONFIG_HASH


@pytest.fixture(scope="module")
def curriculum_run():
    config = CURRICULUM_CONFIG
    initial = evaluate(
        init_policy(config), config.task, k=32, temperature=1.0, max_len=24, seed=config.seed
    )
    t0 = time.time()
    result = train(config)
    wall = time.time() - t0
    final = evaluate(
        result.policy, config.task, k=32, temperature=1.0, max_len=48, seed=config.seed
    )
    return config, result, initial, final, wall


def test_c06_toy_curriculum_training(curriculum_run):
    config, result, initial, final, wall = curriculum_run
    assert len(result.metrics) <= 3000
    assert wall < 300.0, f"training took {wall:.0f}s"
    # The format-scaffolded start guesses a uniform residue: chance is 1/10.
    assert 0.07 <= initial <= 0.13, f"initial avg@32 {initial:.3f}"
    assert final >= 0.9, f"final avg@32 {final:.3f}"


def test_c08_curriculum_length_behavior(curriculum_run):
    _, result, _, _, _ = curriculum_run
    stage1 = [m for m in result.metrics if m.stage == 0]
    stage2 = [m for m in result.metrics if m.stage == 1]
    assert stage1 and stage2
    assert all(m.mean_response_len <= 24.0 for m in stage1)
    stage1_final = float(np.mean([m.mean_response_len for m in stage1[-10:]]))
    stage2_first = float(np.mean([m.mean_response_len for m in stage2[:200]]))
    assert stage2_first > stage1_final, (
        f"stage-2 mean {stage2_first:.3f} did not exceed stage-1 final "
        f"{stage1_final:.3f} after the cap lift"
    )


# ---------------------------------------------------------------------------
# criterion 7: repetition penalty stabilizes loop-seeded training
# ---------------------------------------------------------------------------


def _penalty_config(enabled: bool) -> TrainConfig:
    return TrainConfig(
        stages=(
            StagePlan(max_response_len=24, max_steps=50),
            StagePlan(max_response_len=48, max_steps=500),
        ),
        task=TaskSpec("modular-add", 10),
        group_size=8,
        batch_groups=16,
        learning_rate=35.0,
        seed=1,
        loop_boost=6.0,
        repetition_penalty=enabled,
    )


def test_c07_repetition_penalty_stabilization():
    on_cfg = _penalty_config(True)
    on = train(on_cfg)
    on_final = evaluate(on.policy, on_cfg.task, 32, 1.0, 48, seed=on_cfg.seed)

    off_cfg = _penalty_config(False)
    off = train(off_cfg)
    off_final = evaluate(off.policy, off_cfg.task, 32, 1.0, 48, seed=off_cfg.seed)

    # Penalty-on run: repetition halves within stage 1 and accuracy recovers
    # to the criterion-6 level.
    stage1 = [m for m in on.metrics if m.stage == 0]
    rep_start = float(np.mean([m.mean_repetition for m in stage1[:5]]))
    rep_end = float(np.mean([m.mean_repetition for m in stage1[-5:]]))
    assert rep_start > 0.1, f"loop boost produced no repetition ({rep_start:.3f})"
    assert rep_end <= 0.5 * rep_start, (
        f"stage-1 repetition only fell {rep_start:.3f} -> {rep_end:.3f}"
    )
    assert on_final >= 0.9, f"penalty-on avg@32 {on_final:.3f}"

    # Penalty-off twin from the same seed: either it fails to reach the same
    # accuracy in the same budget, or it ends at least twice as repetitive.
    on_tail = float(np.mean([m.mean_repetition for m in on.metrics[-25:]]))
    off_tail = float(np.mean([m.mean_repetition for m in off.metrics[-25:]]))
    assert off_final < 0.9 or off_tail >= 2.0 * on_tail, (
        f"penalty-off matched accuracy ({off_final:.3f}) and repetition "
        f"({off_tail:.5f} vs on {on_tail:.5f})"
    )


# ---------------------------------------------------------------------------
# criterion 9: curation funnel with planted exclusion counts
# ---------------------------------------------------------------------------


def test_c09_curation_funnel():
    records, eval_questions = build_funnel_fixture()
    assert len(records) == 1000
    config = CurationConfig(eval_questions=tuple(eval_questions))
    kept, report = run_pipeline(records, config)
    got = {s.name: s.excluded_count for s in report.stages}
    assert got == EXPECTED_STAGE_EXCLUSIONS
    assert report.final_count == EXPECTED_FINAL == len(kept)
    # Telescoping and idempotency.
    running = report.stages[0].input_count
    for stage in report.stages:
        assert stage.input_count == running
        running -= stage.excluded_count
    assert running == report.final_count
    again, report2 = run_pipeline(kept, config)
    assert again == kept
    assert all(s.excluded_count == 0 for s in report2.stages)


# ---------------------------------------------------------------------------
# criterion 10: determinism of training and evaluation
# ---------------------------------------------------------------------------


DETERMINISM_CONFIG = TrainConfig(
    stages=(StagePlan(max_response_len=12, max_steps=6),),
    task=TaskSpec("modular-add", 10),
    group_size=4,
    batch_groups=4,
    learning_rate=10.0,
    seed=11,
)


def test_c10_determinism(tmp_path, capsys):
    cfg = DETERMINISM_CONFIG
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        assert dispatch(["train", "--config", str(cfg_path), "--out-dir", str(d)]) == 0
    blobs = [(d / "metrics.jsonl").read_bytes() for d in dirs]
    assert blobs[0] == blobs[1]
    assert (dirs[0] / "final.ckpt").read_bytes() == (dirs[1] / "final.ckpt").read_bytes()

    eval_args = [
        "eval",
        "--ckpt",
        str(dirs[0] / "final.ckpt"),
        "--config",
        str(cfg_path),
        "--k",
        "32",
        "--n-tasks",
        "50",
        "--max-len",
        "12",
        "--seed",
        "9",
    ]
    capsys.readouterr()  # drain the train commands' progress lines
    outputs = []
    for _ in range(2):
        assert dispatch(eval_args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    params = init_policy(cfg)
    a = evaluate(params, cfg.task, k=32, temperature=1.0, max_len=12, seed=9, n_tasks=50)
    b = evaluate(params, cfg.task, k=32, temperature=1.0, max_len=12, seed=9, n_tasks=50)
    assert a == b


def test_final_checkpoint_eval_matches_in_run_policy(tmp_path, capsys):
    # The checkpoint holds the trained table exactly, so `rlvrlab eval` of
    # it scores the policy the run ended with, not a rounded copy.
    cfg = DETERMINISM_CONFIG
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    run = tmp_path / "run"
    assert dispatch(["train", "--config", str(cfg_path), "--out-dir", str(run)]) == 0
    capsys.readouterr()
    ckpt = str(run / "final.ckpt")
    sizes = ["--k", "32", "--n-tasks", "50", "--max-len", "12", "--seed", "9"]
    assert dispatch(["eval", "--ckpt", ckpt, "--config", str(cfg_path), *sizes]) == 0
    printed = json.loads(capsys.readouterr().out)["avg_at_k"]

    policy = train(cfg).policy
    assert load_checkpoint(ckpt).logits.tobytes() == policy.logits.tobytes()
    in_run = evaluate(policy, cfg.task, k=32, temperature=1.0, max_len=12, seed=9, n_tasks=50)
    assert printed == in_run
