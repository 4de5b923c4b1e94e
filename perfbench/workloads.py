"""The benchmark's workloads: what one round runs, times and checks.

A round is the unit a run repeats: a whole training run with its
evaluations, or one pass of answer checking and curation.  Rounds always
attempt the same operations, so the share of failed operations does not
depend on the seed or on how many rounds fit in a run.

Every call into rlvrlab goes through a module attribute looked up at call
time (``trainer.train``, ``verifier.verify``, ``cli.dispatch``), so the
tracer's wrappers see the benchmark's own calls as well as the program's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from rlvrlab import cli, trainer, verifier
from rlvrlab.tasks import TaskSpec
from rlvrlab.trainer import StagePlan, TrainConfig

import checks
import inputs
from calibration import Calibrator


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``full`` is the benchmark, ``tiny`` the self-check."""

    curriculum_steps: tuple[int, int]
    loop_steps: tuple[int, int]
    eval_tasks: int
    eval_k: int
    pairs: int
    records: int
    # Whether the runs are long enough for the thresholds of criteria 6-8.
    full_length: bool


FULL = Sizes(
    curriculum_steps=(30, 300),
    loop_steps=(50, 50),
    eval_tasks=200,
    eval_k=32,
    pairs=8000,
    records=1000,
    full_length=True,
)
TINY = Sizes(
    curriculum_steps=(3, 3),
    loop_steps=(3, 2),
    eval_tasks=20,
    eval_k=8,
    pairs=200,
    records=200,
    full_length=False,
)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Round:
    wall_s: float  # reference seconds (see calibration.py)
    op_s: list[float]  # reference seconds of each timed operation that succeeded
    attempted: int
    failed: int
    scale: float  # reference seconds per raw second over the round
    problems: list[str] = field(default_factory=list)


def _timed_round(cal: Calibrator, t0: float, t1: float, op_starts, op_ends) -> tuple:
    """Reference wall time of the round, reference op times, and the scale."""
    cal.tick(force=True)
    wall = float(cal.reference_seconds([t0], [t1])[0])
    kernel = sum(e - s for s, e in zip(cal.starts, cal.ends) if t0 <= s < t1)
    ops = cal.reference_seconds(op_starts, op_ends).tolist()
    return wall, ops, wall / (t1 - t0 - kernel)


def _stages(steps: tuple[int, int]) -> tuple[StagePlan, StagePlan]:
    return (
        StagePlan(max_response_len=24, max_steps=steps[0]),
        StagePlan(max_response_len=48, max_steps=steps[1]),
    )


def curriculum_config(sizes: Sizes) -> TrainConfig:
    """Criterion 6: the pinned two-stage curriculum."""
    return TrainConfig(
        stages=_stages(sizes.curriculum_steps),
        task=TaskSpec("modular-add", 10),
        group_size=8,
        batch_groups=16,
        learning_rate=20.0,
        seed=1,
    )


def loop_config(sizes: Sizes) -> TrainConfig:
    """Criterion 7, penalty on, with stage 2 cut from 500 steps."""
    return TrainConfig(
        stages=_stages(sizes.loop_steps),
        task=TaskSpec("modular-add", 10),
        group_size=8,
        batch_groups=16,
        learning_rate=35.0,
        seed=1,
        loop_boost=6.0,
        repetition_penalty=True,
    )


def curriculum_checks(metrics, initial, final, caps) -> list[str]:
    """Criterion 6: chance start (the scaffold guesses one of ten residues)
    and at least 0.9 at the end; criterion 8: length behaviour."""
    return (
        checks.in_range("initial avg@32", initial, 0.07, 0.13)
        + checks.in_range("final avg@32", final, 0.9)
        + checks.stage_caps(metrics, caps)
        + checks.length_rises(metrics)
    )


def loop_checks(metrics, initial, final, caps) -> list[str]:
    """Criterion 7, penalty on, as far as the shortened stage 2 allows."""
    return checks.repetition_halves(metrics) + checks.stage_caps(metrics, caps)


class Training:
    """Train a pinned config; avg@k on the seed's evaluation set.

    The training seed stays the pinned one, so the run-to-run difference is
    the machine's; ``--seed`` picks the evaluation tasks and samples.
    """

    def __init__(self, make_config, eval_before: bool, full_run_checks):
        self.make_config = make_config
        self.eval_before = eval_before
        self.full_run_checks = full_run_checks

    def prepare(self, seed: int, sizes: Sizes, workdir: str) -> dict:
        config = self.make_config(sizes)
        return {"seed": seed, "sizes": sizes, "config": config,
                "initial": trainer.init_policy(config)}

    def _evaluate(self, state: dict, policy, max_len: int) -> float:
        sizes = state["sizes"]
        return trainer.evaluate(
            policy, state["config"].task, k=sizes.eval_k, temperature=1.0,
            max_len=max_len, seed=state["seed"], n_tasks=sizes.eval_tasks,
        )

    def _bounds(self, label: str, avg: float, policy, state: dict) -> list[str]:
        config, sizes = state["config"], state["sizes"]
        return checks.avg_within_bounds(
            label, avg, policy.logits, config.context_order, config.task.modulus,
            sizes.eval_tasks, sizes.eval_k,
        )

    def round(self, state: dict) -> Round:
        config, sizes = state["config"], state["sizes"]
        caps = [s.max_response_len for s in config.stages]
        cal = Calibrator()
        cal.tick(force=True)
        t0 = time.perf_counter()
        initial = None
        if self.eval_before:
            initial = self._evaluate(state, state["initial"], caps[0])
            cal.tick(force=True)
        starts, ends = [time.perf_counter()], []

        def step_done(_record) -> None:
            ends.append(time.perf_counter())
            cal.tick()
            starts.append(time.perf_counter())

        result = trainer.train(config, metrics_sink=step_done)
        cal.tick(force=True)
        final = self._evaluate(state, result.policy, caps[-1])
        wall, steps, scale = _timed_round(cal, t0, time.perf_counter(), starts[:-1], ends)

        problems = self._bounds("final", final, result.policy, state)
        if initial is not None:
            problems += self._bounds("initial", initial, state["initial"], state)
        if sizes.full_length:
            problems += self.full_run_checks(result.metrics, initial, final, caps)
        attempted = len(steps) + 1 + (initial is not None)  # steps and evaluations
        return Round(wall, steps, attempted, 0, scale, problems)


class Data:
    """Verify labelled answer pairs one call each, then curate a templated
    corpus through the CLI; no policy involved."""

    def prepare(self, seed: int, sizes: Sizes, workdir: str) -> dict:
        corpus = inputs.corpus(seed, sizes.records)
        paths = {name: os.path.join(workdir, name) for name in
                 ("corpus.jsonl", "eval.jsonl", "curated.jsonl", "funnel.json",
                  "recurated.jsonl", "refunnel.json")}
        with open(paths["corpus.jsonl"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, ensure_ascii=False) + "\n" for r in corpus.records)
        with open(paths["eval.jsonl"], "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"question": q}) + "\n" for q in corpus.eval_questions)
        return {"pairs": inputs.answer_pairs(seed, sizes.pairs), "corpus": corpus,
                "paths": paths, "recurated": False}

    def _curate(self, paths: dict, src: str, out: str, report: str) -> int:
        argv = ["curate", "--in", paths[src], "--out", paths[out],
                "--eval-set", paths["eval.jsonl"], "--report", paths[report]]
        with contextlib.redirect_stdout(io.StringIO()):  # funnel table
            return cli.dispatch(argv)

    def round(self, state: dict) -> Round:
        pairs, corpus, paths = state["pairs"], state["corpus"], state["paths"]
        problems: list[str] = []
        starts, ends, verdicts = [], [], []
        cal = Calibrator()
        cal.tick(force=True)
        t0 = time.perf_counter()
        for p in pairs:
            starts.append(time.perf_counter())
            v = verifier.verify(p.pred, p.gold)
            ends.append(time.perf_counter())
            verdicts.append(v.outcome)
            cal.tick()
        failed = 0
        for _, pred, gold, accepted in inputs.KNOWN_FAULTS:
            try:
                outcome = verifier.verify(pred, gold).outcome
            except Exception:  # a raising call is the failure being counted
                failed += 1
                continue
            failed += outcome not in accepted
        cal.tick(force=True)
        code = self._curate(paths, "corpus.jsonl", "curated.jsonl", "funnel.json")
        wall, latencies, scale = _timed_round(cal, t0, time.perf_counter(), starts, ends)

        wrong = [(p, v) for p, v in zip(pairs, verdicts) if v != p.label]
        if wrong:
            p, v = wrong[0]
            problems.append(f"{len(wrong)} verdicts differ from their labels, "
                            f"first {p.family} {p.pred!r} vs {p.gold!r}: {v} != {p.label}")
        problems += self._check_curate(code, paths, "curated.jsonl", "funnel.json",
                                       corpus.planted, corpus.kept_ids, len(corpus.records))
        if not state["recurated"] and not problems:
            # Idempotence: curating the output again excludes nothing.
            state["recurated"] = True
            code = self._curate(paths, "curated.jsonl", "recurated.jsonl", "refunnel.json")
            zero = dict.fromkeys(inputs.FUNNEL_STAGES, 0)
            problems += self._check_curate(code, paths, "recurated.jsonl", "refunnel.json",
                                           zero, corpus.kept_ids, len(corpus.kept_ids))
        attempted = len(pairs) + len(inputs.KNOWN_FAULTS) + 1
        return Round(wall, latencies, attempted, failed, scale, problems)

    @staticmethod
    def _check_curate(code, paths, out, report, planted, kept_ids, total) -> list[str]:
        if code != 0:
            return [f"rlvrlab curate exited {code}"]
        with open(paths[report], encoding="utf-8") as fh:
            problems = checks.funnel(json.load(fh), planted, total)
        with open(paths[out], encoding="utf-8") as fh:
            got = [json.loads(line)["id"] for line in fh if line.strip()]
        if got != kept_ids:
            problems.append(f"curated {len(got)} records, expected the {len(kept_ids)} clean ones")
        return problems


WORKLOADS = {
    "curriculum": lambda: Training(curriculum_config, True, curriculum_checks),
    "loop-seeded": lambda: Training(loop_config, False, loop_checks),
    "data": Data,
}
