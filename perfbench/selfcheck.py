"""Quick self-check of the benchmark: every workload and every check, at
tiny sizes, in well under a minute.

    python3 perfbench/selfcheck.py

It runs each workload untraced and traced through the real command line,
validates the printed result against BENCHMARK.json, shows that each
correctness check rejects a wrong value as well as accepting a right one,
and that the command fails without printing a result when the program's
sources are absent.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rlvrlab import trainer  # noqa: E402
from rlvrlab.trainer import init_policy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_result(workload: str, trace: int, done: subprocess.CompletedProcess) -> None:
    where = f"{workload} --trace {trace}"
    expect(done.returncode == 0, f"{where} exits 0 ({done.stderr.strip()[-300:]})")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where} result keys")
    expect(result["correct"] is True, f"{where} outputs correct")
    expect(result["attempted"] >= 1, f"{where} attempted >= 1")
    if workload == "data":
        # Every round attempts the same operations, so failures are an exact share.
        per_round = workloads.TINY.pairs + len(inputs.KNOWN_FAULTS) + 1
        rounds = result["attempted"] // per_round
        expect(result["attempted"] == rounds * per_round
               and result["failed"] == rounds * len(inputs.KNOWN_FAULTS),
               f"{where} fails exactly the known faults ({result['failed']}/{result['attempted']})")
    else:
        expect(result["failed"] == 0, f"{where} fails nothing")
    declared = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    expect(list(got) == [m["name"] for m in declared], f"{where} prints every declared metric")
    for m in declared:
        value = got[m["name"]]["value"]
        expect(got[m["name"]]["unit"] == m["unit"] and math.isfinite(value)
               and (trace or value > 0),
               f"{where} {m['name']} = {value:.6g} {m['unit']}")


def check_checks() -> None:
    """Each check accepts a right value and rejects a wrong one."""
    config = workloads.curriculum_config(workloads.TINY)
    table = init_policy(config).logits
    lo, hi = (float(b.mean()) for b in checks.answer_bounds(table, config.context_order, 10))
    expect(0.05 < lo < 0.1 < hi < 0.25, f"chance-level scaffold bounds [{lo:.3f}, {hi:.3f}]")
    oracle = table.copy()
    for a in range(10):
        for b in range(10):
            window = (a, checks.PLUS, b, checks.EQUALS)[-config.context_order:]
            oracle[checks.bucket(window, oracle.shape[0]), (a + b) % 10] = 30.0
    lo, hi = (float(b.mean()) for b in checks.answer_bounds(oracle, config.context_order, 10))
    expect(lo > 0.9 and hi > 0.99, f"oracle-policy bounds [{lo:.3f}, {hi:.3f}]")
    bounds = lambda avg: checks.avg_within_bounds("t", avg, oracle, config.context_order, 10, 200, 32)
    expect(not bounds(0.995) and bounds(0.5), "avg@k bound check accepts 0.995, rejects 0.5")
    expect(not checks.in_range("x", 0.1, 0.07, 0.13) and checks.in_range("x", 0.2, 0.07, 0.13),
           "range check")

    def steps(stage, lengths=(), reps=()):
        n = max(len(lengths), len(reps))
        lengths = lengths or [3.0] * n
        reps = reps or [0.0] * n
        return [SimpleNamespace(stage=stage, mean_response_len=x, mean_repetition=r)
                for x, r in zip(lengths, reps)]

    grows = steps(0, [3.0] * 10) + steps(1, [3.5] * 10)
    flat = steps(0, [3.0] * 10) + steps(1, [3.0] * 10)
    expect(not checks.length_rises(grows) and checks.length_rises(flat), "length-rise check")
    expect(not checks.stage_caps(grows, (24, 48)) and checks.stage_caps(grows, (2, 48)),
           "stage-cap check")
    halves = steps(0, reps=[0.4] * 5 + [0.1] * 5) + steps(1, reps=[0.0] * 25)
    stays = steps(0, reps=[0.4] * 10) + steps(1, reps=[0.3] * 25)
    expect(not checks.repetition_halves(halves) and checks.repetition_halves(stays),
           "repetition-halves check")
    report = {"stages": [{"name": "style", "input": 10, "excluded": 2},
                         {"name": "exact_dedup", "input": 8, "excluded": 1}],
              "final_count": 7}
    expect(not checks.funnel(report, {"style": 2, "exact_dedup": 1}, 10)
           and checks.funnel(report, {"style": 1, "exact_dedup": 2}, 10)
           and checks.funnel(report, {"style": 2, "exact_dedup": 1}, 11),
           "funnel check")

    data = workloads.Data()
    workdir = ROOT / ".perfbench" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = data.prepare(1, workloads.TINY, str(workdir))
        expect(not data.round(state).problems, "data round passes on true labels")
        p = state["pairs"][0]
        state["pairs"][0] = inputs.AnswerPair(p.family, p.pred, p.gold, inputs.UNV)
        state["corpus"].planted["style"] += 1
        problems = data.round(state).problems
        expect(any("differ from their labels" in x for x in problems)
               and any("funnel exclusions" in x for x in problems),
               "data round rejects a wrong label and a wrong planted count")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_missing_name() -> None:
    """A traced name that no longer exists is reported, not fatal."""
    collect_batch = trainer.collect_batch
    del trainer.collect_batch
    try:
        t = tracer.Tracer()
        t.install()
        t.uninstall()
        metrics = tracer.layer_metrics(t.spans(), rounds=1)
    finally:
        trainer.collect_batch = collect_batch
    expect(t.missing == ["trainer.collect_batch"]
           and metrics["trainer.collect_ms_per_step"] == (0.0, "ms"),
           "a removed traced name is reported missing and its metrics read 0")
    expect(trainer.train.__module__ == "rlvrlab.trainer", "uninstall restores the originals")


def check_without_sources() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run_cli("--workload", "data", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=bare)
        expect(done.returncode != 0 and not done.stdout.strip(),
               f"without src/ the command exits {done.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checks()
    check_missing_name()
    check_without_sources()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            done = run_cli("--workload", w["name"], "--seed", "7", "--seconds", "1",
                           "--trace", str(trace), "--sizes", "tiny")
            check_result(w["name"], trace, done)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
