"""Reproduce the findings listed in perfbench/README.md.

    python3 perfbench/findings.py

Prints, for this machine: the n-gram dedup cost of the templated corpus
against the same records without their shared preamble, the cost of the
whole-table finiteness check inside each sampled rollout, and what verify()
does on the known-fault inputs.  Takes about half a minute.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from rlvrlab import curation, policy, tasks, trainer, verifier  # noqa: E402


def _records(size: int, preamble: bool) -> list[curation.ProblemRecord]:
    rows = inputs.corpus(1, size).records
    if not preamble:
        rows = [{**r, "question": r["question"].replace(inputs.PREAMBLE + " ", "")} for r in rows]
    return [curation.ProblemRecord.from_dict(r) for r in rows]


def ngram_blowup() -> None:
    print("ngram_dedup: templated corpus (shared preamble) against the same records without it")
    for size, with_preamble in ((1000, True), (2000, True), (2000, False), (20000, False)):
        records = _records(size, with_preamble)
        t = time.perf_counter()
        kept, _ = curation.ngram_dedup(records)
        ngram_s = time.perf_counter() - t
        t = time.perf_counter()
        curation.run_pipeline(records, curation.CurationConfig())
        total_s = time.perf_counter() - t
        label = "with preamble" if with_preamble else "no preamble"
        print(f"  {size:6d} records {label:13s}: ngram_dedup {ngram_s:7.2f} s, "
              f"whole pipeline {total_s:7.2f} s ({size / total_s:8.0f} records/s)")


def finiteness_check() -> None:
    print("sample_response: whole-table finiteness check against the whole call")
    config = workloads.curriculum_config(workloads.FULL)
    params = trainer.init_policy(config)
    n = 2000
    t = time.perf_counter()
    for _ in range(n):
        np.isfinite(params.logits).all()
    check_us = 1e6 * (time.perf_counter() - t) / n
    rng = np.random.default_rng(1)
    queries = [tasks.generate_task(config.task, rng)[0] for _ in range(n)]
    t = time.perf_counter()
    for q in queries:
        policy.sample_response(params, q, 48, 1.0, rng)
    sample_us = 1e6 * (time.perf_counter() - t) / n
    print(f"  table {params.logits.shape}: check {check_us:.0f} us of {sample_us:.0f} us "
          f"per rollout ({check_us / sample_us:.0%})")


def known_faults() -> None:
    print("verify() on the known-fault inputs")
    for name, pred, gold, accepted in inputs.KNOWN_FAULTS:
        try:
            outcome = verifier.verify(pred, gold).outcome
        except Exception as exc:  # the failure being reported
            outcome = f"raises {type(exc).__name__}"
        print(f"  {name:26s} {outcome} (accepted: {', '.join(accepted)})")


if __name__ == "__main__":
    ngram_blowup()
    finiteness_check()
    known_faults()
