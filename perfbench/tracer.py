"""Span tracing of rlvrlab's layers from outside the program.

The tracer replaces each traced function at the name its callers look up
(``rlvrlab.trainer.sample_response``, ``rlvrlab.verifier.verify``, ...) with
a wrapper that records one span per call: name, start, end, parent span and
whether the call raised.  Spans live in flat arrays while the run goes on
and are written out once at the end.  A name that no longer exists is
reported as missing instead of failing the run.

What tracing costs is the number of spans times ``span_cost_s()``, the
measured time the wrapper adds to a call of a no-op.  It leaves out the
few per-span counts in ``MEASURE`` and any effect on caches.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (span name, module, attribute path).  The module is where callers look the
# name up, which is not always where it is defined.
TRACED = (
    ("policy.sample_response", "rlvrlab.trainer", "sample_response"),
    ("policy.copy", "rlvrlab.policy", "PolicyParams.copy"),
    ("verifier.reward", "rlvrlab.verifier", "reward"),
    ("verifier.verify", "rlvrlab.verifier", "verify"),
    ("repetition.repetition_score", "rlvrlab.repetition", "repetition_score"),
    ("objectives.token_mean_objective", "rlvrlab.trainer", "token_mean_objective"),
    ("objectives.filter_mixed_groups", "rlvrlab.trainer", "filter_mixed_groups"),
    ("trainer.train", "rlvrlab.trainer", "train"),
    ("trainer.collect_batch", "rlvrlab.trainer", "collect_batch"),
    ("trainer.evaluate", "rlvrlab.trainer", "evaluate"),
    ("tasks.generate_task", "rlvrlab.tasks", "generate_task"),
    ("curation.run_pipeline", "rlvrlab.curation", "run_pipeline"),
    ("curation.style_filter", "rlvrlab.curation", "style_filter"),
    ("curation.exact_dedup", "rlvrlab.curation", "exact_dedup"),
    ("curation.ngram_dedup", "rlvrlab.curation", "ngram_dedup"),
    ("curation.decontaminate", "rlvrlab.curation", "decontaminate"),
    ("curation.difficulty_filter", "rlvrlab.curation", "difficulty_filter"),
    ("curation.answer_length_filter", "rlvrlab.curation", "answer_length_filter"),
    ("cli.dispatch", "rlvrlab.cli", "dispatch"),
)


def _tokens_out(args, kwargs, result) -> int:
    return len(result.response)


def _tokens_in(args, kwargs, result) -> int:
    return len(args[0])


def _stage(args, kwargs, result) -> int:
    return result.stage or 0  # 0 for unverifiable


def _batch_tokens(args, kwargs, result) -> int:
    return sum(len(r.response) for g in args[0] for r in g.rollouts)


def _kept(args, kwargs, result) -> int:
    return len(result)


# One integer recorded per span, where a layer metric needs more than time.
MEASURE = {
    "policy.sample_response": _tokens_out,
    "verifier.verify": _stage,
    "repetition.repetition_score": _tokens_in,
    "objectives.token_mean_objective": _batch_tokens,
    "objectives.filter_mixed_groups": _kept,
}


PROBE_CALLS = 20000  # no-op calls per batch in span_cost_s


class Tracer:
    """Records spans for the traced names while installed."""

    def __init__(self) -> None:
        self.names = [name for name, _, _ in TRACED]
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.raised = array("b")
        self._stack = [-1]

    def _open(self, ix: int) -> int:
        span = len(self.name_ix)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1])
        self.value.append(0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _wrap(self, ix: int, fn, measure):
        def traced(*args, **kwargs):
            span = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end[span] = time.perf_counter()
                self.raised[span] = 1
                self._stack.pop()
                raise
            self.end[span] = time.perf_counter()
            self._stack.pop()
            if measure is not None:
                self.value[span] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for ix, (name, module_name, attr_path) in enumerate(TRACED):
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(ix, fn, MEASURE.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def spans(self) -> "Spans":
        return Spans(
            names=self.names,
            name_ix=np.frombuffer(self.name_ix, dtype=np.int32).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            value=np.frombuffer(self.value, dtype=np.int64).copy(),
            raised=np.frombuffer(self.raised, dtype=np.int8).astype(bool),
        )


def span_cost_s() -> float:
    """Raw seconds one span adds to a call: a traced no-op against the bare
    no-op, median of seven batches."""
    probe = Tracer()

    def noop() -> None:
        return None

    traced = probe._wrap(0, noop, None)
    costs = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(PROBE_CALLS):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(PROBE_CALLS):
            traced()
        costs.append((time.perf_counter() - t - bare) / PROBE_CALLS)
    return statistics.median(costs)


@dataclass
class Spans:
    names: list[str]
    name_ix: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    value: np.ndarray
    raised: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct children."""
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=len(self.parent),
        )
        return self.duration - child

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        m = self.name_ix == self.names.index(name)
        if parent is not None:
            has_parent = self.parent >= 0
            parent_ix = np.full(len(m), -1)
            parent_ix[has_parent] = self.name_ix[self.parent[has_parent]]
            m &= parent_ix == self.names.index(parent)
        return m

    def write(self, path: str, missing: list[str]) -> None:
        """Tab-separated spans, one per line, after a line naming missing wraps."""
        rows = zip(
            self.name_ix.tolist(), self.parent.tolist(), self.start.tolist(),
            self.end.tolist(), self.value.tolist(), self.raised.tolist(),
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# missing: {json.dumps(missing)}\n")
            fh.write("id\tname\tparent\tstart_s\tend_s\tvalue\traised\n")
            fh.writelines(
                f"{i}\t{self.names[n]}\t{p}\t{s:.9f}\t{e:.9f}\t{v}\t{int(r)}\n"
                for i, (n, p, s, e, v, r) in enumerate(rows)
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(sp: Spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of ``rounds`` traced rounds: counts per round,
    times per call, per token or per training step.  A layer the workload
    does not reach reads 0."""
    dur, own = sp.duration, sp.self_time()

    def spans(name, parent=None, ok_only=False):
        m = sp.mask(name, parent)
        return m & ~sp.raised if ok_only else m

    def total(m):
        return float(dur[m].sum())

    steps = int(spans("trainer.collect_batch").sum())
    sample = spans("policy.sample_response")
    reward = spans("verifier.reward")
    verify = spans("verifier.verify", ok_only=True)
    rep = spans("repetition.repetition_score")
    objective = spans("objectives.token_mean_objective")
    collect = spans("trainer.collect_batch")
    pipelines = int(spans("curation.run_pipeline").sum())
    dispatch = spans("cli.dispatch")
    generated = spans("tasks.generate_task", "trainer.collect_batch")
    update = (
        total(spans("trainer.train"))
        - total(collect)
        - total(spans("policy.copy", "trainer.train"))
    )
    out = {
        "policy.sample_calls": (sample.sum() / rounds, "count"),
        "policy.sample_us_per_rollout": (1e6 * _ratio(total(sample), sample.sum()), "us"),
        "policy.sample_us_per_token": (1e6 * _ratio(total(sample), sp.value[sample].sum()), "us"),
        "policy.snapshot_ms_per_step": (
            1e3 * _ratio(total(spans("policy.copy", "trainer.train")), steps), "ms"),
        "verifier.reward_calls": (reward.sum() / rounds, "count"),
        "verifier.reward_us_per_call": (1e6 * _ratio(total(reward), reward.sum()), "us"),
        "verifier.verify_us_per_pair": (1e6 * _ratio(total(verify), verify.sum()), "us"),
    }
    for stage in (1, 2, 3, 4):
        out[f"verifier.stage_{stage}_count"] = (
            int((sp.value[verify] == stage).sum()) / rounds, "count")
    out |= {
        "repetition.score_calls": (rep.sum() / rounds, "count"),
        "repetition.score_us_per_call": (1e6 * _ratio(total(rep), rep.sum()), "us"),
        "repetition.score_us_per_token": (1e6 * _ratio(total(rep), sp.value[rep].sum()), "us"),
        "objectives.objective_ms_per_batch": (1e3 * _ratio(total(objective), objective.sum()), "ms"),
        "objectives.objective_us_per_token": (
            1e6 * _ratio(total(objective), sp.value[objective].sum()), "us"),
        "objectives.batch_tokens": (_ratio(sp.value[objective].sum(), objective.sum()), "count"),
        "objectives.filter_keep_ratio": (
            _ratio(sp.value[spans("objectives.filter_mixed_groups")].sum(), generated.sum()),
            "ratio"),
        "trainer.collect_ms_per_step": (1e3 * _ratio(total(collect), steps), "ms"),
        "trainer.collect_self_ms_per_step": (1e3 * _ratio(float(own[collect].sum()), steps), "ms"),
        "trainer.update_ms_per_step": (1e3 * _ratio(update, steps), "ms"),
        "trainer.rollouts_per_step": (
            _ratio(spans("policy.sample_response", "trainer.collect_batch").sum(), steps), "count"),
        "trainer.eval_s": (total(spans("trainer.evaluate")) / rounds, "s"),
        "tasks.generate_us_per_call": (
            1e6 * _ratio(total(spans("tasks.generate_task")), spans("tasks.generate_task").sum()),
            "us"),
    }
    for stage, fn in (
        ("style", "style_filter"), ("exact_dedup", "exact_dedup"),
        ("ngram_dedup", "ngram_dedup"), ("decontaminate", "decontaminate"),
        ("difficulty", "difficulty_filter"), ("answer_length", "answer_length_filter"),
    ):
        out[f"curation.{stage}_ms"] = (
            1e3 * _ratio(total(spans(f"curation.{fn}")), pipelines), "ms")
    out["cli.curate_s"] = (_ratio(total(dispatch), dispatch.sum()), "s")
    out["cli.curate_self_s"] = (
        _ratio(float(own[dispatch].sum()), dispatch.sum()), "s")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
