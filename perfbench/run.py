"""rlvrlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload curriculum --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; rlvrlab is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
perfbench/README.md for what each workload and metric means.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

# One thread: the benchmark is a single-core load by design.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Import rlvrlab from this checkout's sources, not from anywhere else."""
    if not (SRC / "rlvrlab" / "__init__.py").is_file():
        raise ImportError(f"no rlvrlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rlvrlab

    if SRC.resolve() not in Path(rlvrlab.__file__).resolve().parents:
        raise ImportError(f"rlvrlab imported from {rlvrlab.__file__}, not {SRC}")
    import workloads

    return workloads


def _workdir() -> str:
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def measure(workload, state, seconds: float) -> list:
    """Whole rounds until the next one would not fit in ``seconds``; at
    least one."""
    rounds, start, spent = [], time.perf_counter(), []
    while True:
        t = time.perf_counter()
        rounds.append(workload.round(state))
        spent.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.fmean(spent) > seconds:
            return rounds


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters: import rlvrlab and build
    the workload's initial state (initial policy, or generated inputs on
    disk)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--sizes", args.sizes, "--setup-probe"]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw_s, kernel_s = map(float, done.stdout.split())
        times.append(raw_s * calibration.REFERENCE_S / kernel_s)
    return statistics.median(times)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds, setup_s: float) -> dict:
    """Times in reference seconds (see calibration.py); memory as measured."""
    ops = [x for r in rounds for x in r.op_s]
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "op_ms_p50": (1e3 * statistics.median(ops), "ms"),
        "op_ms_p90": (1e3 * _percentile(ops, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(args, workloads) -> dict:
    workload = workloads.WORKLOADS[args.workload]()
    sizes = workloads.SIZES[args.sizes]
    workdir = _workdir()
    try:
        state = workload.prepare(args.seed, sizes, workdir)
        if not args.trace:
            setup_s = setup_seconds(args)
            rounds = measure(workload, state, args.seconds)
            metrics = end_to_end(rounds, setup_s)
        else:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                rounds = measure(workload, state, args.seconds)
            finally:
                tracer.uninstall()
            for name in tracer.missing:
                print(f"perfbench: traced name {name} is missing", file=sys.stderr)
            spans = tracer.spans()
            spans.write(str(OUT / f"spans-{args.workload}.tsv"), tracer.missing)
            scale = statistics.median(r.scale for r in rounds)
            metrics = {
                name: (value * scale if unit in ("us", "ms", "s") else value, unit)
                for name, (value, unit) in tracing.layer_metrics(spans, len(rounds)).items()
            }
            spans_per_round = len(spans.name_ix) / len(rounds)
            metrics["tracing.overhead_s"] = (
                spans_per_round * tracing.span_cost_s() * scale, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for r in rounds for p in r.problems]
    for p in dict.fromkeys(problems):
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workloads = _import_program()
    except ImportError as exc:
        return _fail(str(exc))
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.sizes not in workloads.SIZES:
        return _fail(f"unknown sizes {args.sizes!r}")
    if args.setup_probe:
        workdir = _workdir()
        try:
            workloads.WORKLOADS[args.workload]().prepare(
                args.seed, workloads.SIZES[args.sizes], workdir)
            setup_s = time.perf_counter() - _T0
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        kernel_s = statistics.median(calibration.kernel_seconds() for _ in range(5))
        print(setup_s, kernel_s)
        return 0
    print(json.dumps(run(args, workloads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
