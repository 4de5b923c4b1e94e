"""A reference clock for a shared, noisy host.

On the 2-vCPU shared machine this benchmark was built on, the speed of the
program drifts by up to a factor of two over minutes as other tenants come
and go: the raw time of the same 10-second window of work scattered by
about 20 % (log standard deviation).  A fixed kernel, run between
operations about every 0.1 s, tracks that drift.  Each raw interval is
converted to reference seconds at the rate of the kernel run before it: one
reference second is what the machine does while the kernel, timed at
``REFERENCE_S``, runs 1 / ``REFERENCE_S`` times.  The kernel is the
benchmark's own code, so no change to the program's code changes it, and
its runs are left out of every interval.

The kernel mixes the two kinds of work the program's hot paths are made of:
an interpreted integer hash loop (context hashing, parsing) and single-row
reads of a 1.8 MB table followed by a small NumPy reduction (sampling).
It shares the caches with the program; the untimed run before each timed
one keeps the program's own memory footprint from moving it much.

    python3 perfbench/calibration.py

prints the kernel's time right after different program operations and
after an idle gap, so that one can see whether what the program just did
(including a 16 times larger policy table) moves the kernel.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time that defines reference speed: close to its typical time on
# the machine above, so reference seconds stay close to wall-clock seconds.
REFERENCE_S = 1e-3
HASH_STEPS = 3500
TABLE_ROWS = 256
INTERVAL_S = 0.1  # least raw time between two kernel runs
_MASK = (1 << 64) - 1
_TABLE: np.ndarray | None = None
_ROWS: list[int] = []


def _kernel() -> int:
    global _TABLE, _ROWS
    if _TABLE is None:
        rng = np.random.default_rng(0)
        _TABLE = rng.standard_normal((16384, 14))
        _ROWS = rng.integers(0, 16384, TABLE_ROWS).tolist()
    h = 0
    for i in range(HASH_STEPS):
        h = (h * 1000003 + i + 1) & _MASK
    for r in _ROWS:
        h += int(_TABLE[r].argmax())
    return h


def kernel_seconds() -> float:
    """Time one run of the calibration kernel.  An untimed run first brings
    the kernel's table and code back into cache, so the timed run depends
    little on what the program did just before it."""
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Calibrator:
    """Runs the kernel between operations, at most once per ``INTERVAL_S``,
    and converts raw ``time.perf_counter`` stamps to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if now < self._next and not force:
            return
        self.samples.append(kernel_seconds())
        end = time.perf_counter()
        self.starts.append(now)
        self.ends.append(end)
        self._next = end + INTERVAL_S

    def clock(self):
        """``F(t)``: reference seconds at raw stamp ``t``, frozen while the
        kernel runs.  After tick i the rate is REFERENCE_S over the kernel
        time of tick i."""
        n = len(self.samples)
        rate = REFERENCE_S / np.array(self.samples)
        starts, ends = np.array(self.starts), np.array(self.ends)
        at_end = np.zeros(n)  # F at the end of each tick
        at_end[1:] = np.cumsum((starts[1:] - ends[:-1]) * rate[:-1])

        def reference(t):
            t = np.asarray(t, dtype=np.float64)
            i = np.searchsorted(ends, t, side="right") - 1
            before = i < 0
            j = np.maximum(i, 0)
            nxt = np.where(j + 1 < n, starts[np.minimum(j + 1, n - 1)], np.inf)
            inside = at_end[j] + (np.minimum(t, nxt) - ends[j]) * rate[j]
            return np.where(before, (np.minimum(t, starts[0]) - starts[0]) * rate[0], inside)

        return reference

    def reference_seconds(self, starts, ends) -> np.ndarray:
        """Reference durations of the raw intervals ``[starts[i], ends[i]]``."""
        f = self.clock()
        return f(ends) - f(starts)


def _after_operations() -> None:
    """Median kernel time after each kind of preceding work, interleaved in
    random order so that drift of the machine falls on all of them alike."""
    import dataclasses
    import random
    import statistics
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads
    from rlvrlab import policy, tasks, trainer, verifier

    config = workloads.curriculum_config(workloads.FULL)
    table = trainer.init_policy(config)
    large = trainer.init_policy(dataclasses.replace(config, buckets=16 * config.buckets))
    rng = np.random.default_rng(0)
    query = tasks.generate_task(config.task, rng)[0]
    before = {
        "idle gap (2 ms sleep)": lambda: time.sleep(0.002),
        "kernel (back to back)": kernel_seconds,
        "sample_response, 1.8 MB table": lambda: policy.sample_response(table, query, 24, 1.0, rng),
        "sample_response, 29 MB table": lambda: policy.sample_response(large, query, 24, 1.0, rng),
        "verify": lambda: verifier.verify("\\frac{3}{4}", "0.75"),
    }
    times: dict[str, list[float]] = {name: [] for name in before}
    order = list(before) * 600
    random.Random(0).shuffle(order)
    for name in order:
        before[name]()
        times[name].append(kernel_seconds())
    idle = statistics.median(times["idle gap (2 ms sleep)"])
    for name, xs in times.items():
        med = statistics.median(xs)
        print(f"{name:32s} kernel {1e3 * med:.4f} ms ({med / idle - 1:+.1%} against idle)")


if __name__ == "__main__":
    _after_operations()
