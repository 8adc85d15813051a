"""Shared helpers: locating the program, statistics, result bookkeeping."""

from __future__ import annotations

import bisect
import os
import resource
import shutil
import statistics
import sys
import time

#: where runs leave their span dumps and scratch files, under the checkout
OUT_DIR = ".perfbench-out"


def program_root() -> str:
    """The checkout root (the working directory), with ``src/repro`` on
    ``sys.path``.  Exits non-zero when the program is not there."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"perfbench: no program to measure: {src}/repro is missing "
            "(run from the root of a checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    return root


_work_dirs: list[str] = []


def work_dir(name: str) -> str:
    """A scratch directory under the checkout, removed by :func:`cleanup`."""
    path = os.path.join(os.getcwd(), OUT_DIR, f"{name}-{os.getpid()}-{len(_work_dirs)}")
    os.makedirs(path, exist_ok=True)
    _work_dirs.append(path)
    return path


def cleanup() -> None:
    while _work_dirs:
        shutil.rmtree(_work_dirs.pop(), ignore_errors=True)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.examples) < 10:
            self.examples.append(why)


class Run:
    """What one workload pass measured."""

    def __init__(self):
        self.metrics: dict[str, float] = {}  #: end-to-end, by name
        self.layers: dict[str, float] = {}  #: per-layer (traced passes)
        self.tally = Tally()
        self.report: list[str] = []  #: human-readable lines
        #: operations per second on the reference machine, for the
        #: tracing overhead
        self.pace = 0.0
        self.speed = Speed()

    def line(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.report.append(f"{name:<34} {value:>12.4f} {unit:<6} {note}".rstrip())


#: the calibration loop and the CPU time it takes on the reference
#: machine (a quiet 2.1 GHz vCPU); see :class:`Speed`
CAL_ITERATIONS = 20000
CAL_NOMINAL_S = 0.0013


def _calibration_loop() -> int:
    total = 0
    for i in range(CAL_ITERATIONS):
        total += i * i % 7
    return total


class Speed:
    """How fast this machine runs Python right now, against the reference.

    A shared virtual machine drifts by a quarter or more within a minute,
    which no amount of work in a run averages out.  The benchmark times a
    fixed pure-Python loop (benchmark code, not the program) in CPU time,
    interleaved with the operations, and divides each operation's time
    by the speed index around it: milliseconds on the reference machine.
    CPU time keeps the index blind to waiting: lock contention or other
    processes competing for the core make the operations slower without
    making the machine look faster.
    """

    def __init__(self):
        self.times: list[float] = []  #: perf_counter at each sample
        self.samples: list[float] = []  #: CPU seconds per loop
        self._last = 0.0

    def sample(self, n: int = 5) -> None:
        for _ in range(n):
            started = time.thread_time()
            _calibration_loop()
            self.samples.append(time.thread_time() - started)
            self.times.append(time.perf_counter())
        self._last = time.perf_counter()

    def maybe(self, every_s: float = 0.05) -> None:
        """One sample when *every_s* has passed since the last one."""
        if time.perf_counter() - self._last >= every_s:
            self.sample(1)

    def index(self) -> float:
        """The run's median speed index (1.0 on the reference machine)."""
        return median(self.samples) / CAL_NOMINAL_S

    def index_at(self, moment: float, k: int = 9) -> float:
        """The median index of the *k* samples nearest to *moment*."""
        i = bisect.bisect_left(self.times, moment)
        low = max(0, min(i - k // 2, len(self.times) - k))
        return median(self.samples[low : low + k]) / CAL_NOMINAL_S

    def scale(self, seconds: float, moment: float) -> float:
        """*seconds* measured around *moment*, on the reference machine."""
        return seconds / self.index_at(moment)
