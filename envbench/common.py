"""Plumbing shared by the workloads.

* statistics: the median and a 90th percentile that refuses to exist on
  fewer than ten samples beyond it;
* the host probe, a fixed pure-Python workload timed about once a second
  between units, so a same-code delta can be told apart from host drift;
* peak RSS of the benchmark's process tree;
* set-up sampling: fresh processes that set a workload up from nothing,
  spread across the run;
* the measuring loop every workload shares, and the report it prints.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH_ROOT = os.path.join(BENCH_DIR, ".scratch")

#: Samples that must lie beyond the 90th percentile before it is reported.
MIN_BEYOND_P90 = 10
#: The fewest units that give ``MIN_BEYOND_P90`` samples beyond p90.
MIN_UNITS = 100
#: Fractions of ``--seconds`` at which set-up samples are due.
SETUP_FRACTIONS = (0.0, 0.45, 0.9)
#: Seconds between two host-probe samples.
PROBE_INTERVAL_S = 1.0
#: A set-up sample that takes longer than this is a failed run.
SETUP_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The run cannot produce a valid report."""


# -- statistics --------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def p90_with_support(values: Sequence[float]) -> Tuple[float, int]:
    """Nearest-rank 90th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < MIN_BEYOND_P90:
        raise BenchError(f"p90 of {len(ordered)} samples has only {beyond} "
                         f"beyond it (need {MIN_BEYOND_P90})")
    return float(ordered[rank - 1]), beyond


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


# -- host probe --------------------------------------------------------------

def host_probe_ms() -> float:
    """Time one fixed pure-Python workload (dict, arithmetic, sort)."""
    start = time.perf_counter()
    acc = 0
    table: Dict[int, int] = {}
    for i in range(60000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    ordered = sorted(table.values())
    if acc + ordered[0] < 0:        # keeps the work observable
        raise AssertionError("unreachable")
    return (time.perf_counter() - start) * 1e3


class HostProbe:
    """Runs :func:`host_probe_ms` at most once per ``PROBE_INTERVAL_S``."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -math.inf

    def maybe(self) -> None:
        now = time.monotonic()
        if now - self._last >= PROBE_INTERVAL_S:
            self.samples.append(host_probe_ms())
            self._last = time.monotonic()

    @property
    def median_ms(self) -> float:
        return median(self.samples)


def cpu_steal() -> Tuple[int, int]:
    """(all CPU time, stolen CPU time) so far, in jiffies, from /proc/stat.

    Steal is time the hypervisor ran someone else on this VM's vCPUs; a
    share of it during a run tells host contention from a program change.
    """
    with open("/proc/stat") as handle:
        ticks = [int(v) for v in handle.readline().split()[1:9]]
    return sum(ticks), ticks[7]


# -- memory ------------------------------------------------------------------

def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                out.extend(int(p) for p in handle.read().split())
        except OSError:
            continue
    return out


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(_children(pid))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssTracker:
    """Peak of Σ VmHWM over the benchmark process and its live children."""

    def __init__(self) -> None:
        self.peak_kb = 0

    def sample(self) -> None:
        total = sum(_vm_hwm_kb(pid) for pid in process_tree(os.getpid()))
        self.peak_kb = max(self.peak_kb, total)

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


# -- scratch -----------------------------------------------------------------

def make_scratch(label: str) -> str:
    """A fresh scratch directory under the benchmark's own directory."""
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{label}-", dir=SCRATCH_ROOT)


def remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH_ROOT)      # only succeeds once every run is done
    except OSError:
        pass


# -- set-up sampling ---------------------------------------------------------

class SetupSampler:
    """Times the workload's set-up in fresh processes, spread over the run.

    Each sample starts ``run.py --setup-only`` and stops the clock when the
    child prints ``ready``: interpreter start, imports, input generation,
    registration, pool fork and warm-up all count.  Samples are due at
    :data:`SETUP_FRACTIONS` of the measured time and at most one is taken
    per pass boundary, so no two are ever back to back.
    """

    def __init__(self, workload: str, seed: int, scratch: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.samples: List[float] = []

    def pending(self, fraction: float) -> bool:
        due = sum(1 for f in SETUP_FRACTIONS if f <= fraction)
        return len(self.samples) < due

    def remaining(self) -> bool:
        return len(self.samples) < len(SETUP_FRACTIONS)

    def maybe(self, fraction: float) -> None:
        if self.pending(fraction):
            self.samples.append(self._take())

    def _take(self) -> float:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--setup-only", "--workload", self.workload,
               "--seed", str(self.seed), "--scratch", self.scratch]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up sample failed (exit {code}, "
                             f"first line {line.strip()!r})")
        return elapsed

    @property
    def median_s(self) -> float:
        return median(self.samples)


# -- the measuring loop ------------------------------------------------------

class Run:
    """State of one measured run: units, passes, probes and samples."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 scratch: str) -> None:
        self.seconds = seconds
        self.unit_ms: List[float] = []
        self.passes = 0
        self.measured_s = 0.0
        self.probe = HostProbe()
        self.rss = RssTracker()
        self.setup = SetupSampler(workload, seed, scratch)
        #: Share of all CPU time over the measuring loop that was stolen.
        self.steal_share = 0.0

    def measure(self, run_pass: Callable[[int], Tuple[float, List[float]]]
                ) -> None:
        """Run whole passes until the time, unit and set-up quotas are met.

        ``run_pass(index)`` returns the pass's measured wall seconds and
        the milliseconds of each unit it completed.  A pass is never cut:
        the deadline is checked only between passes.
        """
        self.probe.maybe()
        self.rss.sample()
        self.setup.maybe(0.0)
        cpu_start = cpu_steal()
        while (self.measured_s < self.seconds
               or len(self.unit_ms) < MIN_UNITS
               or self.setup.remaining()):
            wall, units = run_pass(self.passes)
            self.passes += 1
            self.measured_s += wall
            self.unit_ms.extend(units)
            self.rss.sample()
            self.probe.maybe()
            self.setup.maybe(self.measured_s / self.seconds)
        total, steal = (b - a for a, b in zip(cpu_start, cpu_steal()))
        self.steal_share = steal / total if total else 0.0

    def end_to_end(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        """The five end-to-end metrics, and the facts behind them."""
        p90, beyond = p90_with_support(self.unit_ms)
        metrics = {
            "setup_s": self.setup.median_s,
            "throughput_per_s": len(self.unit_ms) / self.measured_s,
            "run_p50_ms": median(self.unit_ms),
            "run_p90_ms": p90,
            "peak_rss_mb": self.rss.peak_mb,
        }
        facts = {
            "units": len(self.unit_ms),
            "passes": self.passes,
            "measured_s": round(self.measured_s, 4),
            "run_p90_samples": len(self.unit_ms),
            "run_p90_beyond": beyond,
            "setup_samples_s": [round(s, 4) for s in self.setup.samples],
            "host.ref_ms": round(self.probe.median_ms, 4),
            "host.ref_samples": len(self.probe.samples),
            "host.steal_share": round(self.steal_share, 4),
        }
        return metrics, facts


def emit(facts: Dict[str, object], correct: bool, attempted: int,
         failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the facts line, then the JSON result line (always last)."""
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
