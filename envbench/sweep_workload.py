"""quality-sweep: the paper's plan-vs-baseline table, regenerated from scratch.

One pass sweeps one seeded platform per generator family through
``run_sweep(jobs=2, rerun=True)`` into a fresh cache, evaluating the ENV
plan and all four baselines.  A unit is one platform's map → plan →
evaluate, timed by its sweep record (``elapsed_s``).
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Dict, List, Tuple

from repro.perf import fast_path
from repro.sweep import runner

import inputs
import layers
from common import BenchError, median

JOBS = 2


#: Summary fields that count probing work: the fast path's memo is meant to
#: lower them, so the reference comparison leaves them out.
WORK_FIELDS = ("measurements", "traceroutes", "bytes_injected")


def _quality_rows(record, with_work: bool = True) -> str:
    """A record's outputs without its timings, canonically serialised."""
    skip = ("timings",) if with_work else ("timings",) + WORK_FIELDS
    summary = {k: v for k, v in (record.summary or {}).items()
               if k not in skip}
    return json.dumps(summary, sort_keys=True)


class QualitySweep:
    units_label = "platforms"

    def __init__(self, seed: int, scratch: str, traced: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.first_rows: Dict[str, str] = {}
        self.log = None
        self.pass_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.record_s: List[float] = []
        self.stats = layers.SpanStats(("sweep.run_scenario",))
        self.traced_passes = 0
        self.reference_rows: Dict[str, str] = {}

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        self.names = inputs.quality_sweep_inputs(self.seed)
        runner.code_version()
        if self.traced:
            self.log = layers.SpanLog(layers.new_flag())
            layers.install(self.log)
            span_dir = self.scratch
            self.log.on_root_exit = lambda log: log.dump(os.path.join(
                span_dir, f"spans-{os.getpid()}.jsonl"))
        # Warm-up: forks the pool (two tasks, so the parallel path runs)
        # and initialises numpy in the workers.
        self._sweep(self.names[-2:], "warmup")

    def _sweep(self, names: List[str], cache: str):
        return runner.run_sweep(names=names, jobs=JOBS, rerun=True,
                                cache_dir=os.path.join(self.scratch, cache),
                                baselines=inputs.ALL_BASELINES)

    def close(self) -> None:
        pass

    # -- checks ----------------------------------------------------------------

    def _check(self, records, reference: Dict[str, str], label: str,
               with_work: bool = True) -> None:
        for record in records:
            self.attempted += 1
            if not record.ok:
                self.failed += 1
                self.mismatches.append(f"{label}: {record.scenario} "
                                       f"status {record.status}")
                continue
            rows = _quality_rows(record, with_work)
            expected = reference.setdefault(record.scenario, rows)
            if rows != expected:
                self.failed += 1
                self.mismatches.append(f"{label}: {record.scenario} rows "
                                       f"differ from the first pass")

    def reference_check(self) -> None:
        """One untimed pass under ``fast_path(False)`` must match pass 1."""
        with fast_path(False):
            result = self._sweep(self.names, "reference")
        self._check(result.records, self.reference_rows, "reference",
                    with_work=False)

    # -- passes ----------------------------------------------------------------

    def run_pass(self, index: int, trace: bool = False
                 ) -> Tuple[float, List[float]]:
        start = time.perf_counter()
        result = self._sweep(self.names, "cache")
        wall = time.perf_counter() - start
        self._check(result.records, self.first_rows, f"pass {index}")
        if index == 0:
            for record in result.records:
                if self.reference_rows.get(record.scenario) != \
                        _quality_rows(record, with_work=False):
                    self.failed += 1
                    self.mismatches.append(f"reference: {record.scenario} "
                                           f"differs from the fast path")
        units = [r.elapsed_s * 1e3 for r in result.records]
        self.pass_walls[trace].append(wall)
        if not trace:
            self.record_s.append(sum(r.elapsed_s for r in result.records))
        return wall, units

    def run_traced_pass(self, index: int) -> Tuple[float, List[float]]:
        """Alternate untraced and traced passes (traced on odd indices)."""
        trace = index % 2 == 1
        self.log.set(trace)
        try:
            wall, units = self.run_pass(index, trace)
        finally:
            self.log.set(False)
        if trace:
            self.traced_passes += 1
            files = glob.glob(os.path.join(self.scratch, "spans-*.jsonl"))
            for group in layers.load_groups(files):
                self.stats.add(group)
            for path in files:
                os.remove(path)
        return wall, units

    # -- per-layer metrics ------------------------------------------------------

    def per_layer(self) -> Dict[str, float]:
        if not self.traced_passes:
            raise BenchError("no traced pass completed")
        stats = self.stats
        untraced = self.pass_walls[False]
        return {
            **stats.pipeline_metrics(self.traced_passes),
            "baselines.build_ms": stats.mean_ms("baselines.build"),
            "sweep.parallel_efficiency":
                sum(self.record_s) / (JOBS * sum(untraced)),
            "sweep.cache_write_ms": stats.mean_ms("sweep.cache_write"),
            "sweep.store_append_ms": stats.mean_ms("sweep.store_append"),
            "trace.overhead": median(self.pass_walls[True])
            / median(untraced),
        }

