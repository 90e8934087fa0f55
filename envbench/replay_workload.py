"""churn-replay: plan maintenance on platforms that change between epochs.

One pass replays 32 seeded churn schedules (drift, failure/repair,
join/leave, route flaps, eight draws of each) whole with ``run_replay``,
evaluating the plan every epoch.  A unit is one epoch: churn → monitor → remap → re-plan →
evaluate.  Epoch boundaries are read from outside by timing the calls
into ``dynamics.churn.apply_epoch``, which opens every epoch.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple

from repro.dynamics import replay
from repro.sweep.runner import code_version

import inputs
import layers
from common import BenchError, median


def _rows(result) -> List[str]:
    """Each epoch's row without its timing column, canonically serialised."""
    rows = []
    for record in result.records:
        row = {k: v for k, v in record.as_row().items() if k != "remap_s"}
        row.update(harmful=record.harmful_collisions,
                   bandwidth_error=record.bandwidth_error)
        rows.append(json.dumps(row, sort_keys=True))
    return rows


class ChurnReplay:
    units_label = "epochs"

    def __init__(self, seed: int, scratch: str, traced: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.first_rows: Dict[str, List[str]] = {}
        self.pass_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.epoch_starts: List[float] = []
        self.log = None
        self.stats = layers.SpanStats(("replay.run",))
        self.traced_passes = 0

    def setup(self) -> None:
        self.names = inputs.churn_replay_inputs(self.seed)
        code_version()
        if self.traced:
            self.log = layers.SpanLog(layers.new_flag())
            layers.install(self.log)
        # Epoch boundaries: the replay loop opens every epoch with
        # apply_epoch, looked up in its own module namespace.
        apply_epoch = replay.apply_epoch
        starts = self.epoch_starts

        def timed_apply_epoch(*args, **kwargs):
            starts.append(time.perf_counter())
            return apply_epoch(*args, **kwargs)

        replay.apply_epoch = timed_apply_epoch
        # Warm-up: one short replay initialises every layer and numpy.
        replay.run_replay(self.names[0], epochs=1)

    def close(self) -> None:
        pass

    def reference_check(self) -> None:
        """Passes are checked against each other (the first pass is the
        reference); the replay has no separate reference path here."""

    def run_pass(self, index: int, trace: bool = False
                 ) -> Tuple[float, List[float]]:
        units: List[float] = []
        wall = 0.0
        for name in self.names:
            self.attempted += 1
            del self.epoch_starts[:]
            start = time.perf_counter()
            try:
                result = replay.run_replay(name)
            except Exception as exc:     # noqa: BLE001 — counted, reported
                self.failed += 1
                self.mismatches.append(f"pass {index}: {name} raised "
                                       f"{type(exc).__name__}: {exc}")
                wall += time.perf_counter() - start
                continue
            end = time.perf_counter()
            wall += end - start
            bounds = self.epoch_starts + [end]
            units.extend((b - a) * 1e3 for a, b in zip(bounds, bounds[1:]))
            if len(bounds) - 1 != inputs.CHURN_EPOCHS:
                self.failed += 1
                self.mismatches.append(f"pass {index}: {name} ran "
                                       f"{len(bounds) - 1} epochs")
            rows = _rows(result)
            if self.first_rows.setdefault(name, rows) != rows:
                self.failed += 1
                self.mismatches.append(f"pass {index}: {name} epoch rows "
                                       f"differ from the first pass")
        self.pass_walls[trace].append(wall)
        return wall, units

    def run_traced_pass(self, index: int) -> Tuple[float, List[float]]:
        trace = index % 2 == 1
        self.log.set(trace)
        try:
            wall, units = self.run_pass(index, trace)
        finally:
            self.log.set(False)
        if trace:
            self.traced_passes += 1
            self.stats.add(self.log.take())
        return wall, units

    def per_layer(self) -> Dict[str, float]:
        if not self.traced_passes:
            raise BenchError("no traced pass completed")
        stats = self.stats
        passes = self.traced_passes
        decisions = stats.calls["remap.incremental"]
        return {
            **stats.pipeline_metrics(passes),
            "churn.apply_ms": stats.mean_ms("churn.apply"),
            "churn.events_applied":
                stats.attr_sums[("churn.apply", "events")] / passes,
            "monitor.observe_ms": stats.mean_ms("monitor.observe"),
            "monitor.measurements":
                stats.attr_sums[("monitor.observe", "measurements")] / passes,
            "remap.ms": stats.mean_ms("remap.incremental"),
            "remap.full_share":
                stats.attr_counts[("remap.incremental", "mode", "full")]
                / decisions if decisions else 0.0,
            "trace.overhead": median(self.pass_walls[True])
            / median(self.pass_walls[False]),
        }
