"""The traced run: wrappers around each layer's public functions.

:func:`install` replaces every module-level reference (and class attribute)
of the functions in :data:`TARGETS` with a wrapper that records a span
``(name, start, end, parent)`` plus the :mod:`repro.perf` counter deltas
over the call, and optional attributes read off the result.  Spans stay in
memory; a process writes them out when its unit ends (sweep pool workers)
or when the run ends.

A wrapper records only while the shared one-byte flag is set, so one set
of wrappers — installed before the pool forks, so workers inherit them —
serves both the traced and the untraced passes of a traced run.  The
end-to-end runs install nothing.

Self time of a span is its duration minus the durations of its children;
the children of one span run one after another on one thread, so their
durations never overlap.

One target is too hot to span every call: ``FlowModel.steady_state_mbps``
runs about 100k times a quality-sweep pass, and a span on each makes a
traced pass 1.6–1.8 times as long as an untraced one.  Its
wrapper counts every call but records a span for one call in
:data:`SAMPLE_EVERY`; every span also records how many unrecorded calls
ran inside it.  :class:`SpanStats` moves the estimated time of those
calls (their count times the mean recorded duration) from the layers they
ran in to ``netsim.flows``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import mmap
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: (module, attribute path, span name, result observer or None).
TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.sweep.runner", "run_sweep", "sweep.run_sweep", None),
    ("repro.sweep.runner", "run_scenario", "sweep.run_scenario", None),
    ("repro.scenarios.registry", "Scenario.build", "scenarios.build", None),
    ("repro.pipeline", "run_pipeline", "pipeline.run", None),
    ("repro.env.mapper", "map_platform", "env.map", "view"),
    ("repro.core.planner", "plan_from_view", "planner.plan", None),
    ("repro.core.baselines", "global_clique_plan", "baselines.build", None),
    ("repro.core.baselines", "independent_pairs_plan", "baselines.build",
     None),
    ("repro.core.baselines", "random_partition_plan", "baselines.build",
     None),
    ("repro.core.baselines", "subnet_plan", "baselines.build", None),
    ("repro.core.quality", "evaluate_plan", "quality.evaluate", None),
    ("repro.core.constraints", "check_constraints", "constraints.check",
     None),
    ("repro.core.constraints", "find_collisions", "constraints.find",
     "collisions"),
    ("repro.core.quality", "harmful_collisions", "quality.harmful", None),
    ("repro.core.quality", "completeness_accuracy", "quality.completeness",
     None),
    ("repro.core.aggregation", "Aggregator.estimate", "aggregation.estimate",
     None),
    ("repro.netsim.flows", "FlowModel.steady_state_mbps",
     "flows.steady_state", None),
    ("repro.dynamics.replay", "run_replay", "replay.run", None),
    ("repro.dynamics.churn", "apply_epoch", "churn.apply", "delta"),
    ("repro.dynamics.monitor", "DeploymentMonitor.observe_epoch",
     "monitor.observe", "drift"),
    ("repro.dynamics.remap", "incremental_remap", "remap.incremental",
     "remap"),
    ("repro.dynamics.remap", "full_remap", "remap.full", None),
    ("repro.serve.app", "ReproApp.handle", "serve.handle", None),
    ("repro.serve.store", "ResultStore.query", "store.query", None),
    ("repro.serve.store", "ResultStore.latest", "store.query", None),
    ("repro.serve.store", "ResultStore.latest_entry", "store.query", None),
    ("repro.serve.store", "ResultStore.latest_per_scenario", "store.query",
     None),
]

#: Module-namespace-only targets: the same function is wrapped only where
#: this caller uses it (the sweep runner's cache writes and store appends).
LOCAL_TARGETS: List[Tuple[str, str, str]] = [
    ("repro.sweep.runner", "write_atomic", "sweep.cache_write"),
    ("repro.sweep.runner", "append_jsonl", "sweep.store_append"),
]

#: Span-name prefix → the layer (module) it belongs to.
LAYERS: Dict[str, str] = {
    "sweep": "sweep.runner",
    "scenarios": "scenarios.registry",
    "pipeline": "pipeline",
    "env": "env",
    "planner": "core.planner",
    "baselines": "core.baselines",
    "quality": "core.quality",
    "constraints": "core.constraints",
    "aggregation": "core.aggregation",
    "flows": "netsim.flows",
    "replay": "dynamics.replay",
    "churn": "dynamics.churn",
    "monitor": "dynamics.monitor",
    "remap": "dynamics.remap",
    "serve": "serve.app",
    "store": "serve.store",
}

COUNTER_FIELDS = ("events", "allocations", "probe_memo_hits",
                  "route_cache_hits", "route_cache_misses")

#: The one sampled span name, and how many of its calls get one span.
SAMPLED = "flows.steady_state"
SAMPLE_EVERY = 16


def layer_of(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


def _observe(kind: str, result, args, kwargs) -> Dict[str, object]:
    """Attributes a traced call records from its result."""
    if kind == "collisions":
        cap = kwargs.get("max_reports", args[2] if len(args) > 2 else 100_000)
        return {"n": len(result), "capped": len(result) >= cap}
    if kind == "view":
        return {"measurements": result.stats.measurements}
    if kind == "delta":
        return {"events": len(result.applied)}
    if kind == "drift":
        return {"measurements": result.measurements}
    if kind == "remap":
        return {"mode": result.mode}
    raise ValueError(kind)


class SpanLog:
    """In-memory spans of one process, recorded while ``flag[0]`` is 1."""

    def __init__(self, flag: mmap.mmap) -> None:
        self.flag = flag
        self.spans: List[list] = []
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "envbench_parent", default=None)
        self._counters = None
        self._dumps = 0
        #: Calls of the sampled target while recording, and how many of
        #: them got no span.
        self.sampled_calls = 0
        self.unsampled = 0

    def set(self, on: bool) -> None:
        self.flag[0] = 1 if on else 0

    def _snap(self) -> Tuple[int, ...]:
        c = self._counters
        return (c.events, c.allocations, c.probe_memo_hits,
                c.route_cache_hits, c.route_cache_misses)

    def _enter(self, name: str):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._parent.get(), self._snap(), None,
                self.unsampled]
        self.spans.append(span)
        token = self._parent.set(index)
        span[1] = time.perf_counter()
        return index, token

    def _exit(self, index: int, token, attrs) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        span[4] = tuple(a - b for a, b in zip(self._snap(), span[4]))
        span[5] = attrs
        span[6] = self.unsampled - span[6]
        self._parent.reset(token)
        if span[3] is None and self.on_root_exit is not None:
            self.on_root_exit(self)

    #: Called after a root span closes (sweep workers flush their spans).
    on_root_exit: Optional[Callable[["SpanLog"], None]] = None

    def wrap(self, fn: Callable, name: str, observe: Optional[str]
             ) -> Callable:
        log = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if log.flag[0] != 1:
                    return await fn(*args, **kwargs)
                index, token = log._enter(_label(name, args))
                attrs = None
                try:
                    return await fn(*args, **kwargs)
                finally:
                    log._exit(index, token, attrs)
            return async_wrapper

        every = SAMPLE_EVERY if name == SAMPLED else 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if log.flag[0] != 1:
                return fn(*args, **kwargs)
            if every > 1:
                log.sampled_calls += 1
                if log.sampled_calls % every:
                    log.unsampled += 1
                    return fn(*args, **kwargs)
            index, token = log._enter(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = _observe(observe, result, args, kwargs)
                return result
            finally:
                log._exit(index, token, attrs)
        return wrapper

    def take(self) -> List[list]:
        """This process's spans, each prefixed with its group id, and
        forget them.  Parent indices are positions within one group."""
        group = f"{os.getpid()}:{self._dumps}"
        self._dumps += 1
        spans = [[group] + span for span in self.spans]
        self.spans.clear()
        return spans

    def dump(self, path: str) -> None:
        """Append this process's spans to ``path`` and forget them."""
        if not self.spans:
            return
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.take():
                handle.write(json.dumps(span) + "\n")


def _label(name: str, args) -> str:
    """``serve.handle`` spans carry their bounded route label."""
    if name == "serve.handle" and len(args) > 1:
        return f"serve.handle.{route_label(args[1].method, args[1].path)}"
    return name


def route_label(method: str, path: str) -> str:
    """A bounded route label for one request."""
    path = path.split("?", 1)[0]
    if path == "/runs":
        return "runs_post" if method == "POST" else "runs_list"
    if path.startswith("/runs/"):
        return "runs_poll"
    if path.startswith("/results/"):
        return "results_latest"
    if path == "/results":
        return "results"
    if path == "/scenarios":
        return "scenarios"
    return "other"


def install(log: SpanLog) -> None:
    """Wrap every target, in every loaded ``repro`` module that holds it."""
    from repro import perf
    log._counters = perf.COUNTERS
    for module_name, attr_path, span_name, observe in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(
                    log.wrap(raw.__func__, span_name, observe)))
            else:
                setattr(owner, attr, log.wrap(raw, span_name, observe))
            continue
        original = getattr(module, attr)
        _replace_everywhere(original, log.wrap(original, span_name, observe))
    for module_name, attr, span_name in LOCAL_TARGETS:
        module = importlib.import_module(module_name)
        setattr(module, attr, log.wrap(getattr(module, attr), span_name,
                                       None))


def _replace_everywhere(original: Callable, wrapped: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
    # The pipeline's baseline table holds the planners (one in a partial).
    from repro import pipeline
    for key, value in list(pipeline.BASELINE_PLANNERS.items()):
        if value is original:
            pipeline.BASELINE_PLANNERS[key] = wrapped
        elif isinstance(value, functools.partial) and value.func is original:
            pipeline.BASELINE_PLANNERS[key] = functools.partial(
                wrapped, *value.args, **value.keywords)


def new_flag() -> mmap.mmap:
    """A one-byte anonymous shared mapping; forked children share it."""
    flag = mmap.mmap(-1, 1)
    flag[0] = 0
    return flag


# -- analysis ----------------------------------------------------------------

def load_groups(paths: Iterable[str]) -> Iterator[List[list]]:
    """The span groups written to ``paths``, one group at a time."""
    for path in paths:
        if not os.path.exists(path):
            continue
        group: List[list] = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                if group and span[0] != group[0][0]:
                    yield group
                    group = []
                group.append(span)
        if group:
            yield group


class SpanStats:
    """Per-name and per-layer aggregates, accumulated one group at a time.

    Each span is ``[group, name, start, end, parent, counter deltas,
    attrs, unsampled]`` with ``parent`` an index into the same group (the
    spans one process recorded between two :meth:`SpanLog.take` calls) and
    ``unsampled`` the calls of :data:`SAMPLED` that ran inside it without
    a span.  A parent is always recorded before its children.  ``roots``
    names the unit root spans: their counter deltas are the unit's work,
    their own self time is unit time no wrapped layer covers.
    """

    def __init__(self, roots: Tuple[str, ...]) -> None:
        self.roots = roots
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.attr_sums: Dict[Tuple[str, str], float] = defaultdict(float)
        self.attr_counts: Dict[Tuple[str, str, object], int] = \
            defaultdict(int)
        self.counters = dict.fromkeys(COUNTER_FIELDS, 0)
        self.layer_s: Dict[str, float] = defaultdict(float)
        self.unit_s = 0.0
        self.root_self_s = 0.0
        self.capped_plans = 0
        self.harmful_pairs = 0
        #: Unsampled calls of :data:`SAMPLED`: all of them, and those in
        #: unit roots by the layer (None: the root itself) they ran in.
        self.unsampled = 0
        self.unsampled_in: Dict[Optional[str], int] = defaultdict(int)

    def add(self, group: List[list]) -> None:
        child_s = [0.0] * len(group)
        child_unsampled = [0] * len(group)
        for span in group:
            if span[4] is not None:
                child_s[span[4]] += span[3] - span[2]
                child_unsampled[span[4]] += span[7]
        root_of: List[int] = []
        capped = set()
        for index, (span, covered) in enumerate(zip(group, child_s)):
            name, parent, attrs = span[1], span[4], span[6] or {}
            duration = span[3] - span[2]
            own_s = duration - covered
            own_unsampled = span[7] - child_unsampled[index]
            self.unsampled += own_unsampled
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own_s
            for key, value in attrs.items():
                if isinstance(value, (bool, str)):
                    self.attr_counts[(name, key, value)] += 1
                else:
                    self.attr_sums[(name, key)] += value
            root = index if parent is None else root_of[parent]
            root_of.append(root)
            if group[root][1] in self.roots:
                if index == root:
                    self.unit_s += duration
                    self.root_self_s += own_s
                    self.unsampled_in[None] += own_unsampled
                    for field, delta in zip(COUNTER_FIELDS, span[5]):
                        self.counters[field] += delta
                else:
                    self.layer_s[layer_of(name)] += own_s
                    self.unsampled_in[layer_of(name)] += own_unsampled
            if name == "constraints.find" and parent is not None:
                if group[parent][1] == "quality.harmful":
                    self.harmful_pairs += attrs["n"]
                if attrs["capped"]:
                    plan = parent
                    while plan is not None and \
                            group[plan][1] != "quality.evaluate":
                        plan = group[plan][4]
                    if plan is not None:
                        capped.add(plan)
        # A plan counts once, whichever of its two enumerations was capped.
        self.capped_plans += len(capped)

    def mean_ms(self, name: str) -> float:
        calls = self.calls[name]
        return self.total_s[name] / calls * 1e3 if calls else 0.0

    def pipeline_metrics(self, passes: int) -> Dict[str, float]:
        """Metrics of the layers a sweep unit and a replay epoch share
        (mapping, planning, evaluation), the unit roots' ``repro.perf``
        counters and the self-time shares; counts are per pass."""
        plans = self.calls["quality.evaluate"]
        return {
            "constraints.check_ms": self.mean_ms("constraints.check"),
            "constraints.find_calls_per_plan":
                self.calls["constraints.find"] / plans if plans else 0.0,
            "quality.harmful_ms": self.mean_ms("quality.harmful"),
            "quality.harmful_pairs": self.harmful_pairs / passes,
            "quality.capped_plans": self.capped_plans / passes,
            "quality.completeness_ms": self.mean_ms("quality.completeness"),
            "flows.steady_state_calls":
                (self.calls[SAMPLED] + self.unsampled) / passes,
            "flows.steady_state_ms": self.mean_ms("flows.steady_state"),
            "aggregation.estimate_calls":
                self.calls["aggregation.estimate"] / passes,
            "aggregation.estimate_ms": self.mean_ms("aggregation.estimate"),
            "env.map_ms": self.mean_ms("env.map"),
            "env.measurements":
                self.attr_sums[("env.map", "measurements")] / passes,
            "planner.plan_ms": self.mean_ms("planner.plan"),
            **{f"perf.{k}": v / passes for k, v in self.counters.items()},
            **self.unit_shares(),
        }

    def unit_shares(self) -> Dict[str, float]:
        """``self_share.<layer>`` inside the unit roots, and
        ``untraced_share``.

        The unsampled calls of :data:`SAMPLED` are timed at the mean
        recorded call and moved from the layer they ran in to their own.
        """
        if self.unit_s <= 0:
            raise ValueError("no unit root spans recorded")
        call_s = self.total_s[SAMPLED] / self.calls[SAMPLED] \
            if self.calls[SAMPLED] else 0.0
        layer_s = dict(self.layer_s)
        layer_s[None] = self.root_self_s
        for layer, calls in self.unsampled_in.items():
            layer_s[layer] -= calls * call_s
            layer_s[layer_of(SAMPLED)] = \
                layer_s.get(layer_of(SAMPLED), 0.0) + calls * call_s
        shares = {f"self_share.{layer}": seconds / self.unit_s
                  for layer, seconds in layer_s.items() if layer is not None}
        shares["untraced_share"] = layer_s[None] / self.unit_s
        return shares
