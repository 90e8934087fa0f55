"""The parallel sweep runner and the pool supervisor it shares with serve.

:func:`run_sweep` shards a list of registered scenarios across a warm
process pool, runs the full map → plan → quality pipeline per scenario
(:func:`repro.pipeline.run_pipeline`), caches each result on disk keyed by
scenario content hash + code version, and aggregates the outcomes into a
JSONL result store plus summary rows.

Cache layout (one file per scenario × code state × run parameters)::

    <cache_dir>/<scenario>-<scenario_hash[:12]>-<code_version[:12]>-<run_key[:8]>.json

A cached scenario is *not* re-run unless ``rerun=True``; editing any source
file under ``src/repro`` changes the code version and invalidates the whole
cache, editing a scenario's parameters invalidates that scenario only, and
sweeping with different run parameters (``period_s`` / ``baselines``) uses
separate cache entries.

Crash resilience: every pool task — a sweep's and the serving layer's
alike — goes through one supervisor (:func:`submit_scenario`).  It owns a
warm ``concurrent.futures.ProcessPoolExecutor`` of forked workers and
returns a future per task, which it settles under a retry budget and an
optional per-attempt deadline:

* a worker that dies (OOM, segfault, injected ``kill``) breaks the pool,
  and every task in flight on it fails with ``BrokenProcessPool``.  The
  blame rule: a break with one task in flight charges that task; a break
  with several charges none and re-runs each suspect alone, so the culprit
  is caught on its own and its co-tenants never pay for it;
* a task past its deadline (or a cancelled one) can only be stopped by
  killing the pool's workers: the expired task is charged, the others
  re-run uncharged;
* an exception out of the worker (injected ``raise``) is charged;
* a charged failure backs off exponentially with seeded jitter, and a task
  whose ``retries`` are spent resolves to a ``status="failed"`` quarantine
  record instead of sinking its caller.

Every retry, respawn, death, deadline and quarantine is a :mod:`repro.obs`
counter plus a structured log line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis import render_table
from ..dynamics import DynamicScenario, run_replay
from .. import faults
from ..faults import FaultInjected
from ..ioutils import write_atomic
from ..obs.logs import get_logger, kv
from ..obs.metrics import REGISTRY
from ..obs.profile import PROFILER
from ..obs.runtime import task_runtime
from ..obs.trace import TRACER
from ..perf import counters_snapshot, fast_path_enabled, set_fast_path
from ..pipeline import run_pipeline
from ..scenarios import Scenario, get_scenario, list_scenarios
from .results import (
    SweepRecord,
    append_jsonl,
    default_store_path,
    summary_rows,
)

__all__ = ["SweepResult", "TaskContext", "code_version", "cache_path",
           "run_scenario", "run_sweep", "load_cached_record", "store_record",
           "submit_scenario", "respawn_pool", "DEFAULT_CACHE_DIR",
           "DEFAULT_BASELINES", "DEFAULT_RETRIES", "DEFAULT_TASK_DEADLINE_S"]

DEFAULT_CACHE_DIR = ".sweep-cache"
#: Baselines evaluated per scenario; a subset of the CLI ``quality`` set to
#: keep per-scenario cost dominated by the ENV pipeline itself.
DEFAULT_BASELINES: Tuple[str, ...] = ("global-clique", "subnet")
#: Extra attempts a task gets after its first failure before quarantine.
DEFAULT_RETRIES = 2
#: Per-task wall-clock deadline; expiring it restarts the pool.
DEFAULT_TASK_DEADLINE_S = 600.0

_LOG = get_logger("sweep")

_TASK_ERRORS = REGISTRY.counter(
    "repro_sweep_task_errors_total",
    "scenario runs that produced an error record")
_TASK_RETRIES = REGISTRY.counter(
    "repro_sweep_task_retries_total",
    "pool task re-dispatches, by trigger",
    labels=("reason",))
_TASKS_QUARANTINED = REGISTRY.counter(
    "repro_sweep_tasks_quarantined_total",
    "pool tasks marked failed after exhausting their retry budget")
_POOL_RESPAWNS = REGISTRY.counter(
    "repro_sweep_pool_respawns_total",
    "worker pool teardowns forced by deadlines, cancellations or callers")
_WORKER_DEATHS = REGISTRY.counter(
    "repro_sweep_worker_deaths_total",
    "pool breaks caused by a worker process dying")
_TASK_DEADLINES = REGISTRY.counter(
    "repro_sweep_task_deadlines_total",
    "pool tasks that exceeded their per-attempt deadline")
_STORE_WRITE_ERRORS = REGISTRY.counter(
    "repro_sweep_store_write_errors_total",
    "cache/store writes that failed (sweep degraded, results kept in memory)")
_SWEEP_INFLIGHT = REGISTRY.gauge(
    "repro_sweep_inflight_tasks",
    "sweep tasks currently submitted to the pool supervisor")
_SWEEP_PENDING = REGISTRY.gauge(
    "repro_sweep_pending_tasks",
    "sweep tasks waiting for a slot in the sweep's window")


@dataclass(frozen=True)
class TaskContext:
    """Caller state shipped with every pool task.

    The warm pool's workers were forked once and keep their globals, so
    *nothing* set in the parent afterwards applies to them implicitly.
    Anything per-task must ride along explicitly: the fast-path switch
    (a pool created under one setting must not silently apply it to later
    tasks submitted under another) and the submitter's trace context (the
    worker parents its spans under it and ships them back over the result
    channel).
    """

    fast_path: bool = True
    trace: Optional[Dict[str, str]] = None
    #: Non-zero arms the worker's sampling profiler at this rate for the
    #: task; its collapsed stacks ride the result channel home (see
    #: :func:`_worker`).
    profile_hz: int = 0
    #: 0-based retry attempt of this dispatch: the task's charged failures
    #: so far.  Rides with the task (rather than living in worker state) so
    #: fault plans can target "attempt 0 only" deterministically across
    #: pool restarts.
    attempt: int = 0

    @classmethod
    def current(cls) -> "TaskContext":
        """The submitting process' state at call time."""
        return cls(fast_path=fast_path_enabled(),
                   trace=TRACER.current_context())


@lru_cache(maxsize=1)
def code_version() -> str:
    """SHA-256 over every source file of the ``repro`` package.

    Any code change invalidates previously cached sweep results.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    sources: List[str] = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        sources.extend(os.path.join(dirpath, f)
                       for f in sorted(filenames) if f.endswith(".py"))
    for source in sources:
        digest.update(os.path.relpath(source, package_root).encode("utf-8"))
        with open(source, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _run_key(period_s: float, baselines: Sequence[str]) -> str:
    """Short digest of the run parameters that shape a scenario's result."""
    payload = json.dumps({"period_s": period_s,
                          "baselines": sorted(baselines)},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:8]


def cache_path(cache_dir: str, scenario_name: str,
               period_s: float = 60.0,
               baselines: Sequence[str] = DEFAULT_BASELINES) -> str:
    """The cache file a result for ``scenario_name`` lives in.

    The key couples the scenario's content hash, the code version and the
    run parameters (period, baselines), so results recorded under different
    sweep flags are never served for one another.  Dynamic scenarios ignore
    ``baselines`` at run time (a replay has no baseline stage), so it is
    excluded from their key — a ``--baselines`` change never forces their
    expensive multi-epoch replays to re-run.
    """
    scenario = get_scenario(scenario_name)
    if isinstance(scenario, DynamicScenario):
        baselines = ()
    return os.path.join(
        cache_dir,
        f"{scenario.name}-{scenario.content_hash[:12]}-{code_version()[:12]}"
        f"-{_run_key(period_s, baselines)}.json")


def run_scenario(scenario_or_name: "Scenario | str",
                 period_s: float = 60.0,
                 baselines: Sequence[str] = DEFAULT_BASELINES) -> SweepRecord:
    """Build one scenario, run the pipeline, return its record.

    Never raises — scenario failures come back as ``status="error"``
    records (with the traceback, a structured log line and a
    ``repro_sweep_task_errors_total`` tick) — except for injected
    :class:`~repro.faults.FaultInjected` chaos, which must propagate so the
    dispatch layers exercise their *infrastructure*-failure paths rather
    than recording a deterministic scenario error.

    Accepts a :class:`Scenario` directly (what the pool workers receive, so a
    spawn-started worker never has to consult the parent's registry) or a
    registered scenario name.  Dynamic scenarios are replayed over their
    churn schedule instead of running the one-shot pipeline; their records
    carry the epoch-aware replay digest (``summary["epoch_records"]``), the
    ``baselines`` parameter does not apply to them (a replay has no baseline
    stage), and the cache key inherits the schedule identity because the
    scenario's content hash covers every churn parameter plus the base
    platform hash.
    """
    start = time.perf_counter()
    name = (scenario_or_name.name if isinstance(scenario_or_name, Scenario)
            else scenario_or_name)
    scenario = None
    try:
        scenario = (scenario_or_name if isinstance(scenario_or_name, Scenario)
                    else get_scenario(scenario_or_name))
        if isinstance(scenario, DynamicScenario):
            summary = run_replay(scenario, period_s=period_s).summary()
        else:
            with TRACER.span("pipeline.simulate", scenario=scenario.name):
                platform = scenario.build()
            summary = run_pipeline(platform, period_s=period_s,
                                   baselines=baselines).summary()
        return SweepRecord(
            scenario=scenario.name,
            family=scenario.family,
            scenario_hash=scenario.content_hash,
            code_version=code_version(),
            status="ok",
            elapsed_s=time.perf_counter() - start,
            summary=summary,
        )
    except FaultInjected:
        raise
    except Exception as exc:
        _TASK_ERRORS.inc()
        _LOG.error("event=scenario_error %s",
                   kv(scenario=name, error=f"{type(exc).__name__}: {exc}"))
        return SweepRecord(
            scenario=name,
            family=scenario.family if scenario else "unknown",
            scenario_hash=scenario.content_hash if scenario else "",
            code_version=code_version(),
            status="error",
            elapsed_s=time.perf_counter() - start,
            error=traceback.format_exc(),
        )


def _worker(args: Tuple[Scenario, float, Tuple[str, ...], TaskContext]
            ) -> Tuple[SweepRecord, Dict[str, int], List[Dict[str, object]],
                       Optional[Dict[str, object]], Dict[str, object]]:
    """Run one task; return its record plus its observability payload.

    ``repro.perf.COUNTERS`` and the span ring buffer are per-process, so
    pipeline work done in a pool worker is invisible to the submitting
    process; the serving layer folds the counter deltas back in (so its
    ``/metrics`` endpoint reflects the work its jobs actually caused) and
    ingests the captured spans (so ``GET /trace/{id}`` shows the worker's
    pipeline stages).  A pool worker runs one task at a time, so the
    before/after counter difference — and the captured span set — is
    exactly this task's work.

    With ``context.profile_hz`` set, the task additionally runs under the
    worker's sampling profiler; the fourth element of the return tuple is
    the shipped profile payload (``None`` when unprofiled), which the
    submitter folds into its own :data:`~repro.obs.profile.PROFILER`.

    The fifth element is the task's runtime payload (peak RSS, CPU
    seconds, GC collection deltas — :func:`repro.obs.runtime.task_runtime`),
    folded into the submitter's ``repro_worker_*`` series.  Captured spans
    are stamped with this worker's pid so the Perfetto export
    (``repro trace --format chrome``) renders each worker as its own
    process track.
    """
    scenario, period_s, baselines, context = args
    # Chaos hook: adopt any env-propagated fault plan and fire worker
    # faults (kill / hang / raise) scheduled for this scenario + attempt.
    faults.activate_from_env()
    faults.inject_worker(scenario.name, attempt=context.attempt)
    # Apply the shipped per-task state (see TaskContext): the fast-path
    # switch, and — under a sampled trace — a span adopting the submitter's
    # context so the scenario's pipeline-stage spans parent correctly.
    set_fast_path(context.fast_path)
    before = counters_snapshot()
    with TRACER.capture() as captured, \
            task_runtime() as runtime, \
            PROFILER.maybe(bool(context.profile_hz),
                           hz=context.profile_hz) as profile, \
            TRACER.adopt(context.trace, "sweep.run_scenario",
                         scenario=scenario.name, fast_path=context.fast_path):
        record = run_scenario(scenario, period_s=period_s,
                              baselines=baselines)
    after = counters_snapshot()
    deltas = {name: after[name] - before[name] for name in after}
    pid = os.getpid()
    for span in captured.spans:
        span.setdefault("attrs", {}).setdefault("pid", pid)
    return (record, deltas, captured.spans, profile.as_payload(),
            runtime.as_payload())


# -- the pool supervisor ------------------------------------------------------
# One warm executor per process, shared by sweeps and the serving layer, and
# one supervisor thread that owns it: every dispatch, deadline, retry and
# pool restart happens there.  Workers are forked, never spawned: they
# inherit the parent's state (scenarios registered at run time, installed
# tracing wrappers) and do not re-import the package.  ``fork`` rules out
# ``max_tasks_per_child``, so workers live as long as their pool.

#: Base of the retry backoff ladder: 0.05, 0.1, 0.2, ... capped at 2 s,
#: scaled by a jitter in [0.5, 1.5) seeded by scenario and attempt.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


def _pool_initializer() -> None:
    # Runs in each worker at start.  A forked worker inherits the parent's
    # signal handling — under ``repro serve``, asyncio's wakeup fd — so a
    # SIGTERM to the worker would reach the server's event loop as its own
    # and leave the worker running.  Workers die on SIGTERM and leave
    # SIGINT (Ctrl-C to the process group) to their parent.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Mark the process as killable/hangable by the fault layer, and adopt
    # any env-propagated fault plan eagerly.
    faults.mark_worker_process()
    faults.activate_from_env()


class _Task(Future):
    """One scenario run under supervision: the future its caller holds.

    Resolves to :func:`_worker`'s tuple or, once the retry budget is spent,
    to ``(quarantine record, {}, [], None, None)``; it never raises.  The
    in-process serial sweep shares its retry bookkeeping.
    """

    def __init__(self, scenario: Scenario, period_s: float,
                 baselines: Sequence[str], context: TaskContext,
                 retries: int, deadline_s: Optional[float] = None,
                 workers: int = 1) -> None:
        super().__init__()
        self.scenario = scenario
        self.args = (scenario, period_s, tuple(baselines), context)
        self.retries = retries
        self.deadline_s = deadline_s
        self.workers = workers
        #: Charged failures: the ``TaskContext.attempt`` of the next run.
        self.failures = 0
        #: The trigger of every re-dispatch, charged or not.
        self.redispatches: List[str] = []
        #: Lost in a pool break shared with other tasks: re-runs alone.
        self.suspect = False
        #: Monotonic instants: end of the backoff, end of the running
        #: attempt.
        self.not_before = 0.0
        self.expires = math.inf

    @property
    def name(self) -> str:
        return self.scenario.name

    def payload(self) -> Tuple[Scenario, float, Tuple[str, ...],
                               TaskContext]:
        scenario, period_s, baselines, context = self.args
        return (scenario, period_s, baselines,
                dataclasses.replace(context, attempt=self.failures))

    def charge(self, trigger: str, detail: str) -> Optional[float]:
        """Charge one failed attempt: the backoff before the retry, or
        ``None`` when the budget is spent and the task is quarantined."""
        self.failures += 1
        self.suspect = False
        if self.failures > self.retries:
            _TASKS_QUARANTINED.inc()
            _LOG.error("event=task_quarantined %s",
                       kv(scenario=self.name, attempts=self.failures,
                          reason=detail))
            return None
        self.redispatches.append(trigger)
        _TASK_RETRIES.labels(reason=trigger).inc()
        _LOG.warning("event=task_retry %s",
                     kv(scenario=self.name, attempt=self.failures,
                        reason=trigger, detail=detail))
        base = min(_BACKOFF_CAP_S,
                   _BACKOFF_BASE_S * 2 ** (self.failures - 1))
        jitter = random.Random(f"{self.name}/{self.failures}").random()
        return base * (0.5 + jitter)

    def quarantine_record(self, detail: str) -> SweepRecord:
        return SweepRecord(
            scenario=self.name,
            family=self.scenario.family,
            scenario_hash=self.scenario.content_hash,
            code_version=code_version(),
            status="failed",
            error=(f"quarantined: worker lost on {self.failures} "
                   f"attempt(s) (last failure: {detail})"),
        )

    def cancel(self) -> bool:
        # Reaches a running task too: the supervisor kills its worker, the
        # only way to stop one task mid-run.
        if not super().cancel():
            return False
        self.set_running_or_notify_cancel()     # wakes wait() callers
        _SUPERVISOR.drop(self)
        return True

    def resolve(self, outcome: tuple) -> None:
        try:
            self.set_result(outcome)
        except InvalidStateError:
            # Cancelled while its outcome was on the way: nobody waits.
            _LOG.debug("event=task_outcome_dropped %s",
                       kv(scenario=self.name))


class _Supervisor:
    """Owns the warm executor; all state is guarded by ``_cond``.

    Executor callbacks and cancellations update the state and notify; the
    supervisor thread dispatches queued tasks and expires deadlines,
    sleeping until the next event, deadline or end of a backoff.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._queue: List[_Task] = []
        self._running: Dict[Future, _Task] = {}
        self._thread: Optional[threading.Thread] = None

    def submit(self, task: _Task) -> _Task:
        with self._cond:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-pool-supervisor",
                    daemon=True)
                self._thread.start()
            self._queue.append(task)
            self._cond.notify()
        return task

    def drop(self, task: _Task) -> None:
        """Forget a cancelled task, killing its worker if it has one."""
        with self._cond:
            if task in self._queue:
                self._queue.remove(task)
            elif task in self._running.values():
                self.restart("task-cancelled", culprits=[task])

    def restart(self, reason: str, culprits: Sequence[_Task] = ()) -> None:
        """Kill and reap the pool's workers; re-run the tasks that were
        running on it, uncharged — all but ``culprits``."""
        with self._cond:
            executor, self._executor = self._executor, None
            lost = list(self._running.values())
            self._running.clear()
            if executor is not None:
                _POOL_RESPAWNS.inc()
                _LOG.warning("event=pool_respawn %s",
                             kv(reason=reason, processes=self._workers,
                                in_flight=len(lost)))
                # Python 3.11 has no public way to stop a worker mid-task:
                # the one private access, the executor's pid → process map.
                processes = list(executor._processes.values())
                for process in processes:
                    process.kill()
                executor.shutdown(wait=False)
                for process in processes:
                    process.join()
            for task in lost:
                if task not in culprits:
                    self._requeue(task)
            self._cond.notify()

    def _requeue(self, task: _Task, suspect: bool = False) -> None:
        task.suspect = suspect
        task.redispatches.append("pool-respawn")
        _TASK_RETRIES.labels(reason="pool-respawn").inc()
        self._queue.append(task)

    def _fail(self, task: _Task, trigger: str, detail: str) -> None:
        backoff = task.charge(trigger, detail)
        if backoff is None:
            task.resolve((task.quarantine_record(detail), {}, [], None,
                          None))
        else:
            task.not_before = time.monotonic() + backoff
            self._queue.append(task)

    def _on_done(self, future: Future) -> None:
        with self._cond:
            task = self._running.pop(future, None)
            if task is None:
                return                  # detached by a restart: requeued
            error = future.exception()
            if error is None:
                task.resolve(future.result())
            elif isinstance(error, BrokenProcessPool):
                # A worker died, and the pool broke under every task in
                # flight on it.  The blame rule: one task in flight is the
                # culprit; of several, each re-runs alone, uncharged.
                lost = [task, *self._running.values()]
                self._running.clear()
                self._executor = None
                _WORKER_DEATHS.inc()
                _LOG.warning("event=worker_death %s",
                             kv(in_flight=",".join(t.name for t in lost)))
                if len(lost) == 1:
                    self._fail(task, "worker-death", str(error))
                else:
                    for suspect in lost:
                        self._requeue(suspect, suspect=True)
            else:
                self._fail(task, "worker-crash",
                           f"{type(error).__name__}: {error}")
            self._cond.notify()

    def _dispatch(self, now: float) -> None:
        """Start queued tasks while the pool has room for them."""
        while True:
            # Suspects first, and each alone: the next break is theirs.
            ready = sorted((t for t in self._queue if t.not_before <= now),
                           key=lambda t: not t.suspect)
            if not ready:
                return
            task = ready[0]
            busy = len(self._running)
            if busy and (busy >= self._workers or task.suspect
                         or task.workers != self._workers
                         or any(t.suspect for t in self._running.values())):
                return
            if self._executor is None or task.workers != self._workers:
                if busy:
                    return              # a broken pool still failing tasks
                if self._executor is not None:
                    self._executor.shutdown(wait=False)
                # ``jobs`` is a concurrency cap: a changed cap gets a pool
                # of its own size once the old one has drained.
                self._executor = ProcessPoolExecutor(
                    max_workers=task.workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_pool_initializer)
                self._workers = task.workers
            self._queue.remove(task)
            try:
                future = self._executor.submit(_worker, task.payload())
            except Exception as exc:    # noqa: BLE001 — the thread lives on
                # An idle worker died (BrokenProcessPool) or fork failed:
                # start afresh, charging the attempt only in the latter case.
                self._executor = None
                if isinstance(exc, BrokenProcessPool):
                    self._queue.append(task)
                else:
                    self._fail(task, "worker-crash",
                               f"{type(exc).__name__}: {exc}")
                continue
            task.expires = now + (task.deadline_s or math.inf)
            self._running[future] = task
            future.add_done_callback(self._on_done)

    def _loop(self) -> None:
        with self._cond:
            while True:
                now = time.monotonic()
                expired = [t for t in self._running.values()
                           if t.expires <= now]
                if expired:
                    _TASK_DEADLINES.inc(len(expired))
                    self.restart("task-deadline", culprits=expired)
                    for task in expired:
                        self._fail(task, "deadline", f"exceeded its "
                                   f"{task.deadline_s:g}s deadline")
                self._dispatch(now)
                wake = min([t.not_before for t in self._queue
                            if t.not_before > now]
                           + [t.expires for t in self._running.values()],
                           default=math.inf)
                self._cond.wait(None if wake == math.inf else wake - now)


_SUPERVISOR = _Supervisor()


def submit_scenario(scenario_name: str, processes: int,
                    period_s: float = 60.0,
                    baselines: Sequence[str] = DEFAULT_BASELINES,
                    trace_ctx: Optional[Dict[str, str]] = None,
                    profile_hz: int = 0,
                    retries: int = 0,
                    deadline_s: Optional[float] = None) -> _Task:
    """Run one scenario on the shared warm pool; returns its future.

    The one way onto the pool, for sweeps and the serving layer alike.
    ``processes`` caps the pool's concurrency, ``retries`` budgets the
    infrastructure failures (lost worker, deadline, injected fault) a task
    may survive, and ``deadline_s`` bounds each attempt.  Cancelling the
    future kills its worker.  ``trace_ctx`` overrides the submitter's
    ambient trace context (the serving layer captures it on the request
    thread); ``profile_hz`` arms the worker's sampling profiler.
    """
    context = TaskContext(fast_path=fast_path_enabled(),
                          trace=trace_ctx or TRACER.current_context(),
                          profile_hz=profile_hz)
    return _SUPERVISOR.submit(_Task(get_scenario(scenario_name), period_s,
                                    baselines, context, retries, deadline_s,
                                    workers=max(1, processes)))


def respawn_pool(reason: str) -> None:
    """Kill and reap the shared pool's workers.

    Tasks in flight re-run, uncharged, on a fresh pool; with none, no
    worker is forked until the next submit, so this is also the explicit
    shutdown (interpreter exit would wait on a hung worker).  A no-op
    without a live pool.
    """
    _SUPERVISOR.restart(reason)


@dataclass
class SweepResult:
    """Aggregate outcome of one :func:`run_sweep` invocation."""

    records: List[SweepRecord] = field(default_factory=list)
    out_path: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def errors(self) -> List[SweepRecord]:
        return [r for r in self.records if not r.ok]

    def summary_table(self) -> str:
        return render_table(summary_rows(self.records))


def load_cached_record(cache_dir: str, scenario_name: str,
                       period_s: float = 60.0,
                       baselines: Sequence[str] = DEFAULT_BASELINES,
                       ) -> Optional[SweepRecord]:
    """The cached record of one scenario, or ``None`` on a miss.

    Shared by :func:`run_sweep` and the serving layer's job queue, which
    checks it before dispatching pipeline work; corrupt entries and cached
    failures count as misses.
    """
    try:
        with open(cache_path(cache_dir, scenario_name, period_s=period_s,
                             baselines=baselines),
                  "r", encoding="utf-8") as handle:
            record = SweepRecord.from_json(handle.read())
    except (OSError, ValueError, TypeError):
        return None
    # A cached failure is not worth keeping: re-run the scenario.
    return record if record.ok else None


def store_record(cache_dir: str, record: SweepRecord,
                 period_s: float = 60.0,
                 baselines: Sequence[str] = DEFAULT_BASELINES,
                 out_path: Optional[str] = None) -> str:
    """Persist one freshly run record the way :func:`run_sweep` does.

    Successful records land in the per-scenario cache (atomically, so a
    later sweep of the same scenario is a cache hit) and every record is
    appended to the JSONL result store.  Returns the store path.  Raises
    ``OSError`` when the disk refuses — callers that must not fail (the
    serving layer) catch it and fall back to memory.
    """
    if record.ok and not record.cached:
        os.makedirs(cache_dir, exist_ok=True)
        write_atomic(cache_path(cache_dir, record.scenario, period_s=period_s,
                                baselines=baselines),
                     record.to_json() + "\n", suffix=".json")
    out_path = out_path or default_store_path(cache_dir)
    append_jsonl(out_path, [record])
    return out_path


def _run_parallel(todo: Sequence[str], processes: int, period_s: float,
                  baselines: Sequence[str], retries: int,
                  task_deadline_s: float) -> List[SweepRecord]:
    """Run ``todo`` through the pool supervisor, ``processes`` at a time.

    A window of supervised futures, refilled as they complete, so a serve
    job sharing the pool never queues behind the whole sweep.  Each future
    settles to a record — the scenario's, or its quarantine record.
    """
    names = iter(todo)
    window: Set[Future] = set()
    done: List[SweepRecord] = []
    try:
        while True:
            for name in islice(names, processes - len(window)):
                window.add(submit_scenario(
                    name, processes, period_s=period_s, baselines=baselines,
                    retries=retries, deadline_s=task_deadline_s))
            _SWEEP_INFLIGHT.set(len(window))
            _SWEEP_PENDING.set(len(todo) - len(done) - len(window))
            if not window:
                return done
            finished, window = wait(window, return_when=FIRST_COMPLETED)
            done.extend(future.result()[0] for future in finished)
    finally:
        # Interrupted (Ctrl-C, a broken caller): stop what still runs.
        for future in window:
            future.cancel()
        _SWEEP_INFLIGHT.set(0)
        _SWEEP_PENDING.set(0)


def _run_serial(todo: Sequence[str], period_s: float,
                baselines: Sequence[str], retries: int) -> List[SweepRecord]:
    """The in-process path, with the supervisor's retry/quarantine rules.

    Only ``raise`` faults fire here (this process must not kill or hang
    itself), so an attempt fails only by raising.
    """
    done: List[SweepRecord] = []
    for name in todo:
        task = _Task(get_scenario(name), period_s, baselines,
                     TaskContext.current(), retries)
        while True:
            try:
                done.append(_worker(task.payload())[0])
                break
            except FaultInjected as exc:
                detail = f"{type(exc).__name__}: {exc}"
                backoff = task.charge("worker-crash", detail)
                if backoff is None:
                    done.append(task.quarantine_record(detail))
                    break
                time.sleep(backoff)
    return done


def run_sweep(names: Optional[Sequence[str]] = None,
              pattern: Optional[str] = None,
              jobs: int = 1,
              cache_dir: str = DEFAULT_CACHE_DIR,
              rerun: bool = False,
              out_path: Optional[str] = None,
              period_s: float = 60.0,
              baselines: Sequence[str] = DEFAULT_BASELINES,
              retries: int = DEFAULT_RETRIES,
              task_deadline_s: float = DEFAULT_TASK_DEADLINE_S
              ) -> SweepResult:
    """Run the pipeline over many scenarios, with caching and parallelism.

    Parameters
    ----------
    names:
        Explicit scenario names; defaults to every registered scenario.
    pattern:
        Substring filter on name/family/tags, applied to the selection.
    jobs:
        Worker processes; ``1`` runs in-process (easier to debug/profile).
    cache_dir:
        Where per-scenario result files live; created on demand.
    rerun:
        Ignore (and overwrite) existing cache entries.
    out_path:
        JSONL result store to append this run's records to; defaults to
        ``<cache_dir>/results.jsonl``.
    retries:
        Extra attempts a task gets after an *infrastructure* failure (lost
        worker, deadline, injected fault) before being quarantined as a
        ``status="failed"`` record.  Deterministic scenario errors are
        never retried — rerunning broken code is waste.
    task_deadline_s:
        Per-attempt wall-clock budget; a task outliving it forces a pool
        restart and burns one of its retries.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if retries < 0:
        raise ValueError("retries must be >= 0")
    if task_deadline_s <= 0:
        raise ValueError("task_deadline_s must be > 0")
    start = time.perf_counter()
    if names is None:
        selected = [s.name for s in list_scenarios(pattern)]
    else:
        selected = [get_scenario(n).name for n in names]
        if pattern:
            selected = [n for n in selected
                        if get_scenario(n).matches(pattern)]
        # Duplicate names would run the scenario twice and append duplicate
        # records to the result store; keep the first occurrence only.
        selected = list(dict.fromkeys(selected))
    if not selected:
        raise ValueError("no scenarios selected "
                         f"(pattern={pattern!r}, names={names!r})")
    os.makedirs(cache_dir, exist_ok=True)

    records: Dict[str, SweepRecord] = {}
    todo: List[str] = []
    for name in selected:
        cached = None if rerun else load_cached_record(
            cache_dir, name, period_s=period_s, baselines=baselines)
        if cached is not None:
            cached.cached = True
            records[name] = cached
        else:
            todo.append(name)

    if jobs == 1 or len(todo) <= 1:
        fresh = _run_serial(todo, period_s, baselines, retries)
    else:
        # Size by the requested cap alone: a pool never runs more tasks
        # than are queued, and a todo-dependent size would tear the warm
        # pool down whenever the cache state changes.
        fresh = _run_parallel(todo, jobs, period_s, baselines, retries,
                              task_deadline_s)

    for record in fresh:
        records[record.scenario] = record
        if record.ok:
            try:
                # Atomic: a killed process must not leave a truncated cache
                # entry.
                write_atomic(cache_path(cache_dir, record.scenario,
                                        period_s=period_s,
                                        baselines=baselines),
                             record.to_json() + "\n", suffix=".json")
            except OSError as exc:
                # Degraded, not dead: the sweep still returns (and stores
                # below, if the store path is healthier than the cache).
                _STORE_WRITE_ERRORS.inc()
                _LOG.warning("event=cache_write_error %s",
                             kv(scenario=record.scenario, error=str(exc)))

    ordered = [records[name] for name in selected]
    out_path = out_path or default_store_path(cache_dir)
    try:
        append_jsonl(out_path, ordered)
    except OSError as exc:
        _STORE_WRITE_ERRORS.inc()
        _LOG.warning("event=store_append_error %s",
                     kv(path=out_path, records=len(ordered),
                        error=str(exc)))
    return SweepResult(records=ordered, out_path=out_path,
                       elapsed_s=time.perf_counter() - start)
