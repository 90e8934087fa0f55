"""serve-mixed: two keep-alive clients in a closed loop against ``repro serve``.

Each client cycle is a ``POST /runs`` (mostly sweep-cache hits, plus a
seeded share of ``rerun=true`` pool jobs), polls of ``GET /runs/{id}``
until the job is terminal, then reads: the job's record through
``/results``, ``/results/{scenario}/latest``, a family page of
``/results`` and a family filter of ``/scenarios``.  A unit is one job
round trip, from the POST to the poll that sees it terminal.  The store
is pre-filled with seeded records, and every job appends to it while the
reads run.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.sweep.runner import code_version

import inputs
import layers
from common import BENCH_DIR, ROOT, BenchError, median, nearest_rank

#: Client pause between two polls of a job.
POLL_S = 0.01
#: Seconds a server may take to announce its port, or to drain and exit.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
TERMINAL = ("ok", "error", "timeout", "cancelled")
READ_ROUTES = ("results", "results_latest", "scenarios")
#: Newest records of a scenario searched for a job's own.  Two clients keep
#: at most one job each in flight, so a few cover every concurrent append.
READ_BACK_LIMIT = 8


def read_back_problem(job: dict, page: Optional[dict],
                      seen: int) -> Optional[str]:
    """Why ``job``'s record does not read back through ``page``, a
    newest-first ``/results?scenario=`` page, or None if it does.

    ``seen`` counts the scenario's jobs seen terminal so far, this one
    included.  Each appended its record before it turned terminal, so the
    store holds at least that many; a dropped append leaves it short.
    """
    if page is None:
        return "the /results read failed"
    if page["total"] < seen:
        return (f"/results holds {page['total']} records of "
                f"{job['scenario']} after {seen} jobs")
    own = dict(job["record"], cached=job["cached"])
    for record in page["records"]:
        if {key: record.get(key) for key in own} == own:
            return None
    return "no record on /results equals the job's own"


class Server:
    """One ``repro serve`` subprocess with its own cache and store."""

    def __init__(self, seed: int, directory: str, traced: bool) -> None:
        os.makedirs(directory, exist_ok=True)
        self.cache_dir = os.path.join(directory, "cache")
        self.store = os.path.join(directory, "results.jsonl")
        self.spans = os.path.join(directory, "spans.jsonl") if traced \
            else None
        #: Jobs seen terminal per scenario (the store's minimum count).
        self.jobs_seen: Dict[str, int] = {}
        self.lock = threading.Lock()
        with open(self.store, "w", encoding="utf-8") as handle:
            handle.write("\n".join(inputs.serve_fill_lines(
                seed, code_version())) + "\n")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "serve_host.py"),
               "--seed", str(seed), "--cache-dir", self.cache_dir,
               "--store", self.store]
        if self.spans:
            cmd += ["--spans", self.spans]
        self.stderr = open(os.path.join(directory, "server.log"), "w")
        # Its own process group, so its pool workers can be stopped with it.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True, cwd=ROOT,
                                     start_new_session=True)
        announce: List[str] = []
        reader = threading.Thread(
            target=lambda: announce.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        match = re.search(r"http://([^:]+):(\d+)", announce[0]) \
            if announce else None
        if match is None:
            self.stop()
            raise BenchError("server did not announce its port")
        self.host, self.port = match.group(1), int(match.group(2))

    def job_seen(self, scenario: str) -> int:
        """Count one more terminal job of ``scenario``; returns the count."""
        with self.lock:
            self.jobs_seen[scenario] = self.jobs_seen.get(scenario, 0) + 1
            return self.jobs_seen[scenario]

    def stop(self) -> None:
        """SIGTERM (the server drains), then kill whatever of its process
        group is left and wait until every member has ended.

        The server's pool workers are forked after it installs its SIGTERM
        handler, so they can outlive a shutdown that does not reap them.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        self.proc.stdout.close()
        self.stderr.close()


def _group_alive(pgid: int) -> bool:
    """Whether any process of group ``pgid`` has not ended yet."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            return True
    return False


class Client:
    """One keep-alive HTTP connection and what it observed."""

    def __init__(self, server: Server) -> None:
        self.server = server
        self.conn = http.client.HTTPConnection(server.host, server.port,
                                               timeout=60)
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.request_s = 0.0
        self.read_ms: Dict[str, List[float]] = {r: [] for r in READ_ROUTES}
        self.jobs: List[dict] = []

    def close(self) -> None:
        self.conn.close()

    def request(self, method: str, path: str, body: Optional[dict] = None,
                route: Optional[str] = None) -> Tuple[int, object]:
        payload = json.dumps(body).encode("utf-8") if body is not None \
            else None
        headers = {"Content-Type": "application/json"} if payload else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.request_s += elapsed
        if route is not None:
            self.read_ms[route].append(elapsed * 1e3)
        if not 200 <= response.status < 300:
            self.failed += 1
            self.mismatches.append(f"{method} {path}: {response.status}")
            return response.status, None
        return response.status, json.loads(data)

    def cycle(self, spec: dict) -> Optional[float]:
        """One cycle; returns the job round trip in ms (None on failure)."""
        scenario = spec["scenario"]
        start = time.perf_counter()
        status, job = self.request("POST", "/runs", {
            "scenario": scenario, "rerun": spec["rerun"]})
        if job is None:
            return None
        while job["status"] not in TERMINAL:
            time.sleep(POLL_S)
            status, job = self.request("GET", f"/runs/{job['id']}")
            if job is None:
                return None
        round_trip_ms = (time.perf_counter() - start) * 1e3
        self.jobs.append(job)
        if job["status"] != "ok":
            self.failed += 1
            self.mismatches.append(f"job {job['id']} ended {job['status']}")
            return None
        seen = self.server.job_seen(scenario)
        _, page = self.request(
            "GET", f"/results?scenario={scenario}&order=desc"
                   f"&limit={READ_BACK_LIMIT}", route="results")
        problem = read_back_problem(job, page, seen)
        if problem is not None:
            self.failed += 1
            self.mismatches.append(f"job {job['id']}: {problem}")
        self.request("GET", f"/results/{scenario}/latest",
                     route="results_latest")
        self.request("GET", f"/results?family={spec['family']}&limit=20"
                            f"&offset={spec['offset']}", route="results")
        self.request("GET", f"/scenarios?family={spec['family']}",
                     route="scenarios")
        return round_trip_ms


class ServeMixed:
    units_label = "job round trips"

    def __init__(self, seed: int, scratch: str, traced: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.traced = traced
        self.servers: List[Server] = []
        self.clients: Dict[int, List[Client]] = {}
        self.pool = ThreadPoolExecutor(max_workers=inputs.SERVE_CLIENTS)
        self.pass_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.traced_passes = 0
        self.metrics_before: Optional[dict] = None

    @property
    def attempted(self) -> int:
        return sum(c.attempted for cs in self.clients.values() for c in cs)

    @property
    def failed(self) -> int:
        return sum(c.failed for cs in self.clients.values() for c in cs)

    @property
    def mismatches(self) -> List[str]:
        return [m for cs in self.clients.values() for c in cs
                for m in c.mismatches]

    def setup(self) -> None:
        self.names = inputs.serve_scenarios(self.seed)
        self.plan = inputs.serve_plan(self.seed, self.names)
        flavours = [False, True] if self.traced else [False]
        for index, traced in enumerate(flavours):
            server = Server(self.seed, os.path.join(
                self.scratch, f"server-{index}"), traced)
            self.servers.append(server)
            self.clients[index] = [Client(server)
                                   for _ in range(inputs.SERVE_CLIENTS)]
            self._warm(self.clients[index])

    def _warm(self, clients: List[Client]) -> None:
        """Fill the sweep cache through the server's pool (forking it),
        then touch every read route, which indexes the store."""
        first = clients[0]
        for scenario in self.names:
            first.cycle({"scenario": scenario, "rerun": True,
                         "family": "star", "offset": 0})
        for client in clients:
            client.cycle({"scenario": self.names[0], "rerun": False,
                          "family": "ring", "offset": 0})
            client.jobs.clear()
            for samples in client.read_ms.values():
                samples.clear()
            client.request_s = 0.0

    def close(self) -> None:
        for clients in self.clients.values():
            for client in clients:
                client.close()
        for server in self.servers:
            server.stop()
        self.pool.shutdown(wait=True)

    def reference_check(self) -> None:
        """Every job is checked as it completes (status and read-back of its
        own record), and every pass ends with a count of the records."""

    def _pass(self, server_index: int) -> Tuple[float, List[float]]:
        clients = self.clients[server_index]
        start = time.perf_counter()
        futures = [self.pool.submit(
            lambda c=c, cycles=cycles: [c.cycle(spec) for spec in cycles])
            for c, cycles in zip(clients, self.plan)]
        results = [f.result() for f in futures]
        wall = time.perf_counter() - start
        units = [ms for result in results for ms in result if ms is not None]
        self._check_store(server_index)
        return wall, units

    def _check_store(self, server_index: int) -> None:
        """Between passes no job is in flight, so each scenario's record
        count on ``/results`` equals the number of its jobs seen terminal."""
        client = self.clients[server_index][0]
        for scenario, seen in sorted(
                self.servers[server_index].jobs_seen.items()):
            _, page = client.request("GET",
                                     f"/results?scenario={scenario}&limit=1")
            if page is not None and page["total"] != seen:
                client.failed += 1
                client.mismatches.append(
                    f"/results holds {page['total']} records of {scenario} "
                    f"after {seen} jobs")

    def run_pass(self, index: int) -> Tuple[float, List[float]]:
        wall, units = self._pass(0)
        self.pass_walls[False].append(wall)
        return wall, units

    def run_traced_pass(self, index: int) -> Tuple[float, List[float]]:
        """Alternate passes between the plain and the traced server."""
        trace = index % 2 == 1
        if trace and self.metrics_before is None:
            self.metrics_before = self._metrics()
        wall, units = self._pass(1 if trace else 0)
        self.pass_walls[trace].append(wall)
        if trace:
            self.traced_passes += 1
        return wall, units

    def _metrics(self) -> dict:
        client = self.clients[1][0]
        attempted, request_s = client.attempted, client.request_s
        _, body = client.request("GET", "/metrics")
        # The scrape is bookkeeping, not workload traffic.
        client.attempted, client.request_s = attempted, request_s
        if body is None:
            raise BenchError("GET /metrics failed")
        return body

    def per_layer(self) -> Dict[str, float]:
        if not self.traced_passes:
            raise BenchError("no traced pass completed")
        passes = self.traced_passes
        after = self._metrics()
        before = self.metrics_before
        traced_clients = self.clients[1]
        client_s = sum(c.request_s for c in traced_clients)
        self.servers[1].stop()
        stats = layers.SpanStats(())
        for group in layers.load_groups([self.servers[1].spans]):
            stats.add(group)
        handle_names = [n for n in stats.calls if n.startswith("serve.handle")]
        handled_s = sum(stats.total_s[n] for n in handle_names)
        plain = self.clients[0]
        jobs = [job for c in plain for job in c.jobs]
        pool_jobs = [job for job in jobs if not job["cached"]]
        reads = [ms for c in plain for samples in c.read_ms.values()
                 for ms in samples]
        cache = {k: after["response_cache"][k] - before["response_cache"][k]
                 for k in ("hits", "misses")}
        lookups = cache["hits"] + cache["misses"]
        metrics = {
            "jobs.queue_wait_ms": median(
                [(j["started_at"] - j["submitted_at"]) * 1e3 for j in jobs]),
            "jobs.run_ms": median([j["duration_s"] * 1e3 for j in jobs]),
            "jobs.poll_gap_ms": median(
                [(j["duration_s"] - j["record"]["elapsed_s"]) * 1e3
                 for j in pool_jobs]) if pool_jobs else 0.0,
            "jobs.cache_hit_share": (len(jobs) - len(pool_jobs)) / len(jobs),
            "store.query_ms": stats.mean_ms("store.query"),
            "store.records_parsed": (after["store"]["records_parsed"]
                                     - before["store"]["records_parsed"])
            / passes,
            "app.lru_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.read_p50_ms": nearest_rank(reads, 0.5),
            "serve.read_p99_ms": nearest_rank(reads, 0.99),
            "trace.overhead": median(self.pass_walls[True])
            / median(self.pass_walls[False]),
            "self_share.serve.app": sum(stats.self_s[n] for n in handle_names)
            / client_s,
            "self_share.serve.store": stats.self_s["store.query"] / client_s,
            "untraced_share": 1.0 - handled_s / client_s,
        }
        for route in ("runs_post", "runs_poll") + READ_ROUTES:
            metrics[f"serve.handle_ms.{route}"] = stats.mean_ms(
                f"serve.handle.{route}")
        for name in layers.COUNTER_FIELDS:
            metrics[f"perf.{name}"] = (after["perf_counters"][name]
                                       - before["perf_counters"][name]) \
                / passes
        return metrics
