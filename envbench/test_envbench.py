"""The benchmark's own tests.

    python3 -m pytest -q envbench/test_envbench.py

They check that the benchmark is deterministic in its inputs, its outputs
and the program's work counters, that its statistics refuse thin samples,
that self time is computed as specified, and that it fails without the
program's sources.  The determinism checks run each probe in a fresh
process, so no cache of one run can leak into the next.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import common  # noqa: E402
import layers  # noqa: E402
import serve_workload  # noqa: E402

#: A seed used by no tuning run; a claimed gain must also hold on it.
HELD_OUT_SEED = 90417

#: Runs one pass of a workload in-process and prints what it produced:
#: per-input platform sizes and digests, the output digest, and the
#: repro.perf counter deltas of the pass.
_PROBE = r"""
import hashlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import inputs
from repro import perf
from repro.dynamics import replay
from repro.scenarios import get_scenario
from repro.sweep.runner import run_scenario

workload, seed = sys.argv[3], int(sys.argv[4])

def platform_digest(platform):
    links = sorted((l.name, l.a, l.b, l.bandwidth_mbps, l.latency_s, l.duplex)
                   for l in platform.links.values())
    payload = json.dumps([sorted(platform.host_names()), links])
    return hashlib.sha256(payload.encode()).hexdigest()

if workload == "quality-sweep":
    names = inputs.quality_sweep_inputs(seed)
elif workload == "churn-replay":
    names = inputs.churn_replay_inputs(seed)
else:
    names = inputs.serve_scenarios(seed)
built = {n: get_scenario(n).build() for n in names}
out = {"sizes": {n: len(p.host_names()) for n, p in built.items()},
       "inputs": {n: platform_digest(p) for n, p in built.items()}}
before = perf.counters_snapshot()
if workload == "quality-sweep":
    outputs = []
    for name in names:
        summary = run_scenario(name, baselines=inputs.ALL_BASELINES).summary
        summary.pop("timings")
        outputs.append(summary)
elif workload == "churn-replay":
    outputs = [[dict(r.as_row(), remap_s=None) for r in
                replay.run_replay(name).records] for name in names]
    out["schedules"] = {n: get_scenario(n).build_schedule(built[n]).digest()
                        for n in names}
else:
    outputs = [inputs.serve_fill_lines(seed, "v"),
               inputs.serve_plan(seed, names)]
after = perf.counters_snapshot()
out["counters"] = {k: after[k] - before[k] for k in after}
out["outputs"] = hashlib.sha256(
    json.dumps(outputs, sort_keys=True).encode()).hexdigest()
print(json.dumps(out))
"""


def _probe(workload: str, seed: int) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, os.path.join(ROOT, "src"), HERE,
         workload, str(seed)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert result.returncode == 0, result.stderr[-3000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["churn-replay", "quality-sweep",
                                      "serve-mixed"])
def test_seed_determines_inputs_outputs_and_counters(workload):
    first = _probe(workload, 7)
    again = _probe(workload, 7)
    other = _probe(workload, HELD_OUT_SEED)
    assert first == again
    assert other["sizes"] == first["sizes"]
    seeded = [n for n in first["inputs"]
              if first["inputs"][n] != other["inputs"].get(n)]
    assert seeded, "another seed must give other inputs"
    assert other["outputs"] != first["outputs"]


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(common.BenchError):
        common.p90_with_support(list(range(99)))
    value, beyond = common.p90_with_support(list(range(1, 101)))
    assert (value, beyond) == (90, 10)


def test_self_time_and_shares():
    # group, name, start, end, parent, counter deltas, attrs, unsampled
    zero = (0,) * len(layers.COUNTER_FIELDS)
    spans = [
        ["g", "sweep.run_scenario", 0.0, 10.0, None, zero, None, 6],
        ["g", "quality.evaluate", 1.0, 7.0, 0, zero, None, 6],
        ["g", "constraints.find", 2.0, 5.0, 1, zero,
         {"n": 4, "capped": True}, 4],
        ["g", "flows.steady_state", 3.0, 3.5, 2, zero, None, 0],
        ["g", "env.map", 7.0, 9.0, 0, zero, None, 0],
    ]
    stats = layers.SpanStats(("sweep.run_scenario",))
    stats.add(spans)
    assert stats.self_s["quality.evaluate"] == pytest.approx(3.0)
    assert stats.self_s["sweep.run_scenario"] == pytest.approx(2.0)
    # Six calls ran without a span, two directly in quality.evaluate and
    # four in constraints.find; each is timed at the recorded 0.5.
    assert stats.unsampled == 6
    shares = stats.unit_shares()
    assert shares["self_share.core.quality"] == pytest.approx(0.2)
    assert shares["self_share.core.constraints"] == pytest.approx(0.05)
    assert shares["self_share.netsim.flows"] == pytest.approx(0.35)
    assert shares["self_share.env"] == pytest.approx(0.2)
    assert shares["untraced_share"] == pytest.approx(0.2)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert stats.pipeline_metrics(1)["flows.steady_state_calls"] == 7
    assert stats.capped_plans == 1
    assert stats.attr_sums[("constraints.find", "n")] == 4


def test_sampled_wrapper_counts_every_call():
    log = layers.SpanLog(layers.new_flag())
    log._counters = type("Counters", (), dict.fromkeys(
        layers.COUNTER_FIELDS, 0))()
    outer = log.wrap(lambda f: f(), "quality.evaluate", None)
    hot = log.wrap(lambda: 1, layers.SAMPLED, None)
    log.set(True)
    calls = 3 * layers.SAMPLE_EVERY + 1
    outer(lambda: [hot() for _ in range(calls)])
    names = [span[1] for span in log.take()]
    assert names == ["quality.evaluate"] + [layers.SAMPLED] * 3
    assert log.unsampled == calls - 3


def test_read_back_detects_a_dropped_or_foreign_record():
    record = {"scenario": "s", "status": "ok", "scenario_hash": "h",
              "code_version": "v", "elapsed_s": 0.25, "summary": {"n": 3}}
    job = {"id": "j1", "scenario": "s", "cached": False, "record": record}
    own = dict(record, cached=False, family="ring", error=None)
    other = dict(own, elapsed_s=0.5)
    problem = serve_workload.read_back_problem
    assert problem(job, {"total": 3, "records": [other, own]}, 3) is None
    # The job's own append was dropped: the store is a record short ...
    assert "after 3 jobs" in problem(job, {"total": 2, "records": [other]},
                                     3)
    # ... or another job's record of the scenario is all there is.
    assert "equals" in problem(job, {"total": 3, "records": [other]}, 3)
    assert "equals" in problem(
        job, {"total": 3, "records": [dict(own, cached=True)]}, 3)
    assert problem(job, None, 1) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "envbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    result = subprocess.run(
        [sys.executable, "envbench/run.py", "--workload", "churn-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""
