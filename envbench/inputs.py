"""Seeded inputs of the three workloads.

Everything the program receives is generated here from ``--seed``: the
platforms of the quality sweep, the bases and churn schedules of the
replay, and the scenarios, pre-filled store and request plan of the serve
workload.  The same seed always gives the same inputs; another seed gives
other platforms of the same sizes.

The builders live at module level so the registered scenarios pickle by
reference into the sweep's pool workers.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

from repro.dynamics import register_dynamic_scenario
from repro.netsim import (
    CampusSpec,
    DegradedSpec,
    FatTreeSpec,
    RingSpec,
    StarSpec,
    SyntheticSpec,
    WanGridSpec,
    build_ens_lyon,
    generate_campus,
    generate_constellation,
    generate_degraded,
    generate_fat_tree,
    generate_ring,
    generate_single_site,
    generate_star,
    generate_wan_grid,
)
from repro.scenarios import get_scenario, register_scenario

#: Every baseline planner: the quality sweep regenerates the full
#: plan-vs-baseline table.
ALL_BASELINES = ("global-clique", "all-pairs", "random", "subnet")


def derive_seed(seed: int, label: str) -> int:
    """A per-input seed, decorrelated from the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % 1_000_000 + 1


# -- platform builders (fixed sizes; the seed varies the structure) ----------

def build_constellation(sites, clusters, hosts, seed):
    return generate_constellation(SyntheticSpec(
        sites=sites, seed=seed, clusters_per_site=(clusters, clusters),
        hosts_per_cluster=(hosts, hosts)))


def build_wan_grid(rows, cols, hosts, seed):
    return generate_wan_grid(WanGridSpec(
        rows=rows, cols=cols, hosts_per_site=(hosts, hosts), seed=seed))


def build_campus(departments, firewalled, hosts, seed):
    return generate_campus(CampusSpec(
        departments=departments, firewalled_departments=firewalled,
        hosts_per_department=(hosts, hosts), seed=seed))


def build_ring(sites, hosts, seed):
    return generate_ring(RingSpec(sites=sites, hosts_per_site=(hosts, hosts),
                                  seed=seed))


def build_single_site(hubs, switches, hosts, seed):
    return generate_single_site(hubs, switches, hosts, seed=seed)


def build_fat_tree(pods, edges, hosts):
    return generate_fat_tree(FatTreeSpec(pods=pods, edges_per_pod=edges,
                                         hosts_per_edge=hosts))


def build_star(hosts, kind):
    return generate_star(StarSpec(hosts=hosts, kind=kind))


def build_degraded(hosts):
    return generate_degraded(DegradedSpec(hosts_per_cluster=hosts))


def build_paper():
    return build_ens_lyon()


#: Generator family → builder.
_FAMILIES = {
    "synthetic": build_constellation,
    "wan-grid": build_wan_grid,
    "campus": build_campus,
    "ring": build_ring,
    "single-site": build_single_site,
    "fat-tree": build_fat_tree,
    "star": build_star,
    "degraded": build_degraded,
    "paper": build_paper,
}


def _register(prefix: str, seed: int, family: str, name: str,
              params: Dict[str, object], seeded: bool) -> str:
    full = f"{prefix}-{name}"
    if seeded:
        params = dict(params, seed=derive_seed(seed, full))
    register_scenario(full, family=family, tags=("envbench",),
                      **params)(_FAMILIES[family])
    return full


# -- quality-sweep ------------------------------------------------------------

#: One seeded platform per generator family: 12 hosts each, except the
#: paper's ENS-Lyon LAN and a 27-host three-site constellation, whose
#: all-pairs plan reaches the 20k harmful-collision cap.  The constellation
#: is the slowest unit by far; it goes first, so that one pool worker
#: sweeps it while the other takes the rest.
QUALITY_PLATFORMS: List[Tuple[str, str, Dict[str, object], bool]] = [
    ("synthetic", "constellation-3site",
     {"sites": 3, "clusters": 3, "hosts": 3}, True),
    ("wan-grid", "wan-grid-2x2", {"rows": 2, "cols": 2, "hosts": 3}, True),
    ("campus", "campus-3", {"departments": 3, "firewalled": 1, "hosts": 4},
     True),
    ("ring", "ring-4", {"sites": 4, "hosts": 3}, True),
    ("single-site", "single-site-3", {"hubs": 2, "switches": 1, "hosts": 4},
     True),
    ("fat-tree", "fat-tree-2x2", {"pods": 2, "edges": 2, "hosts": 3}, False),
    ("star", "star-hub-12", {"hosts": 12, "kind": "hub"}, False),
    ("degraded", "degraded-4", {"hosts": 4}, False),
    ("paper", "ens-lyon", {}, False),
]


def quality_sweep_inputs(seed: int) -> List[str]:
    """Register the sweep's platforms; returns their names, dispatch order."""
    return [_register("qs", seed, family, name, params, seeded)
            for family, name, params, seeded in QUALITY_PLATFORMS]


# -- churn-replay -------------------------------------------------------------

#: (base family, base name, base params, churn knobs): every kind of churn
#: the dynamics layer knows, each on an 18-host base so that epoch costs
#: overlap and the median epoch is not the edge between two bases.  Each
#: schedule is drawn from eight seeds: how many epochs end in a full remap
#: is one seed's luck (a failure/repair or join/leave base draws 2–5 of
#: 8), and eight draws average it out of the mix.
CHURN_SCHEDULES: List[Tuple[str, str, Dict[str, object], Dict[str, object]]] = [
    ("wan-grid", "drift-wan-3x2", {"rows": 3, "cols": 2, "hosts": 3},
     {"drift_rate": 1.5, "drift_factor_range": (0.3, 2.5),
      "latency_drift_share": 0.25}),
    ("ring", "failures-ring-6", {"sites": 6, "hosts": 3},
     {"drift_rate": 0.8, "drift_factor_range": (0.5, 1.8),
      "failure_rate": 0.35, "repair_delay": 2}),
    ("campus", "membership-campus-3",
     {"departments": 3, "firewalled": 0, "hosts": 6},
     {"drift_rate": 0.5, "drift_factor_range": (0.6, 1.5),
      "join_rate": 0.3, "leave_rate": 0.25}),
    ("synthetic", "flaps-constellation-2site",
     {"sites": 2, "clusters": 3, "hosts": 3},
     {"drift_rate": 0.7, "drift_factor_range": (0.5, 1.6),
      "flap_rate": 0.3}),
]
CHURN_DRAWS = tuple("abcdefgh")
CHURN_EPOCHS = 8


def churn_replay_inputs(seed: int) -> List[str]:
    """Register the bases and their dynamic scenarios; returns the latter."""
    names = []
    for draw in CHURN_DRAWS:
        for family, name, params, knobs in CHURN_SCHEDULES:
            base = _register("cr-base", seed, family, f"{name}-{draw}",
                             params, True)
            dynamic = f"cr-{name}-{draw}"
            register_dynamic_scenario(
                dynamic, base=base, epochs=CHURN_EPOCHS,
                seed=derive_seed(seed, dynamic), **knobs)
            names.append(dynamic)
    return names


# -- serve-mixed --------------------------------------------------------------

#: Small platforms: a rerun job's pipeline stays well under the job
#: dispatcher's 50 ms poll interval, so round trips do not straddle it.
SERVE_PLATFORMS: List[Tuple[str, str, Dict[str, object], bool]] = [
    ("ring", "ring-3", {"sites": 3, "hosts": 2}, True),
    ("campus", "campus-2", {"departments": 2, "firewalled": 1, "hosts": 3},
     True),
    ("wan-grid", "wan-grid-2x1", {"rows": 2, "cols": 1, "hosts": 3}, True),
    ("single-site", "single-site-2", {"hubs": 1, "switches": 1, "hosts": 3},
     True),
    ("synthetic", "constellation-2site",
     {"sites": 2, "clusters": 1, "hosts": 3}, True),
    ("star", "star-hub-6", {"hosts": 6, "kind": "hub"}, False),
]
#: Records pre-filled into the store before the server starts.
SERVE_FILL_RECORDS = 2000
#: Cycles one client runs per pass; ``SERVE_RERUNS`` of them are reruns.
SERVE_CYCLES = 10
SERVE_RERUNS = 2
SERVE_CLIENTS = 2


def serve_scenarios(seed: int) -> List[str]:
    return [_register("sv", seed, family, name, params, seeded)
            for family, name, params, seeded in SERVE_PLATFORMS]


def serve_fill_lines(seed: int, code_version: str) -> List[str]:
    """Seeded store records of past runs (JSONL lines), sweep-record shaped."""
    rng = random.Random(derive_seed(seed, "fill"))
    families = sorted({family for family, _, _, _ in SERVE_PLATFORMS})
    lines = []
    for index in range(SERVE_FILL_RECORDS):
        family = families[index % len(families)]
        scenario = f"fill-{family}-{rng.randrange(50)}"
        hosts = rng.randrange(4, 40)
        rows = [{"planner": planner, "hosts": hosts,
                 "cliques": rng.randrange(1, 12),
                 "collisions": rng.randrange(0, 5000),
                 "harmful": rng.randrange(0, 3000),
                 "completeness": round(rng.random(), 3),
                 "bw_err": round(rng.random(), 3),
                 "lat_err": round(rng.random(), 3)}
                for planner in ("env",) + ALL_BASELINES]
        record = {
            "scenario": scenario, "family": family,
            "scenario_hash": hashlib.sha256(
                scenario.encode("utf-8")).hexdigest(),
            "code_version": code_version, "status": "ok", "cached": False,
            "elapsed_s": round(rng.uniform(0.005, 2.0), 6), "error": None,
            "summary": {"platform": scenario, "hosts": hosts,
                        "baselines": rows,
                        "timings": {"map": rng.random() / 50,
                                    "plan": rng.random() / 500,
                                    "quality": rng.random()}},
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def serve_plan(seed: int, scenarios: List[str]) -> List[List[Dict[str, object]]]:
    """Each client's fixed list of cycles (one pass)."""
    families = sorted({get_scenario(s).family for s in scenarios})
    plans = []
    for client in range(SERVE_CLIENTS):
        rng = random.Random(derive_seed(seed, f"client-{client}"))
        reruns = set(rng.sample(range(SERVE_CYCLES), SERVE_RERUNS))
        cycles = []
        for index in range(SERVE_CYCLES):
            cycles.append({
                "scenario": rng.choice(scenarios),
                "rerun": index in reruns,
                "family": rng.choice(families),
                "offset": rng.randrange(0, 200, 20),
            })
        plans.append(cycles)
    return plans
