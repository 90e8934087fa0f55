"""Run one workload of the benchmark and print its report.

    python3 envbench/run.py --workload quality-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it holds the facts behind it (unit counts, the sample count behind
``run_p90_ms``, set-up samples, ``host.ref_ms``).  Output mismatches
count as failed operations and make the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def load_spec() -> dict:
    """The benchmark's definition: ``BENCHMARK.json`` at the checkout root.

    It names every end-to-end and per-layer metric with its unit; a run
    reports exactly those.
    """
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def _workloads():
    from replay_workload import ChurnReplay
    from serve_workload import ServeMixed
    from sweep_workload import QualitySweep
    return {"quality-sweep": QualitySweep, "churn-replay": ChurnReplay,
            "serve-mixed": ServeMixed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("quality-sweep", "churn-replay",
                                 "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready', exit")
    parser.add_argument("--scratch", default=None,
                        help="parent directory for this process's scratch")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import common
    spec = load_spec()

    scratch = common.make_scratch(args.workload) if args.scratch is None \
        else tempfile.mkdtemp(prefix="setup-", dir=args.scratch)
    # Children (pool workers, servers) inherit this; no run writes outside
    # its checkout.
    os.environ["TMPDIR"] = scratch
    workload = None
    try:
        workload = _workloads()[args.workload](args.seed, scratch,
                                                traced=args.trace == 1)
        if args.setup_only:
            workload.setup()
            print("ready", flush=True)
            return 0
        start = time.perf_counter()
        workload.setup()
        own_setup_s = time.perf_counter() - start
        workload.reference_check()
        run = common.Run(args.workload, args.seed, args.seconds, scratch)
        if args.trace == 0:
            run.measure(workload.run_pass)
        else:
            run.measure(workload.run_traced_pass)
        values, facts = run.end_to_end()
        facts.update(workload=args.workload, seed=args.seed,
                     trace=args.trace, unit=workload.units_label,
                     own_setup_s=round(own_setup_s, 4))
        listed = spec["end_to_end"]
        if args.trace == 1:
            listed = spec["per_layer"]
            values = workload.per_layer()
            values["host.ref_ms"] = run.probe.median_ms
            values["host.steal_share"] = run.steal_share
        unknown = sorted(set(values) - {m["name"] for m in listed})
        if unknown:
            raise common.BenchError(f"unlisted metrics: {unknown}")
        # A workload that never reaches a layer reports 0 for it.
        metrics = {m["name"]: (values.get(m["name"], 0.0), m["unit"])
                   for m in listed}
        if workload.mismatches:
            facts["mismatches"] = workload.mismatches[:20]
        correct = workload.failed == 0
        common.emit(facts, correct, workload.attempted, workload.failed,
                    metrics)
        return 0 if correct else 1
    except common.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:            # noqa: BLE001 — report, exit non-zero
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            workload.close()
        if args.scratch is None:
            common.remove_scratch(scratch)


if __name__ == "__main__":
    sys.exit(main())
