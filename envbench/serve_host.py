"""Start ``repro serve`` with the serve-mixed workload's scenarios registered.

The server only knows the scenarios registered in its own process, so
this launcher registers the seeded ones, optionally installs the traced
run's layer wrappers, then hands over to the ``repro`` command line
exactly as ``repro serve`` would run.  With ``--spans PATH`` the recorded
spans are written to ``PATH`` after the server has drained on SIGTERM.

    python3 envbench/serve_host.py --seed 1 --cache-dir DIR --store FILE
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from repro import cli  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", default=None,
                        help="record layer spans and write them here")
    args = parser.parse_args()
    inputs.serve_scenarios(args.seed)
    log = None
    if args.spans:
        log = layers.SpanLog(layers.new_flag())
        layers.install(log)
        log.set(True)
    status = cli.main(["serve", "--port", "0", "--jobs", "2",
                       "--cache-dir", args.cache_dir, "--out", args.store])
    if log is not None:
        log.set(False)
        log.dump(args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
