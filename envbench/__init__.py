"""End-to-end and per-layer benchmark of the ENV → plan → evaluate system.

Run it from the repository root::

    python3 envbench/run.py --workload quality-sweep --seed 1 --seconds 30 --trace 0

See ``envbench/README.md`` for the workloads, the metrics and how to read
them.
"""
