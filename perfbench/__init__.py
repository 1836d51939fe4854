"""The repository benchmark: Table 1 convergence trials and service job latency.

Run it from the repository root::

    python3 perfbench/run.py --workload ciw-worst --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""
