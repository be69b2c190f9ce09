"""The repository benchmark: ``python3 perfbench/run.py --workload NAME``.

Drives PyMAO only through its public entry points, from outside the
program, on three seeded workloads (``compile``, ``simulate``,
``serve``).  ``README.md`` beside this file records what each metric
means and which layer metric should move which end-to-end metric.
"""
