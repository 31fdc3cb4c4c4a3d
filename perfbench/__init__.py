"""The repository benchmark: four workloads over the program's public entry points.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``BENCHMARK.json``
names the workloads and metrics.  ``python3 perfbench/selftest.py`` checks
the benchmark itself.
"""
