"""End-to-end and per-layer benchmark for the ``repro`` package.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout. See
``perfbench/WORKLOADS.md`` for the workloads, the metrics and which layer
each metric is expected to move.
"""
