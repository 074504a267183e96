"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` is a separate run that prints every per-layer metric.  The
layer-to-metric map, the serve-stream offered load and its latency limit
live in ``perfbench/layers.json``.
"""
