"""The repository benchmark: four workloads, end-to-end metrics, a layer trace.

``python3 benchsuite/run.py --workload W --seed S --seconds N --trace 0|1``
measures one workload and prints one JSON result line;
``python -m benchsuite`` runs the whole suite, writes ``BENCH_*.json``
under ``benchsuite/results/`` and compares two result sets.  See
``benchsuite/README.md`` for the workloads and metrics.
"""
