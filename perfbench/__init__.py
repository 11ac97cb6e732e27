"""End-to-end and per-layer benchmark of the DISE debugger reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one of the workloads in ``BENCHMARK.json`` (``paper-cells``,
``corpus-sweep``, ``debug-session``), checks every simulated output
against the references under ``perfbench/reference/`` and prints its
metrics; the last line of standard output is one JSON object.  See
``perfbench/NOTES.md`` for what each metric means and which layer
metric should move which end-to-end metric.
"""
