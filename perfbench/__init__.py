"""End-to-end and per-layer benchmark of the MECH reproduction.

Run it from the repository root::

    python3 perfbench/run.py --workload sweep-cache --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
makes a separate traced run that replays the workload's jobs layer by layer
and reports the per-layer metrics.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); everything
before it is a human-readable report.  Run outputs (result documents,
JSONL and Chrome trace files) land in ``.perfbench/`` under the root.
"""
