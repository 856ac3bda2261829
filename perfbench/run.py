"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {sweep-cache,serve-mixed}
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it makes the separate traced run and reports per-layer metrics,
writing the spans to ``.perfbench/<run>.trace.jsonl`` and
``.perfbench/<run>.trace.chrome.json`` (open the latter in Perfetto).  The
last line of standard output is the JSON result.  The exit code is 0 when
every output matched the pinned reference, 1 when one drifted (the result
line then reads ``"correct": false``), and 2 or more, with no result line,
when the run could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep-cache", "serve-mixed")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import common
    from perfbench.reference import Reference
    from perfbench.runs import MEASURE, TRACE

    reference = Reference.load()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{run_name}-", dir=common.OUT_DIR))
    try:
        runner = (TRACE if args.trace else MEASURE)[args.workload]
        outcome = runner(args.seed, args.seconds, scratch, reference)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        print(f"error: reported metrics {reported} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    notes = list(outcome.notes)
    if outcome.tracer is not None:
        jsonl = common.OUT_DIR / f"{run_name}.trace.jsonl"
        chrome = common.OUT_DIR / f"{run_name}.trace.chrome.json"
        outcome.tracer.write_jsonl(jsonl)
        outcome.tracer.write_chrome(chrome)
        notes.append(f"trace: {jsonl.relative_to(ROOT)}, {chrome.relative_to(ROOT)} (Perfetto)")
    notes.extend(f"INCORRECT: {problem}" for problem in outcome.problems)
    context = common.run_context()
    notes.append("context: " + ", ".join(f"{k}={v}" for k, v in context.items()))
    common.write_result(
        run_name,
        correct=outcome.correct,
        attempted=outcome.attempted,
        failed=outcome.failed,
        metrics=outcome.metrics,
        report=outcome.report,
        notes=notes,
        document={
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "context": context,
            "problems": outcome.problems,
        },
    )
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
