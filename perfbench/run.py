"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` the workload runs once untraced and once with the
per-layer tracer installed, and the metrics are the per-layer ones.
The line before it is a JSON report: meta block, traffic actually
generated, baselines and other figures that are reported but not gated.
The program is imported from ``src/`` of the same checkout; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "delta_serve", "tenant_fleet", "segment_store")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def _import_program() -> str | None:
    """Put the checkout's ``src`` first on the path; None when it is absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        return f"no program sources at {source / 'repro'}"
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from {source}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    from perfbench import report
    from perfbench.layers import LayerTracer

    base = report.measure(args.workload, args.seed, args.seconds, args.size)
    runs = [base]
    if args.trace:
        tracer = LayerTracer()
        with tracer.installed():
            traced = report.measure(
                args.workload, args.seed, args.seconds, args.size, tracer
            )
        runs.append(traced)
        metrics = report.per_layer_metrics(tracer, traced, base)
        tracer.write_spans(
            ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json"
        )
    else:
        metrics = report.end_to_end_metrics(base)

    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    details = {
        "meta": report.meta(args),
        "runs": [report.details(run) for run in runs],
    }
    if args.trace:
        details["layers"] = tracer.summary()
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
