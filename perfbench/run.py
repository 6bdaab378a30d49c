"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload node-solr --seed 1 --seconds 20 \\
        --trace 0

The report lists every metric with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The exit code is 0 when the workload ran; a missing
program tree exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def render(result, trace: bool) -> list[str]:
    """The report lines, then the JSON result line."""
    lines = [f"workload {result.workload}  seed {result.seed}  "
             f"correct {result.correct}"]
    lines.extend(f"  {note}" for note in result.notes)
    tables = [("end-to-end", result.report)]
    if trace:
        tables.append(("per-layer", result.metrics))
    for title, table in tables:
        for name, (value, unit) in table.items():
            lines.append(f"  {title:10s} {name:32s} {value:16.6g} {unit}")
    lines.append(json.dumps({
        "correct": result.correct,
        "attempted": result.checks.attempted,
        "failed": result.checks.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
        },
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program tree at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    from perfbench.harness import measure
    from perfbench.worlds import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    out_dir = os.path.join(ROOT, ".perfbench-traces", str(os.getpid()))
    result = measure(workload, args.seed, args.seconds,
                     trace=bool(args.trace), out_dir=out_dir)

    print("\n".join(render(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
