#!/usr/bin/env python3
"""Benchmark runner.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-sw --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout.  Every
metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer metrics).  Exit status: 0 on a correct run,
1 when a label check fails, 2 on a usage error or when the program's
sources are missing.  See ``perfbench/BENCHMARK.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(one of {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    result = run(workload, args.seed, args.seconds, bool(args.trace), out_dir=OUT_DIR)
    print(f"workload {workload.name} seed {args.seed}")
    for name, digest in result.digests.items():
        print(f"input digest {name} {digest}")
    for name, value in result.notes.items():
        print(f"note {name} {value}")
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps(result.line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
