"""Run one benchmark workload and print its metrics as the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim_geo_n100 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``
from untraced runs; ``--trace 1`` prints every per-layer metric from a
separate traced run and writes its Chrome trace under ``.perfbench/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness or
determinism check prints no result and exits with code 1; a checkout
without the program's sources exits with code 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.calibrate import Meter

    meter = Meter()
    began = time.perf_counter()
    from perfbench import sim, tcp
    from perfbench.report import BenchmarkFailure, result_line
    from perfbench.workloads import WORKLOADS

    import_s = meter.scaled(time.perf_counter() - began)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    try:
        if isinstance(workload, tcp.TcpWorkload):
            if traced:
                values, attempted, failed = tcp.run_traced(workload, args.seed, args.seconds)
            else:
                values, attempted, failed = tcp.run_untraced(workload, args.seed, args.seconds)
        elif traced:
            values, attempted, failed = sim.run_traced(workload, args.seed, args.seconds)
        else:
            values, attempted, failed = sim.run_untraced(
                workload, args.seed, args.seconds, import_s)
        line = result_line(values, traced, attempted, failed)
    except BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
