"""Benchmark of pendulum-lab, run from the root of a checkout:

    python3 perfbench/run.py --workload paper-table --seed 1 --seconds 35 --trace 0

Workloads: paper-table, refit, disturbance-sweep (see README.md).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The program is imported from src/ of the
same checkout; without it the command exits 2 and prints no result.

The run is confined to one CPU, and OpenBLAS to one thread, before numpy is
loaded: on a shared few-CPU host, work spread over every CPU loses time to
other guests by the second, and its timings measure them (see README.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["paper-table", "refit", "disturbance-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured part; whole rounds only")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def confine_to_one_cpu() -> None:
    """Run this process, the threads it starts and its children on the
    highest-numbered CPU it may use, with OpenBLAS on one thread.  The
    program's own thread count (os.cpu_count() workers in the table's pool)
    is left as it is."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pendulum_lab" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'pendulum_lab'}", file=sys.stderr)
        return 2
    confine_to_one_cpu()
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(args, ROOT, BENCH)


if __name__ == "__main__":
    sys.exit(main())
