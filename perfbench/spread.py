"""Run the benchmark once per seed and summarise each end-to-end metric.

    python3 perfbench/spread.py --workload refit --seeds 1-10

For every metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json, and it checks that every run was correct
with the same share of failed operations.  Runs are sequential, one process
at a time; the summary is also written to perfbench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        results.append(run_once(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}"
                                           for k, v in results[-1]["metrics"].items()),
              flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "all_correct": all(r["correct"] for r in results),
               "failed_shares": sorted(shares), "metrics": {}}
    print(f"\n{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][metric["name"]] = {"values": values, "median": median, "q1": q1,
                                              "q3": q3, "spread": spread,
                                              "bound": metric["bound"]}
        print(f"{metric['name']:18s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{metric['bound']:6.2f}")
    print(f"all correct: {summary['all_correct']}; failed shares: {summary['failed_shares']}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    return 0 if summary["all_correct"] and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
