"""Set-up, rounds, metrics and the result line of one benchmark run.

A run sets the workload up (several times, keeping the median time), then
repeats whole rounds of the same operations: at least two, then until
another round would take the measured (timed) part past --seconds.  The
first round checks every output; later rounds must reproduce the checked
bytes.  wall_s and cpu_s are medians over rounds.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pendulum_lab
import tracing
from checks import CheckFailed, require
from workloads import WORKLOADS

SETUP_REPEATS = 3
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "tsla_test_rmse_v": "V",
    "tsla_lqr_gap_v": "V",
}


def cold_import_s(src: Path) -> float:
    """Seconds to import pendulum_lab in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import pendulum_lab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def steal_s() -> float:
    """CPU time the host took from this machine's CPUs so far (/proc/stat),
    recorded to tell a slow program from a busy host."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "PENDULUM_LAB_THREADS": os.environ.get("PENDULUM_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


class Rounds:
    """Runs rounds of one workload's operations and keeps the counts."""

    def __init__(self, workload, log):
        self.w = workload
        self.ops = workload.operations()
        self.log = log
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list[dict] = []

    def checked(self, what, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.problems.append(f"{what}: {exc}")
            self.log(f"CHECK FAILED {what}: {exc}")

    def _verify(self, op, result) -> None:
        fp = self.w.fingerprint(op, result)
        if op not in self.fingerprints:
            self.w.check(op, result)
            self.fingerprints[op] = fp
        else:
            require(fp == self.fingerprints[op], "output differs from the checked round")

    def round(self, label: str) -> dict:
        first = not self.records
        wall = cpu = 0.0
        out_bytes = 0
        for op in self.ops:
            self.attempted += 1
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                result = self.w.run(op)
            except Exception:  # an operation that raises is counted as failed
                self.failed += 1
                self.log(f"FAILED {op.name}\n{traceback.format_exc()}")
                continue
            finally:
                wall += time.perf_counter() - t0
                cpu += time.process_time() - cpu0
            out_bytes += self.w.out_bytes(op, result)
            self.checked(op.name, self._verify, op, result)
        if first:
            self.checked("round", self.w.check_round)
        record = {"label": label, "wall_s": wall, "cpu_s": cpu, "out_bytes": out_bytes}
        self.records.append(record)
        self.log(f"{label}: wall {wall:.3f} s, cpu {cpu:.3f} s")
        return record


MIN_ROUNDS = 2


def _another(seconds: float, records: list[dict], done: int) -> bool:
    """True for the first MIN_ROUNDS rounds, then while one more round, as
    long as the mean so far, keeps the measured time within `seconds`."""
    measured = sum(r["wall_s"] for r in records)
    return done < MIN_ROUNDS or measured + measured / len(records) <= seconds


def run(args, root: Path, bench: Path, work: Path, log) -> tuple[dict, "Rounds", dict]:
    workload = WORKLOADS[args.workload](args.seed, work)
    imports = [cold_import_s(root / "src") for _ in range(IMPORT_REPEATS)]
    details = {"environment": environment(), "cold_import_s": imports}
    tracer = tracing.Tracer() if args.trace else None

    setups = []
    for rep in range(1 if tracer else SETUP_REPEATS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup(rep)
        finally:
            setups.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
    details["setup_s"] = setups
    rounds = Rounds(workload, log)
    rounds.checked("set-up", workload.check_setup)

    if tracer is None:
        steal0 = steal_s()
        while True:
            rounds.round(f"round-{len(rounds.records)}")
            if not _another(args.seconds, rounds.records, len(rounds.records)):
                break
        details["host_steal_s"] = steal_s() - steal0
        walls = [r["wall_s"] for r in rounds.records]
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds.records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tsla_test_rmse_v": workload.test_rmse,
            "tsla_lqr_gap_v": workload.gap,
        }
        return metrics, rounds, details

    # traced: one untraced round (also the checked one), then traced rounds
    untraced = rounds.round("untraced")
    labels = []
    tracer.install()
    try:
        while True:
            labels.append(f"traced-{len(labels)}")
            tracer.phase = labels[-1]
            rounds.round(labels[-1])
            if not _another(args.seconds, rounds.records, len(labels)):
                break
    finally:
        tracer.uninstall()
    traced = [r for r in rounds.records if r["label"] in labels]
    metrics = tracing.per_layer(tracer, labels, [r["out_bytes"] for r in traced])
    design, model = workload.probe_inputs()
    metrics.update(tracing.probe(design, model, work))
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - untraced["wall_s"])
    details["threads_seen"] = len({s["thread"] for s in tracer.spans})
    traces = bench / "out" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed, "rounds": rounds.records})
    details["trace_file"] = str(path.relative_to(root))
    return {name: metrics[name] for name in tracing.PER_LAYER}, rounds, details


def main(args, root: Path, bench: Path) -> int:
    here = Path(pendulum_lab.__file__).resolve()
    if not here.is_relative_to(root / "src"):
        print(f"perfbench: imported pendulum_lab from {here}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    def log(message):
        print(message, file=sys.stderr, flush=True)

    work = bench / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, rounds, details = run(args, root, bench, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = tracing.PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not rounds.problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    results = bench / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), **details, "rounds": rounds.records,
                   "problems": rounds.problems, **result}, fh, indent=1)

    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"operations: {rounds.attempted} attempted, {rounds.failed} failed; "
          f"checks: {'passed' if result['correct'] else 'FAILED'}")
    print(json.dumps(result))
    return 0
