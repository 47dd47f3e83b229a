"""Traced runs: spans around the program's public functions, and per-call probes.

`Tracer.install` replaces public functions with timing wrappers at the
attributes of ``pendulum_lab`` modules through which they are called (the
import sites), plus ``numpy.linalg.lstsq``; `uninstall` puts the originals
back.  Nothing inside ``src/`` changes.  Each call records a span (name,
start, end, thread CPU time, parent, thread, phase) in memory; per-step
methods (controller steps) are only counted and summed, since a span per
step would cost more than the step.  `write` stores the spans and each
name's self time (its duration minus the spans nested in it on the same
thread) when the run ends.

`per_layer` turns the spans of the set-up and the traced rounds into the
per-layer metrics; `probe` measures per-call costs on the workload's own
design, model and trajectories.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from dataclasses import replace

import numpy as np

from pendulum_lab import anfis, cli, config, controllers, pipeline, plant, scenarios, simulate

# name -> unit of every per-layer metric, in the order printed
PER_LAYER = {
    "plant.accel_ns": "ns",
    "plant.state_ns": "ns",
    "simulate.rk4_step_us": "us",
    "simulate.open_loop_steps_per_s": "1/s",
    "simulate.steps": "count",
    "simulate.run_closed_loop_s": "s",
    "simulate.to_csv_s": "s",
    "simulate.csv_bytes": "bytes",
    "controllers.lqr_step_ns": "ns",
    "controllers.pid_step_ns": "ns",
    "controllers.tsla_step_us": "us",
    "controllers.tsla_step_s": "s",
    "controllers.tsla_out_of_range_ratio": "ratio",
    "controllers.design_lqr_ms": "ms",
    "anfis.infer_us": "us",
    "anfis.train_hybrid_s": "s",
    "anfis.lstsq_s": "s",
    "anfis.lstsq_calls": "count",
    "anfis.premise_gradients_s": "s",
    "anfis.epochs_run": "count",
    "anfis.useful_epoch_ratio": "ratio",
    "anfis.generate_dataset_ms": "ms",
    "anfis.load_model_ms": "ms",
    "scenarios.run_benchmark_s": "s",
    "scenarios.cells_busy_s": "s",
    "scenarios.compute_metrics_ms": "ms",
    "scenarios.noise_draw_ns": "ns",
    "scenarios.impulse_draw_ns": "ns",
    "pipeline.stage1_runs_s": "s",
    "pipeline.build_dataset_s": "s",
    "pipeline.train_from_config_s": "s",
    "pipeline.benchmark_from_config_s": "s",
    "config.load_config_ms": "ms",
    "cli.design-lqr_s": "s",
    "cli.gen-data_s": "s",
    "cli.train_s": "s",
    "cli.simulate_s": "s",
    "cli.benchmark_s": "s",
    "cli.out_bytes": "bytes",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
}

CLI_COMMANDS = ("design-lqr", "gen-data", "train", "simulate", "benchmark")


def _cli_name(argv, *_):
    return f"cli.{argv[0]}"


def _rows(span, args, result):
    span["rows"] = len(result)


def _csv_bytes(span, args, result):
    span["bytes"] = os.path.getsize(args[1])


def _epochs(span, args, result):
    history = result[1]
    rmse = np.asarray(history.train_rmse)
    start = float(np.sqrt(np.mean(np.square(args[0].train_y))))  # the all-zero start model
    span["epochs"] = int(rmse.size)
    span["useful"] = int(np.sum(np.diff(np.concatenate([[start], rmse])) < 0.0))


def _out_of_range(counter, args, result):
    controller, measured = args[0], args[1]
    z = measured.deviation()
    lo, hi = controller.model.input_ranges.T
    counter["outside"] += int(np.any((z < lo) | (z > hi)))


# (module or class, attribute, span name, hook on the result)
SPAN_SITES = [
    (cli, "main", _cli_name, None),
    (cli, "cmd_design_lqr", "cli.design-lqr", None),
    (cli, "cmd_gen_data", "cli.gen-data", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "load_config", "config.load_config", None),
    (cli, "build_dataset", "pipeline.build_dataset", None),
    (cli, "train_from_config", "pipeline.train_from_config", None),
    (cli, "benchmark_from_config", "pipeline.benchmark_from_config", None),
    (cli, "load_model", "anfis.load_model", None),
    (cli, "run_closed_loop", "simulate.run_closed_loop", _rows),
    (pipeline, "stage1_runs", "pipeline.stage1_runs", None),
    (pipeline, "train_from_config", "pipeline.train_from_config", None),
    (pipeline, "generate_dataset", "anfis.generate_dataset", None),
    (pipeline, "train_hybrid", "anfis.train_hybrid", _epochs),
    (pipeline, "run_benchmark", "scenarios.run_benchmark", None),
    (pipeline, "run_closed_loop", "simulate.run_closed_loop", _rows),
    (anfis, "generate_dataset", "anfis.generate_dataset", None),
    (anfis, "premise_gradients", "anfis.premise_gradients", None),
    (np.linalg, "lstsq", "anfis.lstsq", None),
    (scenarios, "run_closed_loop", "simulate.run_closed_loop", _rows),
    (scenarios, "compute_metrics", "scenarios.compute_metrics", None),
    (simulate.TimeSeries, "to_csv", "simulate.to_csv", _csv_bytes),
]

# per-step methods: (class, attribute, counter name, hook)
COUNT_SITES = [
    (controllers.AnfisController, "step", "controllers.tsla_step", _out_of_range),
    (controllers.LqrController, "step", "controllers.lqr_step", None),
    (controllers.PidController, "step", "controllers.pid_step", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[tuple[str, str, int], dict] = {}
        self.phase = "setup"
        self._local = threading.local()
        self._patches = []
        self._threads: dict[int, int] = {}
        self._ids = itertools.count()
        self._t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _span_wrapper(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"name": name(*args) if callable(name) else name,
                    "parent": stack[-1]["id"] if stack else None,
                    "thread": tracer._thread(), "phase": tracer.phase,
                    "id": next(tracer._ids)}
            tracer.spans.append(span)
            stack.append(span)
            cpu0, t0 = time.thread_time(), time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - tracer._t0
                span["start"] = t0 - tracer._t0
                span["cpu"] = time.thread_time() - cpu0
                stack.pop()
            if hook is not None:
                hook(span, args, result)
            return result

        return wrapper

    def _count_wrapper(self, original, name, hook):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cpu0 = time.thread_time()
            result = original(*args, **kwargs)
            cpu = time.thread_time() - cpu0
            # one counter per thread, so pool threads never share an update
            counter = tracer.counters.setdefault(
                (tracer.phase, name, tracer._thread()), {"calls": 0, "cpu": 0.0, "outside": 0})
            counter["calls"] += 1
            counter["cpu"] += cpu
            if hook is not None:
                hook(counter, args, result)
            return result

        return wrapper

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _thread(self) -> int:
        return self._threads.setdefault(threading.get_ident(), len(self._threads))

    def install(self) -> None:
        for owner, attr, name, hook in SPAN_SITES:
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), name, hook))
        for owner, attr, name, hook in COUNT_SITES:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name, hook))

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, wall, self (wall minus nested spans) and CPU."""
        child_wall: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_wall[span["parent"]] = (child_wall.get(span["parent"], 0.0)
                                              + span["end"] - span["start"])
        out: dict[str, dict] = {}
        for span in self.spans:
            wall = span["end"] - span["start"]
            entry = out.setdefault(span["name"], {"calls": 0, "wall_s": 0.0, "self_s": 0.0,
                                                  "cpu_s": 0.0})
            entry["calls"] += 1
            entry["wall_s"] += wall
            entry["self_s"] += wall - child_wall.get(span["id"], 0.0)
            entry["cpu_s"] += span["cpu"]
        return out

    def write(self, path, extra: dict) -> None:
        doc = {"self_time": self.self_times(),
               "counters": [{"phase": p, "name": n, "thread": t, **c}
                            for (p, n, t), c in self.counters.items()],
               "spans": self.spans, **extra}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def per_layer(tracer: Tracer, rounds: list[str], out_bytes: list[int]) -> dict[str, float]:
    """Span-derived per-layer metrics: one set-up plus the median traced round.

    Sums and counts add the set-up's share to the median over `rounds`;
    per-call means and ratios pool every traced phase.
    """
    def phase_sum(phase, name, key=None, cpu=False):
        total = 0.0
        for s in tracer.spans:
            if s["phase"] == phase and s["name"] == name:
                total += s.get(key, 0) if key else (s["cpu"] if cpu else s["end"] - s["start"])
        return total

    def setup_plus_round(fn):
        return fn("setup") + statistics.median(fn(r) for r in rounds)

    def cells_busy(phase):
        tables = [(s["start"], s["end"]) for s in tracer.spans
                  if s["phase"] == phase and s["name"] == "scenarios.run_benchmark"]
        return sum(s["cpu"] for s in tracer.spans
                   if s["phase"] == phase
                   and s["name"] in ("simulate.run_closed_loop", "scenarios.compute_metrics")
                   and any(a <= s["start"] <= b for a, b in tables))

    def counter(name, key):
        return sum(c[key] for (_, n, _), c in tracer.counters.items() if n == name)

    def counter_phase(phase, name, key):
        return sum(c[key] for (p, n, _), c in tracer.counters.items() if p == phase and n == name)

    def mean_ms(name):
        walls = [s["end"] - s["start"] for s in tracer.spans if s["name"] == name]
        return 1e3 * statistics.fmean(walls) if walls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "simulate.steps": setup_plus_round(
            lambda p: phase_sum(p, "simulate.run_closed_loop", "rows")),
        "simulate.run_closed_loop_s": setup_plus_round(
            lambda p: phase_sum(p, "simulate.run_closed_loop", cpu=True)),
        "simulate.to_csv_s": setup_plus_round(lambda p: phase_sum(p, "simulate.to_csv")),
        "simulate.csv_bytes": setup_plus_round(
            lambda p: phase_sum(p, "simulate.to_csv", "bytes")),
        "controllers.tsla_step_s": setup_plus_round(
            lambda p: counter_phase(p, "controllers.tsla_step", "cpu")),
        "controllers.tsla_out_of_range_ratio": ratio(
            counter("controllers.tsla_step", "outside"), counter("controllers.tsla_step", "calls")),
        "anfis.train_hybrid_s": setup_plus_round(lambda p: phase_sum(p, "anfis.train_hybrid")),
        "anfis.lstsq_s": setup_plus_round(lambda p: phase_sum(p, "anfis.lstsq")),
        "anfis.lstsq_calls": setup_plus_round(
            lambda p: sum(1 for s in tracer.spans if s["phase"] == p and s["name"] == "anfis.lstsq")),
        "anfis.premise_gradients_s": setup_plus_round(
            lambda p: phase_sum(p, "anfis.premise_gradients")),
        "anfis.epochs_run": setup_plus_round(lambda p: phase_sum(p, "anfis.train_hybrid", "epochs")),
        "anfis.useful_epoch_ratio": ratio(
            sum(s.get("useful", 0) for s in tracer.spans),
            sum(s.get("epochs", 0) for s in tracer.spans)),
        "anfis.generate_dataset_ms": mean_ms("anfis.generate_dataset"),
        "scenarios.run_benchmark_s": setup_plus_round(
            lambda p: phase_sum(p, "scenarios.run_benchmark")),
        "scenarios.cells_busy_s": setup_plus_round(cells_busy),
        "cli.out_bytes": statistics.median(out_bytes),
    }
    for name in ("stage1_runs", "build_dataset", "train_from_config", "benchmark_from_config"):
        m[f"pipeline.{name}_s"] = setup_plus_round(lambda p, n=name: phase_sum(p, f"pipeline.{n}"))
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = setup_plus_round(lambda p, c=command: phase_sum(p, f"cli.{c}"))
    return m


# ---------------------------------------------------------------------------
# per-call probes


def _pass(fn, calls) -> float:
    """Mean seconds per call over one pass through `calls`."""
    t0 = time.perf_counter()
    for args in calls:
        fn(*args)
    return (time.perf_counter() - t0) / len(calls)


def _per_call(fn, calls, repeats=5) -> float:
    return statistics.median(_pass(fn, calls) for _ in range(repeats))


def probe(design, model, work) -> dict[str, float]:
    """Per-call costs on states of one LQR impulse run of the default config.

    The states are every other logged step of the 2 s after the impulse.
    """
    cfg = config.default_config()
    params, sim = cfg.physical, cfg.sim
    impulse = cfg.scenarios.impulse
    series = simulate.run_closed_loop(sim, controllers.LqrController(design),
                                      scenarios.make_disturbance(impulse), params)
    window = np.nonzero((series.t >= impulse.onset) & (series.t < impulse.onset + 2.0))[0][::2]
    raw = [(float(series.x[i]), float(series.x_dot[i]), float(series.theta[i]),
            float(series.theta_dot[i])) for i in window]
    states = [plant.PlantState(*s, t=float(series.t[i])) for s, i in zip(raw, window)]
    dt = sim.dt

    accel = plant.derivative_fn(params)
    m = {
        "plant.accel_ns": 1e9 * _per_call(accel, [(s[1], s[2], s[3], 0.0) for s in raw]),
        "plant.state_ns": 1e9 * _per_call(plant.PlantState, raw),
        "simulate.rk4_step_us": 1e6 * _per_call(simulate.rk4_step,
                                                [(s, 0.0, 0.0, dt, params) for s in states]),
        "controllers.lqr_step_ns": 1e9 * _per_call(controllers.LqrController(design).step,
                                                   [(s, dt) for s in states]),
        "controllers.pid_step_ns": 1e9 * _per_call(controllers.PidController(cfg.pid).step,
                                                   [(s, dt) for s in states]),
        "controllers.tsla_step_us": 1e6 * _per_call(controllers.AnfisController(model).step,
                                                    [(s, dt) for s in states]),
        "anfis.infer_us": 1e6 * _per_call(anfis.anfis_infer,
                                          [(model, s.deviation()) for s in states]),
    }

    open_loop = replace(sim, horizon=5.0)
    t0 = time.perf_counter()
    log = simulate.run_closed_loop(open_loop, None, None, params)
    m["simulate.open_loop_steps_per_s"] = (len(log) - 1) / (time.perf_counter() - t0)

    ss = plant.linearize(params)
    q = np.diag(cfg.lqr.q_diag)
    m["controllers.design_lqr_ms"] = 1e3 * _per_call(controllers.design_lqr,
                                                     [(ss, q, cfg.lqr.r)] * 20)

    model_path = work / "probe-model.json"
    anfis.save_model(model, model_path)
    m["anfis.load_model_ms"] = 1e3 * _per_call(anfis.load_model, [(model_path,)] * 20)
    config_path = work / "probe-config.json"
    with open(config_path, "w") as fh:
        json.dump(config.config_to_dict(cfg), fh)
    m["config.load_config_ms"] = 1e3 * _per_call(config.load_config, [(config_path,)] * 50)

    m["scenarios.compute_metrics_ms"] = 1e3 * _per_call(
        scenarios.compute_metrics, [(series, impulse.onset, cfg.scenarios.bands)] * 10)
    # a fresh source per pass, as every run gets one, so noise draws are included
    times = [(i * dt,) for i in range(len(series))]
    m["scenarios.noise_draw_ns"] = 1e9 * statistics.median(
        _pass(scenarios.make_disturbance(cfg.scenarios.noise), times) for _ in range(3))
    m["scenarios.impulse_draw_ns"] = 1e9 * statistics.median(
        _pass(scenarios.make_disturbance(impulse), times) for _ in range(3))
    return m
