"""The benchmark's three workloads.

Each workload builds its inputs in `setup`, then runs the same list of
operations every round.  The harness times `run` alone; `check` verifies one
operation's outputs with the references in `checks`, and `fingerprint`
lets later rounds prove they produced the same bytes as the checked one.

The program is called through its CLI (`cli.main`) or its public functions,
always as attributes of its modules, so that a traced run can wrap them at
these import sites.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
from checks import require
from pendulum_lab import anfis, cli, config, controllers, pipeline, scenarios, simulate

FALL_DEG = 90.0


class OpFailed(Exception):
    pass


class Op(NamedTuple):
    name: str
    args: tuple


def call_cli(argv, ok_codes=(0,)) -> str:
    """Run one CLI command in-process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code not in ok_codes:
        raise OpFailed(f"pendulum-lab {' '.join(map(str, argv))} exited {code}")
    return buf.getvalue()


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def infer_rows(model, X: np.ndarray) -> np.ndarray:
    return np.array([anfis.anfis_infer(model, z) for z in X])


def read_design_k(path) -> np.ndarray:
    """K as written in the design file."""
    with open(path) as fh:
        return np.asarray(json.load(fh)["K"], dtype=float).reshape(4)


def read_dataset(out: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, train indices, test indices) from gen-data's files."""
    rows = np.loadtxt(out / cli.DATASET_FILE, delimiter=",", skiprows=1, ndmin=2)
    with open(out / cli.SPLIT_FILE) as fh:
        split = json.load(fh)
    return rows, np.asarray(split["train_indices"]), np.asarray(split["test_indices"])


def check_trained_out(out: Path, model, K: np.ndarray, what: str) -> float:
    """Checks on the model trained in `out`; returns its held-out gap to -K z."""
    rows, train, test = read_dataset(out)
    gap = checks.lqr_gap(infer_rows(model, rows[test, :4]), rows[test, :4], K)
    checks.check_reproduces_lqr(infer_rows(model, rows[train, :4]), rows[train, :4], K)
    history = np.loadtxt(out / "rmse_history.csv", delimiter=",", skiprows=1, ndmin=2)
    checks.check_non_increasing(history[:, 1], rows[train, 4], what)
    return gap


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.config = config.default_config()
        self.test_rmse = 0.0
        self.gap = 0.0

    def setup(self, rep: int) -> None:
        """Build the inputs; called several times, the last one is used."""

    def check_setup(self) -> None:
        """Untimed checks on what `setup` built."""

    def operations(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        raise NotImplementedError

    def fingerprint(self, op: Op, result) -> str:
        raise NotImplementedError

    def check_round(self) -> None:
        """Checks across the operations of the first round."""

    def out_bytes(self, op: Op, result) -> int:
        """Bytes the operation left in its --out directory."""
        return 0

    def probe_inputs(self):
        """(LqrDesign, AnfisModel) for the traced run's per-call probes."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class PaperTable(Workload):
    """`benchmark --auto` into a fresh --out with the default config.

    The paper's table is one fixed configuration, so --seed does not change
    the inputs.
    """

    name = "paper-table"
    ARTIFACTS = (cli.DESIGN_FILE, cli.DATASET_FILE, cli.SPLIT_FILE, cli.MODEL_FILE,
                 "rmse_history.csv", "benchmark.csv")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.count = 0
        self.last_out = None

    def operations(self):
        return [Op("benchmark --auto", ())]

    def run(self, op):
        self.count += 1
        out = self.work / f"table-{self.count}"
        # 3 reports cells that failed by divergence: a table was still made
        call_cli(["benchmark", "--auto", "--out", out], ok_codes=(cli.EXIT_OK,
                                                                 cli.EXIT_DIVERGED_CELLS))
        self.last_out = out
        return out

    def check(self, op, out):
        K = read_design_k(out / cli.DESIGN_FILE)
        lqr = self.config.lqr
        checks.check_lqr_gain(K, self.config.physical, lqr.q_diag, lqr.r)
        model = anfis.load_model(out / cli.MODEL_FILE)
        self.test_rmse = float(model.metadata["rmse"]["test"])
        self.gap = check_trained_out(out, model, K, "paper-table model")

        with open(out / "benchmark.csv", newline="") as fh:
            cells = [row for row in csv.DictReader(fh) if row["scenario"] in ("impulse", "noise")]
        by = {}
        for row in cells:
            by.setdefault(row["controller"], []).append(row)
        require(set(by) == {"PI", "PID", "TS-LA"}, f"table controllers {sorted(by)}")
        for name in ("TS-LA", "PID"):
            for row in by[name]:
                peak = float(row["peak_theta_deg"])
                require(peak < FALL_DEG, f"{name} {row['scenario']} peak {peak} deg")
                if name == "TS-LA" and row["scenario"] == "impulse":
                    require(math.isfinite(float(row["settling_s"])),
                            f"TS-LA does not settle after {row['magnitude']} N")
            impulses = [r for r in by[name] if r["scenario"] == "impulse"]
            checks.check_peaks_grow([float(r["magnitude"]) for r in impulses],
                                    [float(r["peak_theta_deg"]) for r in impulses], name)
        pi = self.config.pi
        checks.check_pi_falls(self.config.physical, pi.kp, pi.ki,
                              [float(r["peak_theta_deg"]) for r in by["PI"]])

    def fingerprint(self, op, out):
        return file_digest(*(out / name for name in self.ARTIFACTS))

    def out_bytes(self, op, out):
        return tree_bytes(out)

    def probe_inputs(self):
        return (controllers.LqrDesign.from_json(self.last_out / cli.DESIGN_FILE),
                anfis.load_model(self.last_out / cli.MODEL_FILE))


# ---------------------------------------------------------------------------


class Refit(Workload):
    """Fits over a fixed grid of (training rows, dataset seed) on stage-1
    logs built in set-up.

    500 rows is the default, where the least-squares step is rank-deficient
    and premise steps often stall; 2500 rows makes it full rank.  The grid is
    fixed rather than drawn from --seed: over 40 seeds one 500-row fit took
    0.26-0.74 s and its test RMSE ranged over 5e-5-0.23 V, so a drawn grid
    would make the round's cost and quality depend on the seed more than on
    the program.
    """

    name = "refit"
    GRID = [(500, s) for s in range(8)] + [(2500, s) for s in range(3)]
    TEST_ROWS = 91

    def setup(self, rep):
        out = self.work / f"setup-{rep}"
        call_cli(["design-lqr", "--out", out])
        self.design = controllers.LqrDesign.from_json(out / cli.DESIGN_FILE)
        self.K = read_design_k(out / cli.DESIGN_FILE)
        self.runs = pipeline.stage1_runs(self.config, self.design)

    def check_setup(self):
        lqr = self.config.lqr
        checks.check_lqr_gain(self.K, self.config.physical, lqr.q_diag, lqr.r)

    def operations(self):
        return [Op(f"fit rows={n} seed={s}", (n, s)) for n, s in self.GRID]

    def run(self, op):
        rows, seed = op.args
        cfg = replace(self.config, anfis=replace(self.config.anfis, train_count=rows, seed=seed))
        dataset = anfis.generate_dataset(self.runs, train_count=rows,
                                         test_count=self.TEST_ROWS, seed=seed)
        model, history = pipeline.train_from_config(cfg, dataset)
        return dataset, model, history

    def check(self, op, result):
        dataset, model, history = result
        self.last_model = model
        self.test_rmse = max(self.test_rmse, float(model.metadata["rmse"]["test"]))
        self.gap = max(self.gap, checks.lqr_gap(infer_rows(model, dataset.test_X),
                                                dataset.test_X, self.K))
        X = dataset.train_X
        require(X.shape[0] == op.args[0], f"{op.name}: {X.shape[0]} training rows")
        checks.check_reproduces_lqr(infer_rows(model, X), X, self.K)
        checks.check_non_increasing(history.train_rmse, dataset.train_y, op.name)

    def fingerprint(self, op, result):
        dataset, model, history = result
        path = self.work / "fingerprint-model.json"
        anfis.save_model(model, path)
        h = hashlib.sha256(path.read_bytes())
        for arr in (dataset.rows, dataset.train_indices, history.train_rmse, history.test_rmse):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def probe_inputs(self):
        return self.design, self.last_model


# ---------------------------------------------------------------------------


class Point(NamedTuple):
    controller: str
    scenario: str
    magnitude: float
    noise_seed: int
    power: float


class DisturbanceSweep(Workload):
    """`simulate` once per grid point on one trained --out.

    From --seed: an impulse inside the 10-30 N stage-1 range and one in
    35-50 N for LQR and TS-LA, plus a fixed 60 N; for PID one inside the
    range and one in 30-35 N (PID falls at 40 N); one white-noise
    run per controller with its own noise seed and a power in 0.1-1.
    Every run lasts 40 s, 40001 logged rows.
    """

    name = "disturbance-sweep"
    HORIZON = 40.0
    PRINTED = re.compile(r"settling (\S+) s, peak theta dev (\S+) deg")

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng(seed)
        inside, beyond = float(rng.uniform(10, 30)), float(rng.uniform(35, 50))
        pid_inside, pid_high = float(rng.uniform(10, 30)), float(rng.uniform(30, 35))
        points = [Point(c, "impulse", m, 0, 0.0)
                  for c in ("lqr", "tsla") for m in (inside, beyond, 60.0)]
        points += [Point("pid", "impulse", m, 0, 0.0) for m in (pid_inside, pid_high)]
        points += [Point(c, "noise", 0.0, int(rng.integers(2**31)), float(rng.uniform(0.1, 1.0)))
                   for c in ("lqr", "tsla", "pid")]
        self.points = points
        self.peaks = {}
        self.zoh_checked = False

    def _doc(self, p: Point) -> dict:
        if p.scenario == "impulse":
            return {"scenarios": {"impulse": {"magnitude": p.magnitude}}}
        return {"scenarios": {"noise": {"seed": p.noise_seed, "power": p.power,
                                        "horizon": self.HORIZON}}}

    def setup(self, rep):
        out = self.work / f"setup-{rep}"
        for command in ("design-lqr", "gen-data", "train"):
            call_cli([command, "--out", out])
        for i, p in enumerate(self.points):
            with open(out / f"point-{i}.json", "w") as fh:
                json.dump(self._doc(p), fh)
        self.out = out
        self.K = read_design_k(out / cli.DESIGN_FILE)

    def check_setup(self):
        lqr = self.config.lqr
        checks.check_lqr_gain(self.K, self.config.physical, lqr.q_diag, lqr.r)
        model = anfis.load_model(self.out / cli.MODEL_FILE)
        self.test_rmse = float(model.metadata["rmse"]["test"])
        check_trained_out(self.out, model, self.K, "sweep model")

    def operations(self):
        return [Op(f"simulate {p.controller} {p.scenario} {p.magnitude or p.power:.4g}", (i, p))
                for i, p in enumerate(self.points)]

    def run(self, op):
        i, p = op.args
        printed = call_cli(["simulate", "--config", self.out / f"point-{i}.json", "--out", self.out,
                            "--controller", p.controller, "--scenario", p.scenario])
        return self.out / f"timeseries_{p.controller}_{p.scenario}.csv", printed

    def check(self, op, result):
        path, printed = result
        _, p = op.args
        data = checks.load_timeseries(path)
        sim = self.config.sim
        require(data.shape[0] == round(self.HORIZON / sim.dt) + 1,
                f"{op.name}: {data.shape[0]} rows logged")
        t, theta, u, d = data[:, 0], data[:, 3], data[:, 5], data[:, 6]
        X = np.column_stack([data[:, 1], data[:, 2], theta - checks.UPRIGHT, data[:, 4]])
        if p.controller == "tsla":
            self.gap = max(self.gap, checks.lqr_gap(u, X, self.K))
        impulse = replace(self.config.scenarios.impulse, magnitude=p.magnitude)
        if p.scenario == "impulse":
            onset = impulse.onset
            require(np.array_equal(d, checks.impulse_force(t, p.magnitude, onset, impulse.width)),
                    f"{op.name}: logged force is not the impulse")
        else:
            onset = 0.0
            noise = self.config.scenarios.noise
            require(np.array_equal(d, checks.noise_force(t, p.noise_seed, p.power,
                                                         noise.sample_time)),
                    f"{op.name}: logged force is not the seeded noise")

        bands = self.config.scenarios.bands
        own = checks.settle_and_peak(t, theta, onset, bands.settle_band)
        series = simulate.TimeSeries(*(data[:, j].copy() for j in range(7)))
        m = scenarios.compute_metrics(series, onset, bands)
        checks.check_metrics_agree(own, (m.settling_time, m.peak_theta_dev), sim.dt, op.name)
        match = self.PRINTED.search(printed)
        require(match is not None, f"{op.name}: no metrics printed")
        shown = (float(match.group(1)), float(match.group(2)))
        for value, exact in zip(shown, (m.settling_time, math.degrees(m.peak_theta_dev))):
            require(value == exact or abs(value - exact) <= 5e-4 * abs(exact),
                    f"{op.name}: printed {shown} vs computed {m}")

        peak_deg = math.degrees(own[1])
        require(peak_deg < FALL_DEG, f"{op.name}: peak {peak_deg:.4g} deg")
        if p.scenario == "impulse":
            require(math.isfinite(own[0]), f"{op.name}: does not settle")
            self.peaks.setdefault(p.controller, []).append((p.magnitude, peak_deg))
        if p.controller == "lqr":
            require(checks.lqr_gap(u, X, self.K) <= checks.TRAIN_ROW_TOL_V,
                    f"{op.name}: logged command is not -K z")
            if p.scenario == "impulse" and not self.zoh_checked:
                checks.check_zoh_reference(data, self.config.physical, self.K, p.magnitude,
                                           onset, impulse.width, sim.actuator_gain)
                self.zoh_checked = True

    def check_round(self):
        for name, pairs in self.peaks.items():
            mags, peaks = zip(*pairs)
            checks.check_peaks_grow(mags, peaks, name)

    def fingerprint(self, op, result):
        return file_digest(result[0])

    def out_bytes(self, op, result):
        return result[0].stat().st_size

    def probe_inputs(self):
        return (controllers.LqrDesign.from_json(self.out / cli.DESIGN_FILE),
                anfis.load_model(self.out / cli.MODEL_FILE))


WORKLOADS = {w.name: w for w in (PaperTable, Refit, DisturbanceSweep)}
