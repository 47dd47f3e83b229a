"""The benchmark's own tests: every check rejects a perturbed output, and the
printed metric names are the ones in BENCHMARK.json.

    python -m pytest perfbench/check_benchmark.py

The file name keeps these tests out of the repository's default collection
(test_*.py); they take about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pendulum_lab import cli, config, controllers, pipeline, scenarios, simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CFG = config.default_config()
PARAMS = CFG.physical


@pytest.fixture(scope="module")
def design():
    return pipeline.design_from_config(CFG)


@pytest.fixture(scope="module")
def lqr_impulse(design):
    """(data columns, magnitude) of one program LQR impulse run."""
    magnitude = 23.0
    spec = scenarios.ImpulseSpec(magnitude=magnitude)
    s = simulate.run_closed_loop(CFG.sim, controllers.LqrController(design),
                                 scenarios.make_disturbance(spec), PARAMS)
    return np.column_stack([s.t, s.x, s.x_dot, s.theta, s.theta_dot, s.u, s.d]), spec


def rejects(fn, *args):
    with pytest.raises(checks.CheckFailed):
        fn(*args)


# -- BENCHMARK.json -----------------------------------------------------------


def test_end_to_end_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END


def test_per_layer_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- checks reject perturbed outputs -----------------------------------------


def test_gain_check(design):
    checks.check_lqr_gain(design.K, PARAMS, CFG.lqr.q_diag, CFG.lqr.r)
    rejects(checks.check_lqr_gain, design.K * 1.01, PARAMS, CFG.lqr.q_diag, CFG.lqr.r)


def test_linear_model_matches_program():
    A, B = checks.linear_model(PARAMS)
    from pendulum_lab.plant import linearize

    ss = linearize(PARAMS)
    np.testing.assert_allclose(A, ss.A, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(B, ss.B, rtol=1e-12, atol=1e-12)


def test_training_rows_check(design):
    X = np.random.default_rng(0).normal(size=(50, 4))
    u = -X @ design.K.ravel()
    checks.check_reproduces_lqr(u, X, design.K)
    u[7] += 1e-6
    rejects(checks.check_reproduces_lqr, u, X, design.K)


def test_non_increasing_check():
    targets = np.full(10, 3.0)
    checks.check_non_increasing([1e-3, 5e-13, 5e-13 + 1e-16, 4e-13], targets, "rounding")
    rejects(checks.check_non_increasing, [1e-3, 5e-13, 1e-6], targets, "rise")


def test_pi_check():
    kp, ki = CFG.pi.kp, CFG.pi.ki
    checks.check_pi_falls(PARAMS, kp, ki, [363.0, 362.0])
    rejects(checks.check_pi_falls, PARAMS, kp, ki, [363.0, 20.0])


def test_peaks_grow_check():
    checks.check_peaks_grow([30.0, 10.0, 20.0], [9.0, 3.0, 6.0], "ok")
    rejects(checks.check_peaks_grow, [10.0, 20.0, 30.0], [3.0, 6.0, 5.0], "dip")


def test_zoh_reference_check(lqr_impulse, design):
    data, spec = lqr_impulse
    checks.check_zoh_reference(data, PARAMS, design.K, spec.magnitude, spec.onset, spec.width)
    shifted = data.copy()
    shifted[1:, 1:5] = data[:-1, 1:5]
    rejects(checks.check_zoh_reference, shifted, PARAMS, design.K, spec.magnitude, spec.onset,
            spec.width)


def test_metrics_agree_within_one_sample(lqr_impulse):
    data, spec = lqr_impulse
    t, theta = data[:, 0], data[:, 3]
    band, dt = CFG.scenarios.bands.settle_band, CFG.sim.dt
    series = simulate.TimeSeries(*(data[:, j].copy() for j in range(7)))
    m = scenarios.compute_metrics(series, spec.onset, CFG.scenarios.bands)
    own = checks.settle_and_peak(t, theta, spec.onset, band)
    checks.check_metrics_agree(own, (m.settling_time, m.peak_theta_dev), dt, "same")
    late = np.concatenate([np.full(2, theta[0]), theta[:-2]])  # two samples late
    rejects(checks.check_metrics_agree, checks.settle_and_peak(t, late, spec.onset, band),
            (m.settling_time, m.peak_theta_dev), dt, "late")
    rejects(checks.check_metrics_agree, own, (m.settling_time, m.peak_theta_dev * 1.01), dt,
            "peak")


def test_noise_force_is_the_seeded_stream():
    spec = scenarios.NoiseSpec(power=0.37, seed=5)
    source = scenarios.make_disturbance(spec)
    t = np.arange(4001) * CFG.sim.dt
    logged = np.array([source(v) for v in t])
    assert np.array_equal(logged, checks.noise_force(t, 5, 0.37, spec.sample_time))
    assert not np.array_equal(np.roll(logged, 1), checks.noise_force(t, 5, 0.37,
                                                                    spec.sample_time))


def test_impulse_force():
    t = np.arange(30001) * CFG.sim.dt
    spec = CFG.scenarios.impulse
    source = scenarios.make_disturbance(spec)
    logged = np.array([source(v) for v in t])
    assert np.array_equal(logged, checks.impulse_force(t, spec.magnitude, spec.onset,
                                                       spec.width))


# -- tracing -------------------------------------------------------------------


def test_tracer_restores_every_site():
    originals = [owner.__dict__[attr] for owner, attr, *_ in tracing.SPAN_SITES
                 + tracing.COUNT_SITES]
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main is not originals[0]
    tracer.uninstall()
    assert [owner.__dict__[attr] for owner, attr, *_ in tracing.SPAN_SITES
            + tracing.COUNT_SITES] == originals


def test_spans_nest_and_self_time(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.call_cli(["design-lqr", "--out", tmp_path])
        workloads.call_cli(["gen-data", "--out", tmp_path])
    finally:
        tracer.uninstall()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["pipeline.stage1_runs"]["parent"] == by_name["pipeline.build_dataset"]["id"]
    times = tracer.self_times()
    gen = times["cli.gen-data"]
    assert 0.0 <= gen["self_s"] < gen["wall_s"]
    assert times["simulate.run_closed_loop"]["calls"] == 9


# -- the command -----------------------------------------------------------------


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "refit", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
