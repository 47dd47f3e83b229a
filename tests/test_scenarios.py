import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pendulum_lab.controllers import LqrController, design_lqr
from pendulum_lab.plant import PhysicalParams, PlantState, UPRIGHT_THETA, linearize
from pendulum_lab.scenarios import (BENCHMARK_HEADER, BenchmarkCell, BenchmarkTable, ImpulseSpec,
                                    MetricBands, NoiseSpec, ScenarioConfig, TransientMetrics,
                                    compute_metrics, make_disturbance, run_benchmark)
from pendulum_lab.simulate import SimConfig, TimeSeries, run_closed_loop, step_times

PARAMS = PhysicalParams()


def synthetic_series(t, theta_dev, x=None, x_dot=None, diverged=False, fell=False):
    n = t.size
    zeros = np.zeros(n)
    return TimeSeries(
        t=t,
        x=zeros if x is None else x,
        x_dot=zeros if x_dot is None else x_dot,
        theta=UPRIGHT_THETA + theta_dev,
        theta_dot=zeros,
        u=zeros,
        d=zeros,
        diverged=diverged,
        fell=fell,
    )


def lqr_controller():
    return LqrController(design_lqr(linearize(PARAMS), np.diag([1200.0, 0.0, 100.0, 0.0]), 1.0))


class TestImpulseSignal:
    def test_zero_before_onset(self):
        spec = ImpulseSpec(magnitude=10.0, onset=20.0, width=0.1)
        assert make_disturbance(spec)(20.0 - 1e-9) == 0.0

    def test_magnitude_at_onset(self):
        spec = ImpulseSpec(magnitude=10.0, onset=20.0, width=0.1)
        assert make_disturbance(spec)(20.0) == 10.0

    def test_zero_at_window_end(self):
        spec = ImpulseSpec(magnitude=10.0, onset=20.0, width=0.1)
        assert make_disturbance(spec)(20.1) == 0.0

    def test_rectangle_integral_exact(self):
        spec = ImpulseSpec(magnitude=7.0, onset=3.0, width=0.25)
        n = 1000
        dt = spec.width / n
        grid = spec.onset + np.arange(n) * dt  # rectangles tiling the window
        total = sum(make_disturbance(spec)(t) * dt for t in grid)
        assert total == pytest.approx(spec.magnitude * spec.width, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ImpulseSpec(width=0.0)
        with pytest.raises(ValueError):
            ImpulseSpec(onset=-1.0)


class TestNoiseSignal:
    def test_zero_power_is_identically_zero(self):
        spec = NoiseSpec(power=0.0, sample_time=0.01, seed=1)
        stream = make_disturbance(spec)
        assert all(stream(t) == 0.0 for t in np.linspace(0, 5, 100))

    def test_same_seed_same_sequence(self):
        times = np.linspace(0.0, 2.0, 500)
        a = [make_disturbance(NoiseSpec(power=0.5, sample_time=0.01, seed=7))(t) for t in times]
        b = [make_disturbance(NoiseSpec(power=0.5, sample_time=0.01, seed=7))(t) for t in times]
        assert a == b

    def test_piecewise_constant_over_sample_time(self):
        stream = make_disturbance(NoiseSpec(power=1.0, sample_time=0.1, seed=2))
        assert stream(0.50) == stream(0.59)
        assert stream(0.50) != stream(0.61)

    def test_moment_statistics(self):
        spec = NoiseSpec(power=0.8, sample_time=0.01, seed=3)
        stream = make_disturbance(spec)
        n = 100_000
        samples = np.array([stream(k * spec.sample_time) for k in range(n)])
        sigma = math.sqrt(spec.power)
        assert abs(samples.mean()) <= 3.0 * sigma / math.sqrt(n)
        assert abs(samples.var() - spec.power) <= 0.1 * spec.power

    def test_out_of_order_access_consistent(self):
        spec = NoiseSpec(power=0.5, sample_time=0.01, seed=4)
        forward = make_disturbance(spec)
        values = [forward(k * 0.01) for k in range(100)]
        scrambled = make_disturbance(spec)
        assert scrambled(0.99) == values[99]
        assert scrambled(0.0) == values[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(power=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(sample_time=0.0)
        for seed in (-1, 1.5, None):
            with pytest.raises(ValueError, match="seed must be a non-negative integer"):
                NoiseSpec(seed=seed)


def drawn(spec, times):
    """`make_disturbance`'s force at each of ``times``, one call per time, as bytes."""
    source = make_disturbance(spec)
    return np.array([source(t) for t in times.tolist()], dtype=float).tobytes()


def outcome(read, spec, times):
    """The bytes ``read(spec, times)`` gives, or the message of the ValueError it raises."""
    try:
        return read(spec, times)
    except ValueError as exc:
        return str(exc)


def grid_bytes(spec, times):
    return spec.forces(times).tobytes()


def grid(t0, dt, horizon=0.6):
    """The step grid of a run from ``t0``, as the closed loop reads forces on it."""
    return step_times(SimConfig(dt=dt, horizon=horizon, initial_state=PlantState(t=t0)))


grid_starts = st.sampled_from([0.0, 0.37, 1.5, -0.004])
grid_steps = st.sampled_from([1e-4, 1e-3, 2.5e-3, 1e-2])


class TestForceGrid:
    """Each spec's `forces` grid is, bit for bit, `make_disturbance` read at each time."""

    @settings(max_examples=150, deadline=None)
    @given(magnitude=st.sampled_from([-30.0, -0.0, 0.0, 10.0, 7]) | st.floats(-1e3, 1e3),
           onset=st.sampled_from([0.0, 0.3, 0.37, 0.3705]) | st.floats(0.0, 2.0),
           width=st.sampled_from([1e-3, 0.05, 0.0013]) | st.floats(1e-4, 0.5),
           t0=grid_starts, dt=grid_steps)
    @example(magnitude=10.0, onset=0.3, width=0.05, t0=0.0, dt=1e-3)  # onset on a grid time
    @example(magnitude=-0.0, onset=0.3705, width=0.0013, t0=0.37, dt=1e-3)  # both ends between
    @example(magnitude=5.0, onset=1.51, width=1e-4, t0=1.5, dt=1e-2)  # narrower than a step
    def test_impulse_grid_is_the_callable(self, magnitude, onset, width, t0, dt):
        spec = ImpulseSpec(magnitude, onset, width)
        times = grid(t0, dt)
        assert grid_bytes(spec, times) == drawn(spec, times)

    @settings(max_examples=100, deadline=None)
    @given(power=st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 10.0),
           sample_time=st.sampled_from([1e-3, 0.01, 0.013, 0.0071]),
           seed=st.integers(0, 2**63), t0=grid_starts, dt=grid_steps)
    @example(power=0.0, sample_time=0.01, seed=42, t0=0.0, dt=1e-3)  # zeros, not -0.0
    @example(power=0.2, sample_time=0.013, seed=42, t0=0.37, dt=1e-3)
    @example(power=0.5, sample_time=1e-3, seed=7, t0=0.0, dt=1e-4)  # many draws per grid
    def test_noise_grid_is_the_stream(self, power, sample_time, seed, t0, dt):
        spec = NoiseSpec(power, sample_time, seed)
        times = grid(t0, dt)
        # from t0 = -0.004, a sample time under 4 ms draws at a negative index: both raise
        assert outcome(grid_bytes, spec, times) == outcome(drawn, spec, times)

    def test_default_noise_run_is_the_stream(self):
        spec = NoiseSpec()
        times = grid(0.0, 1e-3, horizon=30.0)
        assert grid_bytes(spec, times) == drawn(spec, times)

    def test_negative_time_is_rejected(self):
        spec = NoiseSpec(power=0.5, sample_time=0.01, seed=3)
        times = np.array([-0.05, -0.02, 0.0])
        with pytest.raises(ValueError, match="negative time -0.05"):
            spec.forces(times)
        with pytest.raises(ValueError, match="negative time -0.05"):
            drawn(spec, times)


class TestComputeMetrics:
    def test_constant_equilibrium_series(self):
        t = np.arange(0.0, 15.0, 1e-3)
        m = compute_metrics(synthetic_series(t, np.zeros(t.size)), onset=0.0)
        assert m.settling_time == 0.0
        assert m.rise_time == 0.0
        assert m.peak_theta_dev == 0.0
        assert m.sse_theta == 0.0 and m.sse_x == 0.0

    def test_exponential_recovery_rise_time(self):
        tau = 1.0
        dt = 1e-3
        t = np.arange(0.0, 15.0, dt)
        m = compute_metrics(synthetic_series(t, np.exp(-t / tau)), onset=0.0)
        assert m.rise_time == pytest.approx(tau * math.log(9.0), abs=2 * dt)
        assert m.settling_time == pytest.approx(tau * math.log(1.0 / math.radians(0.5)), abs=2 * dt)

    def test_unsettled_series_flagged(self):
        t = np.arange(0.0, 15.0, 1e-3)
        m = compute_metrics(synthetic_series(t, 0.1 * np.ones(t.size)), onset=0.0)
        assert math.isinf(m.settling_time)

    def test_drifting_cart_flagged_unbounded(self):
        t = np.arange(0.0, 15.0, 1e-3)
        m = compute_metrics(synthetic_series(t, np.zeros(t.size), x=0.01 * t), onset=0.0)
        assert math.isinf(m.sse_x)
        assert m.sse_theta == 0.0

    def test_diverged_series_flags_everything(self):
        t = np.arange(0.0, 15.0, 1e-3)
        m = compute_metrics(synthetic_series(t, np.zeros(t.size), diverged=True), onset=0.0)
        assert all(math.isinf(v) for v in m.as_row())

    def test_fallen_series_flags_all_but_the_peaks(self):
        # a run that fell 3.3 s in, well short of onset + 10 s; the faster cart before the
        # onset does not count
        t = np.arange(0.0, 3.3, 1e-3)
        dev = np.linspace(0.0, 1.6, t.size)
        x_dot = np.where(t < 1.0, -5.0, t)
        series = synthetic_series(t, dev, x_dot=x_dot, fell=True)
        m = compute_metrics(series, onset=1.0)
        assert (m.peak_theta_dev, m.peak_xdot) == (series.theta_deviation()[-1], t[-1])
        assert all(math.isinf(v) for v in (m.settling_time, m.rise_time, m.sse_theta, m.sse_x))

    def test_fall_before_the_onset_peaks_at_the_fallen_state(self):
        t = np.arange(0.0, 3.3, 1e-3)
        dev = np.linspace(0.0, 1.6, t.size)
        x_dot = np.where(t < 1.0, -5.0, t)
        series = synthetic_series(t, dev, x_dot=x_dot, fell=True)
        m = compute_metrics(series, onset=20.0)
        assert (m.peak_theta_dev, m.peak_xdot) == (series.theta_deviation()[-1], t[-1])

    def test_requires_ten_seconds_past_onset(self):
        t = np.arange(0.0, 5.0, 1e-3)
        with pytest.raises(ValueError, match="onset"):
            compute_metrics(synthetic_series(t, np.zeros(t.size)), onset=0.0)

    @given(band_lo=st.floats(0.1, 2.0), band_hi=st.floats(2.01, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_wider_band_never_settles_later(self, band_lo, band_hi):
        t = np.arange(0.0, 15.0, 2e-3)
        dev = np.exp(-t / 2.0) * np.cos(4.0 * t)
        series = synthetic_series(t, dev)
        lo = compute_metrics(series, 0.0, MetricBands(settle_band=math.radians(band_lo)))
        hi = compute_metrics(series, 0.0, MetricBands(settle_band=math.radians(band_hi)))
        assert hi.settling_time <= lo.settling_time

    def test_onset_shift_equivariance(self):
        values = []
        for onset in (5.0, 8.0):
            cfg = SimConfig(horizon=onset + 12.0)
            dist = make_disturbance(ImpulseSpec(magnitude=10.0, onset=onset, width=0.05))
            series = run_closed_loop(cfg, lqr_controller(), dist, PARAMS)
            values.append(compute_metrics(series, onset).settling_time)
        assert abs(values[0] - values[1]) <= 2e-3

    def test_peaks_measured_after_onset_only(self):
        t = np.arange(0.0, 15.0, 1e-3)
        dev = np.where(t < 2.0, 0.5, 0.0)  # excursion entirely before onset
        m = compute_metrics(synthetic_series(t, dev), onset=3.0)
        assert m.peak_theta_dev == 0.0


@pytest.fixture(scope="module")
def quick_setup():
    sim = SimConfig(horizon=12.0)
    impulse = ImpulseSpec(magnitude=10.0, onset=1.0, width=0.05)
    noise = NoiseSpec(power=0.05, sample_time=0.01, seed=5)
    return sim, impulse, noise


class TestRunBenchmark:
    def test_single_controller_single_cell(self, quick_setup):
        sim, impulse, noise = quick_setup
        scenarios = ScenarioConfig(impulse, (10.0,), noise, noise_horizon=sim.horizon)
        table = run_benchmark(PARAMS, {"LQR": lqr_controller}, sim, scenarios)
        assert len(table.cells) == 2  # one impulse magnitude + noise
        assert table.cells[0].scenario == "impulse"
        assert table.cells[1].scenario == "noise"
        assert [cell.outcome for cell in table.cells] == ["settled", "settled"]

    def test_csv_layout(self, quick_setup, tmp_path):
        sim, impulse, noise = quick_setup
        scenarios = ScenarioConfig(impulse, (10.0,), noise, noise_horizon=sim.horizon)
        table = run_benchmark(PARAMS, {"LQR": lqr_controller}, sim, scenarios)
        path = tmp_path / "bench.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(BENCHMARK_HEADER)
        # per-cell rows plus the impulse-mean row
        assert len(lines) == 1 + 2 + 1

    def test_mean_over_impulse_repeats(self, quick_setup):
        sim, impulse, noise = quick_setup
        scenarios = ScenarioConfig(impulse, (10.0, 20.0), noise, noise_horizon=sim.horizon)
        table = run_benchmark(PARAMS, {"LQR": lqr_controller}, sim, scenarios)
        cells = [c for c in table.cells if c.scenario == "impulse"]
        [mean] = table.impulse_means()
        assert (mean.controller, mean.scenario, mean.magnitude) == ("LQR", "impulse-mean", None)
        expected = np.mean([c.metrics.settling_time for c in cells])
        assert mean.metrics.settling_time == pytest.approx(expected, rel=1e-12)

    def test_text_rendering_mentions_all_sections(self, quick_setup):
        sim, impulse, noise = quick_setup
        scenarios = ScenarioConfig(impulse, (10.0,), noise, noise_horizon=sim.horizon)
        table = run_benchmark(PARAMS, {"LQR": lqr_controller}, sim, scenarios)
        text = table.to_text()
        assert "Impulse disturbance" in text
        assert "White-noise disturbance" in text
        assert "LQR" in text

    def test_outcomes_in_csv_and_text(self, quick_setup, tmp_path):
        # an LQR cell settles; a second controller with no feedback falls in every cell
        sim, impulse, noise = quick_setup
        factories = {"LQR": lqr_controller, "none": lambda: NoFeedback()}
        scenarios = ScenarioConfig(impulse, (10.0, 20.0), noise, noise_horizon=sim.horizon)
        table = run_benchmark(PARAMS, factories, sim, scenarios)
        assert [(c.controller, c.outcome) for c in table.cells] == (
            [("LQR", "settled")] * 3 + [("none", "fell")] * 3)
        path = tmp_path / "bench.csv"
        table.to_csv(path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows[0][-1] == "outcome"
        assert [(r[0], r[1], r[-1]) for r in rows[-2:]] == [
            ("LQR", "impulse-mean", "settled"), ("none", "impulse-mean", "fell")]
        text = table.to_text().splitlines()
        assert text.count(f"{'Outcome (worst)':<26}{'settled':>12}{'fell':>12}") == 1
        assert text.count(f"{'Outcome':<26}{'settled':>12}{'fell':>12}") == 1

    def test_worst_outcome_of_the_impulse_cells(self):
        metrics = TransientMetrics(*(1.0,) * 6)
        cells = [BenchmarkCell("C", "impulse", m, metrics, outcome)
                 for m, outcome in [(1.0, "settled"), (2.0, "diverged"), (3.0, "fell")]]
        text = BenchmarkTable(cells).to_text()
        assert f"{'Outcome (worst)':<26}{'diverged':>12}" in text.splitlines()


class NoFeedback:
    def command(self, z, dt):
        return 0.0
