import copy
import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pendulum_lab import simulate
from pendulum_lab.anfis import AnfisModel
from pendulum_lab.config import default_config
from pendulum_lab.controllers import AnfisController, LqrController, PidController, design_lqr
from pendulum_lab.plant import PhysicalParams, PlantState, UPRIGHT_THETA, derivative_fn, linearize
from pendulum_lab.scenarios import ImpulseSpec, NoiseSpec, make_disturbance
from pendulum_lab.simulate import (DIVERGENCE_LIMIT, FALL_ANGLE, SimConfig, TimeSeries,
                                   rk4_step, run_closed_loop, run_closed_loops)

PARAMS = PhysicalParams()


def expm_series(M):
    """Matrix exponential by scaling-and-squaring on the Taylor series."""
    norm = np.linalg.norm(M, 1)
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2.0**squarings)
    X = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 30):
        term = term @ A / k
        X = X + term
    for _ in range(squarings):
        X = X @ X
    return X


def free_rollout(theta0, dt, horizon):
    """The state (x, x', theta, theta') after an unforced run from rest at theta0."""
    state = PlantState(theta=theta0)
    for _ in range(round(horizon / dt)):
        state = rk4_step(state, 0.0, 0.0, dt, PARAMS)
    return np.array([state.x, state.x_dot, state.theta, state.theta_dot])


def lqr_controller():
    return LqrController(design_lqr(linearize(PARAMS), np.diag([1200.0, 0.0, 100.0, 0.0]), 1.0))


class PumpController:
    """Positive feedback on cart velocity; guarantees escape to the divergence cap."""

    def command(self, z, dt):
        return 20.0 * z[1]


class TestRk4Step:
    def test_equilibrium_is_exact_fixed_point(self):
        state = PlantState(theta=UPRIGHT_THETA)
        nxt = rk4_step(state, 0.0, 0.0, 1e-3, PARAMS)
        assert (nxt.x, nxt.x_dot, nxt.theta, nxt.theta_dot) == (0.0, 0.0, UPRIGHT_THETA, 0.0)
        assert nxt.t == pytest.approx(1e-3)

    def test_fourth_order_convergence(self):
        # Richardson: endpoint differences across halved steps fall ~16x
        ends = [free_rollout(UPRIGHT_THETA - 0.3, dt, 1.0) for dt in (1e-2, 5e-3, 2.5e-3)]
        e1 = np.linalg.norm(ends[0] - ends[1])
        e2 = np.linalg.norm(ends[1] - ends[2])
        order = math.log2(e1 / e2)
        assert order >= 3.5

    def test_linear_regime_matches_matrix_exponential(self):
        ss = linearize(PARAMS)
        step = expm_series(ss.A * 0.1)
        linear = np.array([0.0, 0.0, 3e-5, 0.0])
        state = PlantState(theta=UPRIGHT_THETA + 3e-5)
        for _ in range(10):
            for _ in range(100):
                state = rk4_step(state, 0.0, 0.0, 1e-3, PARAMS)
            linear = step @ linear
            assert abs(state.theta - UPRIGHT_THETA) <= 0.01
            assert_allclose(state.deviation(), linear, atol=1e-4)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(PlantState(), 0.0, 0.0, 0.0, PARAMS)

    def test_rejects_nonfinite_force(self):
        with pytest.raises(ValueError):
            rk4_step(PlantState(), math.inf, 0.0, 1e-3, PARAMS)


def rk4_over_accel(params, state, force, dt):
    """Reference: classical RK4 over `plant.derivative_fn`'s accel, stage by stage."""
    accel = derivative_fn(params)
    x, xd, th, thd = state
    a1, g1 = accel(xd, th, thd, force)
    xd2 = xd + 0.5 * dt * a1
    thd2 = thd + 0.5 * dt * g1
    a2, g2 = accel(xd2, th + 0.5 * dt * thd, thd2, force)
    xd3 = xd + 0.5 * dt * a2
    thd3 = thd + 0.5 * dt * g2
    a3, g3 = accel(xd3, th + 0.5 * dt * thd2, thd3, force)
    xd4 = xd + dt * a3
    thd4 = thd + dt * g3
    a4, g4 = accel(xd4, th + dt * thd3, thd4, force)
    sixth = dt / 6.0
    return (
        x + sixth * (xd + 2.0 * (xd2 + xd3) + xd4),
        xd + sixth * (a1 + 2.0 * (a2 + a3) + a4),
        th + sixth * (thd + 2.0 * (thd2 + thd3) + thd4),
        thd + sixth * (g1 + 2.0 * (g2 + g3) + g4),
    )


component = st.floats(min_value=-1e3, max_value=1e3)


class TestRk4Stepper:
    """`rk4_step` inlines the equations of motion; it must agree with RK4 over
    `derivative_fn` bit for bit, signed zeros included (``d = -0.0`` makes
    ``u + d`` the force itself, bit for bit)."""

    @given(x=component, x_dot=component, theta=st.floats(min_value=-1e4, max_value=1e4),
           theta_dot=st.floats(min_value=-100.0, max_value=100.0),
           force=st.floats(min_value=-1e4, max_value=1e4),
           dt=st.sampled_from([1e-4, 1e-3, 2.5e-3, 1e-2]),
           friction=st.sampled_from([0.0, 0.1]))
    @example(x=0.0, x_dot=0.0, theta=0.0, theta_dot=0.0, force=0.0, dt=1e-3, friction=0.1)
    @example(x=0.0, x_dot=0.0, theta=UPRIGHT_THETA, theta_dot=0.0, force=0.0, dt=1e-3,
             friction=0.1)
    @example(x=-0.0, x_dot=-0.0, theta=-0.0, theta_dot=-0.0, force=-0.0, dt=1e-3, friction=0.0)
    @example(x=0.0, x_dot=0.0, theta=UPRIGHT_THETA, theta_dot=0.0, force=1e4, dt=1e-2,
             friction=0.1)
    @example(x=5.0, x_dot=-3.0, theta=-1e4, theta_dot=100.0, force=-1e4, dt=1e-2, friction=0.1)
    def test_bitwise_equal_to_rk4_over_accel(self, x, x_dot, theta, theta_dot, force, dt,
                                             friction):
        params = PhysicalParams(friction=friction)
        nxt = rk4_step(PlantState(x, x_dot, theta, theta_dot), force, -0.0, dt, params)
        got = (nxt.x, nxt.x_dot, nxt.theta, nxt.theta_dot)
        want = rk4_over_accel(params, (x, x_dot, theta, theta_dot), force, dt)
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_rk4_step_uses_the_stepper(self):
        state = PlantState(x=0.2, x_dot=-1.0, theta=UPRIGHT_THETA - 0.4, theta_dot=2.0, t=1.5)
        nxt = rk4_step(state, 3.0, -0.5, 1e-3, PARAMS)
        want = rk4_over_accel(PARAMS, (0.2, -1.0, UPRIGHT_THETA - 0.4, 2.0), 2.5, 1e-3)
        assert (nxt.x, nxt.x_dot, nxt.theta, nxt.theta_dot) == want
        assert nxt.t == 1.5 + 1e-3


def total_energy(state, params):
    """Kinetic plus gravitational energy of cart and pendulum, the potential zero at the
    pivot height: conserved when friction and input force vanish."""
    c = -math.cos(state.theta - UPRIGHT_THETA)
    kinetic = (0.5 * params.total_mass * state.x_dot**2
               + 0.5 * params.pivot_inertia * state.theta_dot**2
               + params.pend_mass * params.half_length * c * state.x_dot * state.theta_dot)
    return kinetic - params.pend_mass * params.gravity * params.half_length * c


class TestEnergyConservation:
    def test_frictionless_rk4_drift(self):
        params = PhysicalParams(friction=0.0)
        state = PlantState(theta=UPRIGHT_THETA - 0.5)
        e0 = total_energy(state, params)
        worst = 0.0
        for _ in range(10_000):
            state = rk4_step(state, 0.0, 0.0, 1e-3, params)
            worst = max(worst, abs(total_energy(state, params) - e0))
        assert worst <= 1e-5 * abs(e0)


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.dt == 1e-3 and cfg.horizon == 40.0

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": 0.02}, {"horizon": 0.0},
        {"actuator_gain": 0.0}, {"log_decimation": 0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


def stub_stage(monkeypatch, state):
    """Make every step of the generated loop land on ``state``: its RK4 lines are
    replaced by one assignment (hex literals, so that nan and inf survive)."""
    values = ", ".join(f"float.fromhex({float(v).hex()!r})" for v in state)
    monkeypatch.setattr(simulate, "_rk4_lines",
                        lambda constants: [f"x, x_dot, theta, theta_dot = {values}"])


class TestRunClosedLoop:
    def test_equilibrium_stays_constant(self):
        cfg = SimConfig(horizon=2.0)
        series = run_closed_loop(cfg, None, None, PARAMS)
        assert not series.diverged
        assert np.all(series.theta == UPRIGHT_THETA)
        assert np.all(series.x == 0.0) and np.all(series.x_dot == 0.0)
        assert len(series) == 2001

    def test_lqr_recovers_from_impulse(self):
        cfg = SimConfig(horizon=30.0)
        dist = make_disturbance(ImpulseSpec(magnitude=10.0, onset=5.0, width=0.05))
        series = run_closed_loop(cfg, lqr_controller(), dist, PARAMS)
        assert not series.diverged
        tail = np.abs(series.theta_deviation()[series.t >= 25.0])
        assert np.all(tail <= math.radians(0.5))

    def test_open_loop_escape_is_monotone_past_half_radian(self):
        cfg = SimConfig(horizon=10.0, initial_state=PlantState(theta=UPRIGHT_THETA + 1e-3))
        series = run_closed_loop(cfg, None, None, PARAMS)
        dev = np.abs(series.theta_deviation())
        crossing = int(np.argmax(dev > 0.5))
        assert crossing > 0
        assert np.all(np.diff(dev[: crossing + 1]) >= 0.0)

    def test_divergence_flag_and_partial_log(self, monkeypatch):
        # the pump topples the pendulum at 0.226 s; a 10-unit limit ends the run before that
        monkeypatch.setattr(simulate, "DIVERGENCE_LIMIT", 10.0)
        cfg = SimConfig(horizon=40.0, initial_state=PlantState(x_dot=0.01))
        series = run_closed_loop(cfg, PumpController(), None, PARAMS)
        assert series.diverged and not series.fell
        assert len(series) < 40_001
        assert np.all(np.isfinite(series.x))

    def test_fall_flag_and_partial_log(self):
        cfg = SimConfig(horizon=40.0, initial_state=PlantState(x_dot=0.01))
        series = run_closed_loop(cfg, PumpController(), None, PARAMS)
        assert series.fell and not series.diverged
        assert len(series) == 227 and series.t[-1] == 0.226
        dev = np.abs(series.theta_deviation())
        assert dev[-1] > math.pi / 2 >= dev[:-1].max()
        # the fallen state is logged with its command
        assert series.u[-1] == PumpController().command((0.0, series.x_dot[-1], 0.0, 0.0), 1e-3)

    @pytest.mark.parametrize("value, diverged", [
        (math.nan, True),
        (math.inf, True),
        (DIVERGENCE_LIMIT * (1.0 + 1e-15), True),
        (DIVERGENCE_LIMIT, False),
        (-DIVERGENCE_LIMIT, False),
    ], ids=["nan", "inf", "just-past-limit", "at-limit", "at-minus-limit"])
    @pytest.mark.parametrize("component", range(4))
    def test_divergence_limit(self, monkeypatch, value, diverged, component):
        # every step lands on the same state, with one component set to `value`; a finite
        # theta that far from pi has fallen, and the fallen state is logged
        state = [0.0, 0.0, UPRIGHT_THETA, 0.0]
        state[component] = value
        stub_stage(monkeypatch, state)
        series = run_closed_loop(SimConfig(horizon=0.01), None, None, PARAMS)
        fell = component == 2 and not diverged
        assert (series.diverged, series.fell) == (diverged, fell)
        assert len(series) == (1 if diverged else 2 if fell else 11)

    @pytest.mark.parametrize("theta, fell", [
        (UPRIGHT_THETA + FALL_ANGLE, False),
        (UPRIGHT_THETA - FALL_ANGLE, False),
        (math.nextafter(UPRIGHT_THETA + FALL_ANGLE, math.inf), True),
        (math.nextafter(UPRIGHT_THETA - FALL_ANGLE, -math.inf), True),
    ], ids=["at-plus", "at-minus", "past-plus", "past-minus"])
    def test_fall_bound(self, monkeypatch, theta, fell):
        # theta stays in [pi - pi/2, pi + pi/2], both ends included
        state = (0.0, 0.0, theta, 0.0)
        stub_stage(monkeypatch, state)
        series = run_closed_loop(SimConfig(horizon=0.01), None, None, PARAMS)
        assert (series.fell, series.diverged, len(series)) == (fell, False, 2 if fell else 11)

    def test_divergence_wins_over_a_fall_at_the_same_step(self, monkeypatch):
        state = (2 * DIVERGENCE_LIMIT, 0.0, UPRIGHT_THETA + 2.0, 0.0)
        stub_stage(monkeypatch, state)
        series = run_closed_loop(SimConfig(horizon=0.01), None, None, PARAMS)
        assert (series.diverged, series.fell, len(series)) == (True, False, 1)

    def test_fallen_state_is_logged_whatever_its_step(self):
        cfg = SimConfig(horizon=40.0, initial_state=PlantState(x_dot=0.01))
        full = run_closed_loop(cfg, PumpController(), None, PARAMS)
        thin = run_closed_loop(replace(cfg, log_decimation=7), PumpController(), None, PARAMS)
        assert thin.fell and (len(full) - 1) % 7 != 0
        for col in ("t", "x", "x_dot", "theta", "theta_dot", "u", "d"):
            logged = getattr(full, col)
            assert np.array_equal(getattr(thin, col), np.append(logged[:-1:7], logged[-1]))

    def test_determinism_bit_identical(self):
        cfg = SimConfig(horizon=5.0)
        dist_spec = ImpulseSpec(magnitude=20.0, onset=1.0, width=0.05)
        a = run_closed_loop(cfg, lqr_controller(), make_disturbance(dist_spec), PARAMS)
        b = run_closed_loop(cfg, lqr_controller(), make_disturbance(dist_spec), PARAMS)
        for col in ("t", "x", "x_dot", "theta", "theta_dot", "u", "d"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_decimated_log_is_subsequence(self):
        dist_spec = ImpulseSpec(magnitude=10.0, onset=0.5, width=0.05)
        full = run_closed_loop(SimConfig(horizon=2.0), lqr_controller(),
                               make_disturbance(dist_spec), PARAMS)
        thin = run_closed_loop(SimConfig(horizon=2.0, log_decimation=10), lqr_controller(),
                               make_disturbance(dist_spec), PARAMS)
        for col in ("t", "x", "x_dot", "theta", "theta_dot", "u", "d"):
            assert np.array_equal(getattr(thin, col), getattr(full, col)[::10])

    @pytest.mark.parametrize("horizon", [0.25, 0.253])
    @pytest.mark.parametrize("decimation", [1, 3, 7, 10])
    def test_logged_rows_counts_the_log_of_a_run_that_stays_up(self, horizon, decimation):
        cfg = SimConfig(horizon=horizon, log_decimation=decimation)
        series = run_closed_loop(cfg, lqr_controller(), None, PARAMS)
        assert not (series.fell or series.diverged)
        assert len(series) == simulate.logged_rows(cfg)

    def test_time_grid_spacing(self):
        series = run_closed_loop(SimConfig(horizon=1.0, log_decimation=5), None, None, PARAMS)
        spacing = np.diff(series.t)
        assert_allclose(spacing, 5e-3, rtol=1e-9)


def tsla_model():
    """A 16-rule model near u = -K z whose rules all differ, so every rule weighs in."""
    K = lqr_controller().design.K.ravel()
    width = np.array([[0.5], [1.0], [0.2], [1.5]])  # per input; centers at -width, +width
    consequents = [np.concatenate([-K * (1.0 + 0.02 * j), [0.01 * (j - 7.5)]]) for j in range(16)]
    ranges = np.array([[-0.5, 0.5], [-1.0, 1.0], [-0.2, 0.2], [-1.5, 1.5]])
    return AnfisModel(a=np.repeat(width, 2, axis=1), b=np.full((4, 2), 2.0),
                      c=width * np.array([-1.0, 1.0]), consequents=np.array(consequents),
                      input_ranges=ranges)


class PlainPid:
    """PID's update written out by hand, apart from `PidController`'s law source: the
    independent reference that `reference_run` holds PI's and PID's loops to."""

    def __init__(self, gains):
        self._kp, self._ki, self._n = gains.kp, gains.ki, gains.filter_n
        self._kd_n = gains.kd * gains.filter_n
        self.integral = self.prev_error = self.derivative = 0.0

    def command(self, z, dt):
        error = -z[2]
        prev = self.prev_error
        self.integral = integral = self.integral + 0.5 * (error + prev) * dt
        self.derivative = derivative = (
            (self.derivative + self._kd_n * (error - prev)) / (1.0 + self._n * dt))
        self.prev_error = error
        return self._kp * error + self._ki * integral + derivative


class PlainLqr:
    """LQR's law written out by hand, apart from `LqrController`'s law source: the
    independent reference that `reference_run` holds LQR's loop to."""

    def __init__(self, design):
        self._K = design.K

    def command(self, z, dt):
        return -np.dot(self._K, z).item()


PLAIN = {"LQR": lambda: PlainLqr(lqr_controller().design),
         "PI": lambda: PlainPid(default_config().pi), "PID": lambda: PlainPid(default_config().pid)}


def plain(kinds, kind):
    """A new controller of ``kind`` for `reference_run`: LQR by `PlainLqr`, PI and PID
    by `PlainPid`."""
    return PLAIN.get(kind, kinds[kind])()


TSLA_MODEL = tsla_model()
FAMILY_CONTROLLERS = {
    "LQR": lqr_controller,
    "PI": lambda: PidController(default_config().pi),
    "PID": lambda: PidController(default_config().pid),
    "TS-LA": lambda: AnfisController(TSLA_MODEL),
}


def log_bytes(series):
    columns = (series.t, series.x, series.x_dot, series.theta, series.theta_dot, series.u,
               series.d)
    return [column.tobytes() for column in columns] + [series.diverged, series.fell]


def assert_family_matches_standalone(cfg, make_controller, disturbances):
    """Every series of the family is bitwise the standalone run of its disturbance."""
    family = list(run_closed_loops(cfg, make_controller(), [d() for d in disturbances], PARAMS))
    assert len(family) == len(disturbances)
    for series, disturbance in zip(family, disturbances):
        alone = run_closed_loop(cfg, make_controller(), disturbance(), PARAMS)
        assert log_bytes(series) == log_bytes(alone)
    return family


class CountingController:
    """Counts `command` calls in a list that its shallow copies share."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls

    def __copy__(self):
        return CountingController(copy.copy(self.inner), self.calls)

    def command(self, z, dt):
        self.calls.append(None)
        return self.inner.command(z, dt)


def impulse(spec):
    return lambda: make_disturbance(spec) if spec is not None else None


onsets = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.25), st.just(1.0))
impulse_specs = st.one_of(
    st.none(),
    st.builds(ImpulseSpec,
              magnitude=st.sampled_from([-30.0, -0.0, 0.0, 10.0, 30.0]),
              onset=onsets,
              width=st.floats(min_value=1e-3, max_value=0.1)),
)


class TestRunClosedLoops:
    """A family shares its run while the forces agree; each branch must still be
    bitwise the run its disturbance gives alone."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FAMILY_CONTROLLERS)),
           specs=st.lists(impulse_specs, min_size=1, max_size=4),
           theta_dev=st.floats(min_value=-0.1, max_value=0.1),
           decimation=st.sampled_from([1, 7]))
    @example(name="PID", specs=[ImpulseSpec(10.0, 0.1, 0.05)] * 3, theta_dev=0.05, decimation=1)
    @example(name="TS-LA", specs=[ImpulseSpec(10.0, 0.0, 0.02), ImpulseSpec(20.0, 0.0, 0.02)],
             theta_dev=0.05, decimation=1)
    @example(name="LQR", specs=[ImpulseSpec(10.0, 1.0, 0.05), ImpulseSpec(20.0, 1.0, 0.05)],
             theta_dev=0.05, decimation=1)
    @example(name="PI", specs=[ImpulseSpec(10.0, 0.1, 0.01), ImpulseSpec(10.0, 0.1, 0.08)],
             theta_dev=-0.05, decimation=7)
    def test_impulse_family_matches_standalone_runs(self, name, specs, theta_dev, decimation):
        cfg = SimConfig(horizon=0.25, log_decimation=decimation,
                        initial_state=PlantState(x=0.1, theta=UPRIGHT_THETA + theta_dev))
        assert_family_matches_standalone(cfg, FAMILY_CONTROLLERS[name], list(map(impulse, specs)))

    def test_shares_the_steps_before_the_onset(self):
        cfg = SimConfig(horizon=0.3, initial_state=PlantState(theta=UPRIGHT_THETA + 0.05))
        calls = []
        specs = [ImpulseSpec(m, onset=0.1, width=0.05) for m in (10.0, 20.0, 30.0)]
        family = run_closed_loops(cfg, CountingController(PidController(default_config().pid),
                                                          calls),
                                  [make_disturbance(s) for s in specs], PARAMS)
        assert [len(series) for series in family] == [301] * 3
        assert len(calls) == 100 + 3 * 201

    def test_equal_magnitudes_never_fork(self):
        cfg = SimConfig(horizon=0.3)
        calls = []
        spec = ImpulseSpec(10.0, onset=0.1, width=0.05)
        family = list(run_closed_loops(cfg, CountingController(lqr_controller(), calls),
                                       [make_disturbance(spec) for _ in range(3)], PARAMS))
        assert len(calls) == 301
        assert log_bytes(family[0]) == log_bytes(family[1]) == log_bytes(family[2])
        assert family[0].t is not family[1].t

    def test_reads_each_disturbance_once_per_step(self):
        cfg = SimConfig(horizon=0.3)
        reads = [[], [], []]

        def recorded(spec, times):
            force = make_disturbance(spec)
            return lambda t: times.append(t) or force(t)

        specs = [ImpulseSpec(m, onset=0.1, width=0.05) for m in (10.0, 20.0, 30.0)]
        family = run_closed_loops(cfg, lqr_controller(),
                                  [recorded(s, r) for s, r in zip(specs, reads)], PARAMS)
        assert [len(series) for series in family] == [301] * 3
        assert [len(times) for times in reads] == [301] * 3
        assert len(set(reads[0])) == 301

    @pytest.mark.parametrize("specs", [
        [NoiseSpec(power=0.5, seed=3)],
        [ImpulseSpec(10.0, onset=0.6, width=0.05), ImpulseSpec(20.0, onset=0.6, width=0.05)],
    ], ids=["noise", "impulse-family"])
    def test_logs_t_and_d_from_the_step_grid(self, specs):
        t0, dt = 0.37, 1e-3
        cfg = SimConfig(dt=dt, horizon=0.5, log_decimation=7,
                        initial_state=PlantState(theta=UPRIGHT_THETA + 0.02, t=t0))
        family = run_closed_loops(cfg, lqr_controller(), [make_disturbance(s) for s in specs],
                                  PARAMS)
        times = [t0 + i * dt for i in range(0, 501, 7)]
        for series, spec in zip(family, specs, strict=True):
            force = make_disturbance(spec)
            assert list(map(float.hex, series.t)) == list(map(float.hex, times))
            assert list(map(float.hex, series.d)) == [float(force(t)).hex() for t in times]

    def test_noise_family_with_different_seeds_forks_at_step_0(self):
        cfg = SimConfig(horizon=0.3)
        calls = []
        noises = [lambda: None] + [
            (lambda seed=seed: make_disturbance(NoiseSpec(power=0.5, seed=seed)))
            for seed in (1, 2, 3)]
        assert_family_matches_standalone(cfg, lambda: CountingController(lqr_controller(), calls),
                                         noises)
        assert len(calls) == 2 * 4 * 301  # the family and the standalone runs, none shared

    def test_signed_zero_forces_fork(self):
        cfg = SimConfig(horizon=0.2, initial_state=PlantState(theta=UPRIGHT_THETA + 0.02))
        zeros = [lambda: (lambda t: 0.0), lambda: (lambda t: -0.0)]
        family = assert_family_matches_standalone(cfg, lqr_controller, zeros)
        assert math.copysign(1.0, family[1].d[0]) == -1.0
        assert log_bytes(family[0])[:6] == log_bytes(family[1])[:6]

    def test_divergence_before_the_fork_ends_every_branch(self, monkeypatch):
        # PI never looks at the cart: from 0.9 m at 1 m/s it leaves a 1 m limit after 0.1 s,
        # long before the pendulum could fall
        monkeypatch.setattr(simulate, "DIVERGENCE_LIMIT", 1.0)
        cfg = SimConfig(horizon=3.0, initial_state=PlantState(x=0.9, x_dot=1.0))
        specs = [impulse(ImpulseSpec(m, onset=2.0, width=0.05)) for m in (10.0, 20.0, 30.0)]
        family = assert_family_matches_standalone(cfg, FAMILY_CONTROLLERS["PI"], specs)
        assert all(series.diverged for series in family)
        assert len(family[0]) < 2000
        assert log_bytes(family[0]) == log_bytes(family[1]) == log_bytes(family[2])

    def test_fall_before_the_fork_ends_every_branch(self):
        # PI's linear loop is unstable: from 0.05 rad it falls at 1.6 s, before the onset
        cfg = SimConfig(horizon=3.0, initial_state=PlantState(theta=UPRIGHT_THETA + 0.05))
        specs = [impulse(ImpulseSpec(m, onset=2.0, width=0.05)) for m in (10.0, 20.0, 30.0)]
        family = assert_family_matches_standalone(cfg, FAMILY_CONTROLLERS["PI"], specs)
        assert all(series.fell and not series.diverged for series in family)
        assert family[0].t[-1] < 2.0
        assert log_bytes(family[0]) == log_bytes(family[1]) == log_bytes(family[2])

    def test_only_the_toppling_branch_diverges(self, monkeypatch):
        # the 1e5 N knock throws the cart past 50 m/s within a step, before the pendulum falls
        monkeypatch.setattr(simulate, "DIVERGENCE_LIMIT", 50.0)
        cfg = SimConfig(horizon=8.0)
        specs = [impulse(ImpulseSpec(m, onset=0.5, width=0.05)) for m in (10.0, 1e5, 20.0)]
        family = assert_family_matches_standalone(cfg, FAMILY_CONTROLLERS["PID"], specs)
        assert [series.diverged for series in family] == [False, True, False]
        assert not any(series.fell for series in family)
        assert len(family[0]) == len(family[2]) == 8001 > len(family[1])

    @pytest.mark.parametrize("decimation", [1, 7])
    def test_only_the_knocked_branch_falls(self, decimation):
        cfg = SimConfig(horizon=8.0, log_decimation=decimation)
        specs = [impulse(ImpulseSpec(m, onset=0.5, width=0.05)) for m in (10.0, 1e5, 20.0)]
        family = assert_family_matches_standalone(cfg, FAMILY_CONTROLLERS["PID"], specs)
        assert [series.fell for series in family] == [False, True, False]
        assert not any(series.diverged for series in family)
        assert 0.5 < family[1].t[-1] < 0.51
        assert abs(family[1].theta[-1] - UPRIGHT_THETA) > math.pi / 2
        assert len(family[0]) == len(family[2]) == 8000 // decimation + 1

    @pytest.mark.parametrize("name", ["LQR", "PID"])
    def test_specs_run_as_their_callables(self, name):
        cfg = SimConfig(horizon=0.3, initial_state=PlantState(theta=UPRIGHT_THETA + 0.02, t=0.37))
        specs = [ImpulseSpec(10.0, onset=0.5, width=0.05), ImpulseSpec(-0.0, onset=0.5),
                 NoiseSpec(power=0.5, sample_time=0.013, seed=3), None]
        family = run_closed_loops(cfg, FAMILY_CONTROLLERS[name](), specs, PARAMS)
        sources = [None if spec is None else make_disturbance(spec) for spec in specs]
        drawn = run_closed_loops(cfg, FAMILY_CONTROLLERS[name](), sources, PARAMS)
        for series, reference in zip(family, drawn, strict=True):
            assert log_bytes(series) == log_bytes(reference)

    def test_no_disturbances_yield_nothing(self):
        assert list(run_closed_loops(SimConfig(horizon=0.1), None, [], PARAMS)) == []


class LeakyController:
    """A custom controller with state of its own: the loop must call its `command`."""

    def __init__(self):
        self.memory = 0.0

    def command(self, z, dt):
        self.memory = 0.5 * self.memory + z[2] * dt
        return 40.0 * z[2] + 5.0 * z[3] + 100.0 * self.memory


LOOP_KINDS = {**FAMILY_CONTROLLERS, "custom": LeakyController, "none": lambda: None}
# the loop writes dt into its code, so the loop tests draw it as `TestRk4Stepper` does
LOOP_STEPS = st.sampled_from([1e-4, 1e-3, 2.5e-3, 1e-2])
PID_STATE = ("integral", "prev_error", "derivative")


def reference_run(cfg, controller, disturbance, params, limit=DIVERGENCE_LIMIT, steps=None):
    """The closed loop written plainly: `command` once per step, then RK4 over
    `plant.derivative_fn`, ending at the first state past the module's bounds.

    Runs ``steps`` commands (all of the grid when None) and returns the log columns
    and flags as `log_bytes` gives them.
    """
    n = round(cfg.horizon / cfg.dt)
    start = cfg.initial_state
    state = (start.x, start.x_dot, start.theta, start.theta_dot)
    rows, fell, diverged = [], False, False
    for i in range(n + 1 if steps is None else steps):
        t = float(start.t + np.float64(i) * cfg.dt)
        d = float(disturbance(t)) if disturbance is not None else 0.0
        z = (state[0], state[1], state[2] - UPRIGHT_THETA, state[3])
        u = controller.command(z, cfg.dt) if controller is not None else 0.0
        if i % cfg.log_decimation == 0 or fell:
            rows.append((t, *state, u, d))
        if fell or i == n:
            break
        state = rk4_over_accel(params, state, cfg.actuator_gain * u + d, cfg.dt)
        if not all(-limit <= v <= limit for v in state):
            diverged = True
            break
        fell = not (UPRIGHT_THETA - FALL_ANGLE <= state[2] <= UPRIGHT_THETA + FALL_ANGLE)
    columns = np.array(rows, dtype=float).reshape(-1, 7).T
    return [np.ascontiguousarray(c).tobytes() for c in columns] + [diverged, fell]


class TestGeneratedLoop:
    """Each kind's generated loop must equal, bit for bit, the loop written plainly:
    RK4 over `derivative_fn` and the controller's `command`."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(LOOP_KINDS)),
           theta_dev=st.floats(min_value=-0.3, max_value=0.3),
           magnitude=st.sampled_from([0.0, 10.0, -40.0, 3e3]),
           decimation=st.sampled_from([1, 3]), gain=st.sampled_from([1.0, 2.5]),
           limit=st.sampled_from([DIVERGENCE_LIMIT, 5.0]), dt=LOOP_STEPS)
    @example(kind="PID", theta_dev=0.05, magnitude=3e3, decimation=3, gain=2.5,
             limit=DIVERGENCE_LIMIT, dt=1e-3)  # falls
    @example(kind="LQR", theta_dev=0.0, magnitude=3e3, decimation=1, gain=1.0,
             limit=5.0, dt=1e-3)  # diverges
    @example(kind="TS-LA", theta_dev=-0.1, magnitude=-40.0, decimation=3, gain=2.5,
             limit=DIVERGENCE_LIMIT, dt=1e-3)
    @example(kind="none", theta_dev=0.3, magnitude=0.0, decimation=3, gain=1.0,
             limit=DIVERGENCE_LIMIT, dt=1e-3)  # falls open loop
    @example(kind="PID", theta_dev=0.05, magnitude=10.0, decimation=1, gain=1.0,
             limit=DIVERGENCE_LIMIT, dt=2.5e-3)  # dt enters PID's update
    @example(kind="PI", theta_dev=-0.02, magnitude=-40.0, decimation=3, gain=1.0,
             limit=DIVERGENCE_LIMIT, dt=1e-4)
    # the first state is not tested: a run from past the horizontal is stepped once and
    # falls at step 1, whose row is logged whatever the decimation
    @example(kind="none", theta_dev=2.0, magnitude=0.0, decimation=3, gain=1.0,
             limit=DIVERGENCE_LIMIT, dt=1e-3)
    @example(kind="LQR", theta_dev=2.0, magnitude=0.0, decimation=3, gain=1.0,
             limit=DIVERGENCE_LIMIT, dt=1e-3)
    # at rest from a first state past the limit (x = 0.1, theta = pi): diverges at step 1,
    # not at the end of the rest
    @example(kind="none", theta_dev=0.0, magnitude=0.0, decimation=1, gain=1.0, limit=0.05,
             dt=1e-3)
    def test_matches_the_plain_loop(self, kind, theta_dev, magnitude, decimation, gain, limit,
                                    dt):
        cfg = SimConfig(dt=dt, horizon=0.4, log_decimation=decimation, actuator_gain=gain,
                        initial_state=PlantState(x=0.1, theta=UPRIGHT_THETA + theta_dev, t=0.25))
        spec = ImpulseSpec(magnitude, onset=0.3, width=0.02)
        loop_controller, plain_controller = LOOP_KINDS[kind](), plain(LOOP_KINDS, kind)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "DIVERGENCE_LIMIT", limit)
            series = run_closed_loop(cfg, loop_controller, make_disturbance(spec), PARAMS)
        assert log_bytes(series) == reference_run(cfg, plain_controller, make_disturbance(spec),
                                                  PARAMS, limit)
        # the run leaves the controller where `command` would
        for name in PID_STATE + ("memory",):
            if hasattr(plain_controller, name):
                assert getattr(loop_controller, name) == getattr(plain_controller, name)

    @pytest.mark.parametrize("kind", sorted(LOOP_KINDS))
    def test_fork_where_one_branch_falls(self, kind):
        cfg = SimConfig(horizon=1.0, log_decimation=3,
                        initial_state=PlantState(theta=UPRIGHT_THETA + 0.02))
        specs = [ImpulseSpec(m, onset=0.2, width=0.05) for m in (10.0, 1e5, 20.0)]
        controller = LOOP_KINDS[kind]()
        family = list(run_closed_loops(cfg, controller, map(make_disturbance, specs), PARAMS))
        assert family[1].fell and len(family[1]) < len(family[0])
        for series, spec in zip(family, specs):
            want = reference_run(cfg, plain(LOOP_KINDS, kind), make_disturbance(spec), PARAMS)
            assert log_bytes(series) == want
        # the controller passed in holds the state of the shared stretch: 200 commands
        reference = plain(LOOP_KINDS, kind)
        reference_run(cfg, reference, make_disturbance(specs[0]), PARAMS, steps=200)
        for name in PID_STATE + ("memory",):
            if hasattr(reference, name):
                assert getattr(controller, name) == getattr(reference, name)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["PI", "PID"]), theta_dev=st.floats(-0.3, 0.3), dt=LOOP_STEPS)
    def test_pid_command_is_the_plain_law(self, kind, theta_dev, dt):
        cfg = SimConfig(dt=dt, horizon=0.2,
                        initial_state=PlantState(theta=UPRIGHT_THETA + theta_dev))
        spec = ImpulseSpec(10.0, onset=0.05, width=0.02)
        commanded, reference = LOOP_KINDS[kind](), plain(LOOP_KINDS, kind)
        assert (reference_run(cfg, commanded, make_disturbance(spec), PARAMS)
                == reference_run(cfg, reference, make_disturbance(spec), PARAMS))
        assert ([repr(getattr(commanded, name)) for name in PID_STATE]
                == [repr(getattr(reference, name)) for name in PID_STATE])

    @settings(max_examples=30, deadline=None)
    @given(z=st.tuples(*[st.floats(-10.0, 10.0)] * 4), dt=LOOP_STEPS)
    def test_lqr_command_is_the_plain_law(self, z, dt):
        commanded, reference = lqr_controller(), plain(LOOP_KINDS, "LQR")
        assert commanded.command(z, dt).hex() == reference.command(z, dt).hex()


class CountingLaw:
    """A stateless law whose inlined statements count their evaluations in a list
    that the loop reads as a global.  At upright its command is 0.0 when theta' is
    -0.0 and -0.0 when it is 0.0, so a rest must tell the two apart."""

    def __init__(self, evaluations):
        self.evaluations = evaluations

    def command(self, z, dt):
        self.evaluations.append(None)
        return -5.0 * z[3] - 40.0 * z[2]

    def law_source(self):
        return ("evaluations.append(None)\nu = -5.0 * theta_dot - 40.0 * phi",
                {"evaluations": self.evaluations}, ())


class CountingPid(PidController):
    """PI or PID whose inlined law also counts its evaluations, as `CountingLaw`'s does."""

    def __init__(self, gains, evaluations):
        self.evaluations = evaluations
        super().__init__(gains)

    def law_source(self):
        law, names, state = super().law_source()
        return ("evaluations.append(None)\n" + law, {**names, "evaluations": self.evaluations},
                state)


def resting_tsla():
    """The 16-rule model with zero consequent biases: u = 0 at upright, so it rests there."""
    consequents = TSLA_MODEL.consequents.copy()
    consequents[:, -1] = 0.0
    return AnfisController(replace(TSLA_MODEL, consequents=consequents))


RESTING_KINDS = {"LQR": lqr_controller, "TS-LA": resting_tsla, "none": lambda: None,
                 "counting": lambda: CountingLaw([]), "PI": FAMILY_CONTROLLERS["PI"],
                 "PID": FAMILY_CONTROLLERS["PID"]}
COUNTING = {"counting": CountingLaw,
            "PI": lambda evaluations: CountingPid(default_config().pi, evaluations),
            "PID": lambda evaluations: CountingPid(default_config().pid, evaluations)}


def constant(force):
    return lambda: (lambda t: force)


rest_disturbances = st.one_of(
    st.builds(impulse, impulse_specs),
    # an onset past the 0.25 s horizon: the rest lasts to the last grid step
    st.builds(impulse, st.builds(ImpulseSpec, magnitude=st.just(10.0), onset=st.just(0.3))),
    st.sampled_from([constant(-0.0), constant(0.0)]),
)


class TestRest:
    """A stateless loop at a bitwise fixed point logs the rest without stepping it;
    each log must still be bitwise the loop written plainly."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(RESTING_KINDS)),
           disturbances=st.lists(rest_disturbances, min_size=1, max_size=3),
           start=st.sampled_from([PlantState(), PlantState(t=0.37), PlantState(x=-0.0),
                                  PlantState(theta_dot=-0.0, t=1.5)]),
           decimation=st.sampled_from([1, 7]), dt=LOOP_STEPS)
    # forks at rest, one branch rests to the end
    @example(kind="LQR", disturbances=[impulse(ImpulseSpec(10.0, 0.1, 0.05)),
                                       impulse(ImpulseSpec(-0.0, 0.1, 0.05)), impulse(None)],
             start=PlantState(), decimation=7, dt=1e-3)
    @example(kind="TS-LA", disturbances=[constant(-0.0), constant(0.0)],
             start=PlantState(t=0.37), decimation=1, dt=1e-3)  # signed zeros fork at step 0
    @example(kind="none", disturbances=[impulse(ImpulseSpec(10.0, 0.3, 0.05))],
             start=PlantState(), decimation=7, dt=1e-3)  # rests to the last step
    @example(kind="counting", disturbances=[impulse(None)], start=PlantState(theta_dot=-0.0),
             decimation=1, dt=1e-3)  # step 0 ends at 0.0, == to -0.0 but not at rest
    # the second branch rests until its own onset
    @example(kind="LQR", disturbances=[impulse(ImpulseSpec(10.0, 0.02, 0.01)),
                                       impulse(ImpulseSpec(10.0, 0.1, 0.05))],
             start=PlantState(), decimation=1, dt=1e-3)
    # the shared rest ends at the fork, not at 0.2 s
    @example(kind="none", disturbances=[impulse(ImpulseSpec(10.0, 0.2, 0.01)),
                                        impulse(ImpulseSpec(10.0, 0.1, 0.01))],
             start=PlantState(), decimation=7, dt=1e-3)
    @example(kind="PID", disturbances=[impulse(ImpulseSpec(10.0, 0.1, 0.05)),
                                       impulse(ImpulseSpec(20.0, 0.1, 0.05))],
             start=PlantState(), decimation=7, dt=2.5e-3)  # rests from step 1 to the fork
    @example(kind="PI", disturbances=[constant(-0.0), constant(0.0)],
             start=PlantState(theta_dot=-0.0, t=1.5), decimation=1, dt=1e-2)
    def test_rest_matches_the_plain_loop(self, kind, disturbances, start, decimation, dt):
        cfg = SimConfig(dt=dt, horizon=0.25, log_decimation=decimation, initial_state=start)
        family = run_closed_loops(cfg, RESTING_KINDS[kind](), [d() for d in disturbances],
                                  PARAMS)
        for series, disturbance in zip(family, disturbances, strict=True):
            assert log_bytes(series) == reference_run(cfg, plain(RESTING_KINDS, kind),
                                                      disturbance(), PARAMS)

    @pytest.mark.parametrize("decimation", [1, 7])
    def test_open_loop_rests_then_is_knocked_and_falls(self, decimation):
        cfg = SimConfig(horizon=1.5, log_decimation=decimation)
        spec = ImpulseSpec(10.0, onset=0.5, width=0.05)
        series = run_closed_loop(cfg, None, make_disturbance(spec), PARAMS)
        assert series.fell and 0.5 < series.t[-1] < 1.5
        assert np.all(series.theta[series.t < 0.5] == UPRIGHT_THETA)
        assert log_bytes(series) == reference_run(cfg, None, make_disturbance(spec), PARAMS)

    def test_a_run_at_rest_evaluates_the_law_once(self):
        evaluations = []
        series = run_closed_loop(SimConfig(horizon=40.0), CountingLaw(evaluations), None, PARAMS)
        assert len(series) == 40001
        assert len(evaluations) == 1
        assert log_bytes(series) == reference_run(SimConfig(horizon=40.0), CountingLaw([]), None,
                                                  PARAMS)

    def test_a_family_rests_once_before_it_forks(self):
        cfg = SimConfig(horizon=20.1)
        specs = [ImpulseSpec(m, onset=20.0, width=0.05) for m in (10.0, 20.0, 30.0)]
        # the law runs at step 0 of the shared rest, and PI's and PID's also at step 1, since
        # step 0 turns prev_error from 0.0 to the upright error -phi = -0.0; then it runs at
        # every step of each branch from the onset on
        for kind, before_onset in (("counting", 1), ("PI", 2), ("PID", 2)):
            evaluations = []
            controller = COUNTING[kind](evaluations)
            family = list(run_closed_loops(cfg, controller, map(make_disturbance, specs), PARAMS))
            assert [len(series) for series in family] == [20101] * 3
            assert len(evaluations) == before_onset + 3 * 101
            for series, spec in zip(family, specs):
                assert log_bytes(series) == reference_run(cfg, plain(RESTING_KINDS, kind),
                                                          make_disturbance(spec), PARAMS)
            # the controller passed in holds the state at the fork, after 20 000 commands
            reference = plain(RESTING_KINDS, kind)
            reference_run(cfg, reference, None, PARAMS, steps=20000)
            assert ([repr(getattr(controller, name, None)) for name in PID_STATE]
                    == [repr(getattr(reference, name, None)) for name in PID_STATE])


class Negated:
    """The force grid of ``spec``, negated."""

    def __init__(self, spec):
        self.spec = spec

    def forces(self, times):
        return -self.spec.forces(times)


def mirror_image(series):
    """The columns of ``series`` mirrored: x, x', theta', u and d negated, and theta
    reflected about pi (exact while theta stays in [2, 4), where the float grid is
    uniform and holds pi)."""
    return [-series.x, -series.x_dot, UPRIGHT_THETA - (series.theta - UPRIGHT_THETA),
            -series.theta_dot, -series.u, -series.d]


def mirror_columns(series):
    return [series.x, series.x_dot, series.theta, series.theta_dot, series.u, series.d]


MIRROR_ONSET = 0.5
# PID at 60 N is left out: it falls, past the 1.14 rad where rounding stays symmetric
MIRROR_CASES = [("LQR", ImpulseSpec(10.0, MIRROR_ONSET, 0.05)),
                ("LQR", ImpulseSpec(60.0, MIRROR_ONSET, 0.05)),
                ("LQR", NoiseSpec(power=0.5, sample_time=0.01, seed=7)),
                ("PID", ImpulseSpec(10.0, MIRROR_ONSET, 0.05)),
                ("PID", NoiseSpec(power=0.5, sample_time=0.01, seed=7))]


class TestMirrorSymmetry:
    """The plant, RK4, LQR and PID are odd in (x, x', theta - pi, theta', force), and
    negation is exact: a run from the mirrored state under the negated force is the
    mirror image of the run, bit for bit.  No golden: it holds under any BLAS kernel."""

    @staticmethod
    def skip_past_symmetric_range(series):
        if np.abs(series.theta - UPRIGHT_THETA).max() >= math.pi - 2.0:
            pytest.skip("the run swings past |theta - pi| = pi - 2")

    @pytest.mark.parametrize("kind, spec", MIRROR_CASES)
    def test_mirrored_start_and_force_give_the_mirror_image(self, kind, spec):
        start = PlantState(x=0.1, x_dot=-0.2, theta=UPRIGHT_THETA + 0.05, theta_dot=0.3)
        mirrored = PlantState(x=-start.x, x_dot=-start.x_dot,
                              theta=UPRIGHT_THETA - (start.theta - UPRIGHT_THETA),
                              theta_dot=-start.theta_dot)
        cfg = SimConfig(horizon=3.0, log_decimation=3, initial_state=start)
        run = run_closed_loop(cfg, FAMILY_CONTROLLERS[kind](), spec, PARAMS)
        image = run_closed_loop(replace(cfg, initial_state=mirrored), FAMILY_CONTROLLERS[kind](),
                                Negated(spec), PARAMS)
        self.skip_past_symmetric_range(run)
        assert not (run.fell or run.diverged or image.fell or image.diverged)
        assert ([c.tobytes() for c in mirror_columns(image)]
                == [c.tobytes() for c in mirror_image(run)])

    @pytest.mark.parametrize("kind, spec", [case for case in MIRROR_CASES
                                            if isinstance(case[1], ImpulseSpec)])
    def test_a_family_forks_into_mirror_images(self, kind, spec):
        # upright at rest, the family rests up to the onset and forks there; the rest's
        # zeros are +0.0 in both branches, where the mirror image holds -0.0, so zeros
        # are compared without their sign
        family = run_closed_loops(SimConfig(horizon=3.0), FAMILY_CONTROLLERS[kind](),
                                  [spec, Negated(spec)], PARAMS)
        run, image = family
        self.skip_past_symmetric_range(run)
        assert ([(c + 0.0).tobytes() for c in mirror_columns(image)]
                == [(c + 0.0).tobytes() for c in mirror_image(run)])
        assert np.all(run.theta[run.t < MIRROR_ONSET] == UPRIGHT_THETA)


class TestTimeSeriesCsv:
    def test_round_trip_exact(self, tmp_path):
        cfg = SimConfig(horizon=1.0, log_decimation=10)
        dist = make_disturbance(ImpulseSpec(magnitude=5.0, onset=0.2, width=0.05))
        series = run_closed_loop(cfg, lqr_controller(), dist, PARAMS)
        path = tmp_path / "run.csv"
        series.to_csv(path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        for j, col in enumerate(("t", "x", "x_dot", "theta", "theta_dot", "u", "d")):
            assert np.array_equal(getattr(series, col), back[:, j])

    def test_header(self, tmp_path):
        series = run_closed_loop(SimConfig(horizon=0.01), None, None, PARAMS)
        path = tmp_path / "run.csv"
        series.to_csv(path)
        assert path.read_text().splitlines()[0] == "t,x,x_dot,theta,theta_dot,u,d"

    def test_bytes_match_csv_writer(self, tmp_path):
        # reference: the csv.writer form, one repr per float.  Each column repeats the
        # values in runs of its own length, some across a chunk's end; -0.0 runs next
        # to 0.0, and nan, inf and -inf run too
        values = [-0.0, 0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan, 0.1, -1.5, 1.0, 3]
        chunk = simulate._CSV_CHUNK
        for n in (0, 1, 10, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
            # an integer column is written as floats too; linspace has no equal neighbours
            cols = [np.arange(n), np.linspace(-1.0, 1.0, n)] + [
                np.resize(np.repeat(np.array(values, dtype=float), run), n)
                for run in (1, 7, 100, 1000, 5000)]
            path = tmp_path / f"run{n}.csv"
            TimeSeries(*cols).to_csv(path)
            ref = tmp_path / f"ref{n}.csv"
            with open(ref, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "x", "x_dot", "theta", "theta_dot", "u", "d"])
                for row in zip(*cols):
                    writer.writerow([repr(float(v)) for v in row])
            assert path.read_bytes() == ref.read_bytes(), n
