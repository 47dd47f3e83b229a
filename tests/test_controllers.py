import copy
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from pendulum_lab.anfis import AnfisModel
from pendulum_lab.config import default_config
from pendulum_lab.controllers import (AnfisController, CareError, LqrController, LqrDesign,
                                      PidController, PidGains, design_lqr, solve_care)
from pendulum_lab.plant import PhysicalParams, PlantState, UPRIGHT_THETA, linearize
from pendulum_lab.scenarios import ImpulseSpec, make_disturbance
from pendulum_lab.simulate import SimConfig, run_closed_loop

SS = linearize(PhysicalParams())
Q_BENCH = np.diag([1200.0, 0.0, 100.0, 0.0])


def hamiltonian_care(A, B, Q, R):
    """Independent stable-subspace construction of the Riccati solution."""
    R_inv = np.linalg.inv(R)
    H = np.block([[A, -B @ R_inv @ B.T], [-Q, -A.T]])
    vals, vecs = np.linalg.eig(H)
    V = vecs[:, vals.real < 0]
    n = A.shape[0]
    S = np.real(V[n:] @ np.linalg.inv(V[:n]))
    return 0.5 * (S + S.T)


class TestSolveCare:
    def test_scalar_hand_solution(self):
        S, K = solve_care(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
        assert S[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert K[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_benchmark_plant_against_independent_solvers(self):
        R = np.array([[1.0]])
        S, K = solve_care(SS.A, SS.B, Q_BENCH, R)
        assert_allclose(S, S.T, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(S) >= -1e-9)

        residual = S @ SS.A + SS.A.T @ S - S @ SS.B @ SS.B.T @ S + Q_BENCH
        assert np.linalg.norm(residual) <= 1e-8

        assert_allclose(S, hamiltonian_care(SS.A, SS.B, Q_BENCH, R), rtol=1e-8)
        assert_allclose(S, scipy.linalg.solve_continuous_are(SS.A, SS.B, Q_BENCH, R), rtol=1e-8)

        closed = np.linalg.eigvals(SS.A - SS.B @ K)
        assert np.all(closed.real < 0.0)

    def test_joint_scaling_leaves_gain_invariant(self):
        _, K1 = solve_care(SS.A, SS.B, Q_BENCH, np.array([[1.0]]))
        _, K2 = solve_care(SS.A, SS.B, 250.0 * Q_BENCH, np.array([[250.0]]))
        assert np.abs(K1 - K2).max() <= 1e-9 * max(1.0, np.abs(K1).max())

    def test_rejects_uncontrollable_pair(self):
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])
        with pytest.raises(ValueError, match="not controllable"):
            solve_care(A, B, np.eye(2), np.eye(1))

    def test_rejects_indefinite_weights(self):
        with pytest.raises(ValueError):
            solve_care(SS.A, SS.B, -np.eye(4), np.eye(1))
        with pytest.raises(ValueError):
            solve_care(SS.A, SS.B, Q_BENCH, np.array([[0.0]]))


class TestLqrDesign:
    def test_design_validates_and_reports(self):
        design = design_lqr(SS, Q_BENCH, 1.0)
        assert design.riccati_residual(SS) <= 1e-8 * (1.0 + np.linalg.norm(design.Q))
        assert np.all(design.closed_loop_eigenvalues(SS).real < 0.0)

    def test_identity_weights_also_stabilize(self):
        design = design_lqr(SS, np.eye(4), 1.0)
        assert np.all(design.closed_loop_eigenvalues(SS).real < 0.0)

    def test_json_round_trip(self, tmp_path):
        design = design_lqr(SS, Q_BENCH, 1.0)
        path = tmp_path / "design.json"
        design.to_json(path)
        back = LqrDesign.from_json(path)
        assert np.array_equal(design.K, back.K)
        assert np.array_equal(design.S, back.S)
        assert back.R == design.R
        design.to_json(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_json_missing_section(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"Q": [], "R": 1.0}')
        with pytest.raises(ValueError, match="missing sections"):
            LqrDesign.from_json(path)


@pytest.fixture(scope="module")
def design():
    return design_lqr(SS, Q_BENCH, 1.0)


@pytest.fixture(scope="module")
def mimic_model():
    # all consequents equal to (-K, 0): reproduces u = -K x everywhere
    K = design_lqr(SS, Q_BENCH, 1.0).K.ravel()
    consequents = np.tile(np.concatenate([-K, [0.0]]), (16, 1))
    model = AnfisModel(a=np.ones((4, 2)), b=np.full((4, 2), 2.0), c=np.tile([-0.5, 0.5], (4, 1)),
                       consequents=consequents, input_ranges=np.tile([-0.5, 0.5], (4, 1)))
    return model, K


def angle_error(error):
    """Deviation tuple whose PID error (pi - theta) is `error`."""
    return (0.0, 0.0, -error, 0.0)


def pid_state(ctrl):
    return (ctrl.integral, ctrl.prev_error, ctrl.derivative)


class TestLqrStep:
    def test_zero_at_equilibrium(self, design):
        assert LqrController(design).command((0.0, 0.0, 0.0, 0.0), 1e-3) == 0.0

    def test_basis_probes_return_negated_gains(self, design):
        ctrl = LqrController(design)
        for i, z in enumerate(np.eye(4).tolist()):
            assert ctrl.command(tuple(z), 1e-3) == pytest.approx(-design.K[0, i], rel=1e-12)

    def test_linearity(self, design):
        ctrl = LqrController(design)
        one = ctrl.command((0.3, -0.2, 0.1, 0.05), 1e-3)
        two = ctrl.command((0.6, -0.4, 0.2, 0.1), 1e-3)
        assert two == pytest.approx(2.0 * one, rel=1e-12)


class TestPidStep:
    def test_zero_history_zero_output(self):
        ctrl = PidController(PidGains(kp=3.0, ki=2.0, kd=1.0))
        assert ctrl.command(angle_error(0.0), 1e-3) == 0.0
        assert pid_state(ctrl) == (0.0, 0.0, 0.0)

    def test_pure_proportional(self):
        out = PidController(PidGains(kp=2.0)).command(angle_error(1.5), 1e-3)
        assert out == pytest.approx(3.0, rel=1e-15)

    def test_trapezoidal_integral(self):
        ctrl = PidController(PidGains(kp=0.0, ki=1.0))
        total = 0.0
        for k in range(1, 5):
            total = ctrl.command(angle_error(float(k)), 0.5)
        # trapezoid over errors 0,1,2,3,4 at dt=0.5
        assert total == pytest.approx(0.5 * (0.5 + 1.5 + 2.5 + 3.5), rel=1e-12)

    def test_ramp_derivative_matches_filtered_differentiator(self):
        # analytic backward-Euler response to a unit ramp: kd (1 - (1+N dt)^-k)
        gains = PidGains(kp=0.0, ki=0.0, kd=1.0, filter_n=1000.0)
        ctrl = PidController(gains)
        dt = 1e-3
        for k in range(1, 40):
            out = ctrl.command(angle_error(k * dt), dt)
            expected = gains.kd * (1.0 - (1.0 + gains.filter_n * dt) ** (-k))
            assert out == pytest.approx(expected, rel=1e-12)
        assert out == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PidController(PidGains(kp=1.0)).command(angle_error(0.0), 0.0)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            PidGains(kp=-1.0)
        with pytest.raises(ValueError):
            PidGains(kp=1.0, filter_n=0.0)

    def test_pi_ignores_filter_coefficient(self):
        ctrl_a = PidController(PidGains(kp=2.0, ki=1.0, kd=0.0, filter_n=10.0))
        ctrl_b = PidController(PidGains(kp=2.0, ki=1.0, kd=0.0, filter_n=5000.0))
        for k in range(50):
            z = angle_error(math.sin(0.3 * k))
            assert ctrl_a.command(z, 1e-2) == ctrl_b.command(z, 1e-2)


class TestPidController:
    def test_reads_only_the_angle(self):
        gains = PidGains(kp=5.0, ki=2.0, kd=0.5, filter_n=100.0)
        a = PlantState(x=0.0, x_dot=0.0, theta=UPRIGHT_THETA + 0.1, theta_dot=0.0)
        b = PlantState(x=3.0, x_dot=-2.0, theta=UPRIGHT_THETA + 0.1, theta_dot=7.0)
        assert PidController(gains).step(a, 1e-3) == PidController(gains).step(b, 1e-3)

    def test_error_sign_pushes_back_upright(self):
        ctrl = PidController(PidGains(kp=10.0))
        tipped = PlantState(theta=UPRIGHT_THETA + 0.2)
        assert ctrl.step(tipped, 1e-3) < 0.0

    def test_copy_mid_run_replays_the_remaining_commands(self):
        ctrl = PidController(PidGains(kp=5.0, ki=3.0, kd=0.7, filter_n=200.0))
        errors = np.sin(np.linspace(0.0, 4.0, 200)).tolist()
        for e in errors[:120]:
            ctrl.command(angle_error(e), 1e-3)
        twin = copy.copy(ctrl)
        # the original runs to the end first, so state shared with the copy would show
        original = [ctrl.command(angle_error(e), 1e-3) for e in errors[120:]]
        replay = [twin.command(angle_error(e), 1e-3) for e in errors[120:]]
        assert list(map(float.hex, replay)) == list(map(float.hex, original))


class TestAnfisController:
    def test_equilibrium_output_near_zero(self, mimic_model):
        model, _ = mimic_model
        assert abs(AnfisController(model).command((0.0, 0.0, 0.0, 0.0), 1e-3)) <= 1e-6

    def test_matches_state_feedback_inside_hull(self, mimic_model):
        model, K = mimic_model
        rng = np.random.default_rng(3)
        ctrl = AnfisController(model)
        for _ in range(50):
            dev = rng.uniform(-0.5, 0.5, size=4)
            assert ctrl.command(tuple(dev.tolist()), 1e-3) == pytest.approx(float(-K @ dev),
                                                                             abs=1e-4)

    def test_rejects_model_without_four_inputs(self):
        model = AnfisModel(a=np.ones((3, 1)), b=np.full((3, 1), 2.0), c=np.zeros((3, 1)),
                           consequents=np.zeros((1, 4)), input_ranges=np.tile([-1.0, 1.0], (3, 1)))
        with pytest.raises(ValueError, match="4 deviation inputs, got 3"):
            AnfisController(model)

    def test_stateless_replay(self, mimic_model):
        model, _ = mimic_model
        ctrl = AnfisController(model)
        states = [PlantState(0.1, -0.2, UPRIGHT_THETA + 0.05, 0.3),
                  PlantState(-0.3, 0.1, UPRIGHT_THETA - 0.02, -0.1)]
        first = [ctrl.step(s, 1e-3) for s in states]
        assert [ctrl.step(s, 1e-3) for s in states] == first


def recorded_states():
    """Every 5th logged state of an LQR impulse run, with its time."""
    cfg = SimConfig(horizon=2.0, initial_state=PlantState(x=0.1, theta=UPRIGHT_THETA + 0.05))
    spec = ImpulseSpec(magnitude=20.0, onset=0.5, width=0.05)
    series = run_closed_loop(cfg, LqrController(design_lqr(SS, Q_BENCH, 1.0)),
                             make_disturbance(spec), PhysicalParams())
    columns = (series.x, series.x_dot, series.theta, series.theta_dot, series.t)
    return [tuple(row) for row in np.column_stack(columns)[::5].tolist()]


@pytest.mark.parametrize("make", [
    lambda model: LqrController(design_lqr(SS, Q_BENCH, 1.0)),
    lambda model: PidController(default_config().pi),
    lambda model: PidController(default_config().pid),
    lambda model: AnfisController(model),
], ids=["LQR", "PI", "PID", "TS-LA"])
def test_step_is_command_on_the_deviation(make, mimic_model):
    states = recorded_states()
    runs = []
    for _ in range(2):  # each pass on newly built controllers
        via_step, via_command = make(mimic_model[0]), make(mimic_model[0])
        a = [via_step.step(PlantState(*s), 1e-3) for s in states]
        b = [via_command.command((x, xd, th - UPRIGHT_THETA, thd), 1e-3)
             for x, xd, th, thd, _ in states]
        assert list(map(float.hex, a)) == list(map(float.hex, b))
        runs.append(b)
    assert runs[0] == runs[1]
