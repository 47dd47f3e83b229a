import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pendulum_lab.plant import (
    Controllability,
    LinearStateSpace,
    PhysicalParams,
    PlantState,
    TransferFunction,
    UPRIGHT_THETA,
    controllability,
    ctrb,
    derivative_fn,
    linearize,
    poles,
    root_locus_sweep,
    transfer_functions,
)

PARAMS = PhysicalParams()  # benchmark values, J = 0.006


def state_derivative(state, u, params=PARAMS):
    """(x', x'', theta', theta'') of the nonlinear plant, through `derivative_fn`."""
    x_dd, theta_dd = derivative_fn(params)(state.x_dot, state.theta, state.theta_dot, u)
    return np.array([state.x_dot, x_dd, state.theta_dot, theta_dd])


def fd_jacobian(params, step=1e-6):
    """Central finite-difference Jacobian of the dynamics at upright, u = 0."""
    eq = np.array([0.0, 0.0, UPRIGHT_THETA, 0.0])

    def f(v, u=0.0):
        return state_derivative(PlantState(*v), u, params)

    J = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = step
        J[:, j] = (f(eq + e) - f(eq - e)) / (2 * step)
    B = (f(eq, step) - f(eq, -step)) / (2 * step)
    return J, B.reshape(4, 1)


class TestPhysicalParams:
    def test_alpha_positive(self):
        assert PARAMS.alpha == pytest.approx(0.0132)

    @pytest.mark.parametrize("field", ["cart_mass", "pend_mass", "inertia", "half_length", "gravity"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            PhysicalParams(**{field: 0.0})

    def test_rejects_negative_friction(self):
        with pytest.raises(ValueError):
            PhysicalParams(friction=-0.1)

    def test_zero_friction_allowed(self):
        assert PhysicalParams(friction=0.0).friction == 0.0


class TestNonlinearDerivative:
    def test_upright_equilibrium(self):
        deriv = state_derivative(PlantState(theta=UPRIGHT_THETA), 0.0)
        assert_allclose(deriv, np.zeros(4), atol=0.0)

    def test_hanging_equilibrium(self):
        deriv = state_derivative(PlantState(theta=0.0), 0.0)
        assert_allclose(deriv, np.zeros(4), atol=1e-13)

    def test_tipped_state_matches_mass_matrix_solve(self):
        # independent oracle: assemble the 2x2 system and let LAPACK solve it
        theta = UPRIGHT_THETA + 0.01
        s, c = -math.sin(0.01), -math.cos(0.01)
        M = np.array(
            [
                [PARAMS.total_mass, PARAMS.pend_mass * PARAMS.half_length * c],
                [PARAMS.pend_mass * PARAMS.half_length * c, PARAMS.pivot_inertia],
            ]
        )
        rhs = np.array([0.0, -PARAMS.pend_mass * PARAMS.gravity * PARAMS.half_length * s])
        x_dd, theta_dd = np.linalg.solve(M, rhs)

        deriv = state_derivative(PlantState(theta=theta), 0.0)
        assert deriv[3] > 0.0  # upright is repelling
        assert math.copysign(1.0, deriv[3]) == math.copysign(1.0, theta_dd)
        assert_allclose(deriv[1], x_dd, rtol=1e-12)
        assert_allclose(deriv[3], theta_dd, rtol=1e-12)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(ValueError):
            PlantState(x=math.inf)

    @given(theta=st.floats(-10.0, 10.0))
    def test_mass_matrix_positive_definite(self, theta):
        _, c = -math.sin(theta - UPRIGHT_THETA), -math.cos(theta - UPRIGHT_THETA)
        ml_c = PARAMS.pend_mass * PARAMS.half_length * c
        det = PARAMS.total_mass * PARAMS.pivot_inertia - ml_c**2
        assert det > 0.0


class TestLinearize:
    def test_chain_rows_exact(self):
        ss = linearize(PARAMS)
        assert np.array_equal(ss.A[0], [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(ss.A[2], [0.0, 0.0, 0.0, 1.0])

    def test_benchmark_entry_magnitudes(self):
        ss = linearize(PARAMS)
        assert abs(ss.A[1, 2]) == pytest.approx(2.673, abs=1e-3)
        assert abs(ss.A[3, 2]) == pytest.approx(31.18, abs=2e-3)
        assert abs(ss.B[1, 0]) == pytest.approx(1.818, abs=1e-3)
        assert abs(ss.B[3, 0]) == pytest.approx(4.545, abs=1e-3)

    def test_velocity_drag_entry_against_jacobian(self):
        # the cart-velocity drag entry is -0.1818, an order of magnitude
        # smaller than a naive reading of the benchmark tables suggests
        ss = linearize(PARAMS)
        J, _ = fd_jacobian(PARAMS)
        assert ss.A[1, 1] == pytest.approx(-0.18181818, abs=1e-6)
        assert ss.A[1, 1] == pytest.approx(J[1, 1], rel=1e-6)

    def test_jacobian_consistency_every_entry(self):
        ss = linearize(PARAMS)
        J, B = fd_jacobian(PARAMS)
        for analytic, numeric in ((ss.A, J), (ss.B, B)):
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            mask = scale > 1e-12
            assert np.all(np.abs(analytic - numeric)[~mask] <= 1e-12)
            rel = np.abs(analytic - numeric)[mask] / scale[mask]
            assert rel.max() <= 1e-6

    def test_frictionless_drag_terms_vanish(self):
        ss = linearize(PhysicalParams(friction=0.0))
        assert ss.A[1, 1] == 0.0
        assert ss.A[3, 1] == 0.0

    def test_exactly_one_unstable_eigenvalue(self):
        eig = np.linalg.eigvals(linearize(PARAMS).A)
        assert int(np.sum(eig.real > 0.0)) == 1


class TestTransferFunctions:
    def test_pendulum_denominator_coefficients(self):
        # oracle: the coefficient formulas evaluated straight from the
        # parameter values (alpha = 0.7 * 0.024 - 0.06^2 = 0.0132)
        alpha = 0.7 * 0.024 - 0.06**2
        expected = (0.1 * 0.024 / alpha, -0.7 * 0.2 * 9.8 * 0.3 / alpha, -0.1 * 0.2 * 9.8 * 0.3 / alpha)
        _, pend = transfer_functions(PARAMS)
        assert pend.denominator[0] == 1.0
        assert_allclose(pend.denominator[1:], expected, rtol=1e-12)
        assert_allclose(pend.denominator[1:], (0.1818, -31.18, -4.4545), atol=2e-3)
        assert_allclose(pend.numerator, (0.2 * 0.3 / alpha, 0.0), rtol=1e-12)

    def test_frictionless_terms_vanish(self):
        _, pend = transfer_functions(PhysicalParams(friction=0.0))
        assert pend.denominator[1] == 0.0
        assert pend.denominator[3] == 0.0

    def test_cart_denominator_adds_integrator(self):
        cart, pend = transfer_functions(PARAMS)
        assert cart.denominator == pend.denominator + (0.0,)

    def test_rejects_zero_leading_coefficient(self):
        with pytest.raises(ValueError):
            TransferFunction((1.0,), (0.0, 1.0))


class TestPoles:
    def test_benchmark_pendulum_poles(self):
        _, pend = transfer_functions(PARAMS)
        assert_allclose(sorted(poles(pend).real), [-5.6041, -0.1428, 5.5651], atol=1e-3)
        assert np.all(poles(pend).imag == 0.0)

    def test_cart_adds_origin_pole(self):
        cart, pend = transfer_functions(PARAMS)
        cart_poles = sorted(poles(cart).real)
        assert_allclose(cart_poles, [-5.6041, -0.1428, 0.0, 5.5651], atol=1e-3)

    def test_simple_quadratic(self):
        roots = poles(TransferFunction((1.0,), (1.0, 0.0, -1.0)))
        assert_allclose(sorted(roots.real), [-1.0, 1.0], rtol=1e-12)

    def test_residual_bound(self):
        _, pend = transfer_functions(PARAMS)
        den = np.array(pend.denominator)
        for r in poles(pend):
            assert abs(np.polyval(den, r)) <= 1e-9 * np.max(np.abs(den)) * max(1.0, abs(r)) ** 3

    def test_rejects_zero_polynomial(self):
        tf = TransferFunction((1.0,), (1.0, 0.0))
        object.__setattr__(tf, "denominator", (0.0, 0.0))
        with pytest.raises(ValueError):
            poles(tf)

    @given(scale=st.floats(1e-6, 1e6))
    @settings(max_examples=25)
    def test_monic_scaling_invariance(self, scale):
        _, pend = transfer_functions(PARAMS)
        scaled = TransferFunction(
            tuple(scale * c for c in pend.numerator),
            tuple(scale * c for c in pend.denominator),
        )
        assert_allclose(sorted(poles(scaled).real), sorted(poles(pend).real), rtol=1e-9)


class TestControllability:
    def test_benchmark_matrix(self):
        co = controllability(linearize(PARAMS))
        assert isinstance(co, Controllability)
        assert co.rank == 4
        assert co.det != 0.0
        assert_allclose(co.matrix[:, 0], [0.0, 1.8182, 0.0, 4.5455], atol=1e-3)
        assert_allclose(np.abs(co.matrix[:, 1]), [1.8182, 0.3306, 4.5455, 0.8264], atol=1e-3)
        # drag makes the velocity-coupling entries negative
        assert co.matrix[1, 1] < 0.0 and co.matrix[3, 1] < 0.0

    def test_entry_magnitudes_match_reference(self):
        co = controllability(linearize(PARAMS))
        expected = np.array(
            [
                [0.0, 1.8182, -0.3306, 12.2089],
                [1.8182, -0.3306, 12.2089, -4.4287],
                [0.0, 4.5455, -0.8264, 141.8858],
                [4.5455, -0.8264, 141.8858, -31.3196],
            ]
        )
        nonzero = expected != 0.0
        rel = np.abs(np.abs(co.matrix[nonzero]) - np.abs(expected[nonzero])) / np.abs(expected[nonzero])
        assert rel.max() <= 1e-2

    def test_zero_dynamics_rank_one(self):
        ss = linearize(PARAMS)
        zero = LinearStateSpace(A=np.zeros((4, 4)), B=ss.B)
        co = controllability(zero)
        assert co.rank == 1
        assert_allclose(co.matrix[:, 1:], np.zeros((4, 3)), atol=0.0)

    def test_ctrb_generic_shape(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        assert ctrb(A, B).shape == (2, 2)


class TestRootLocus:
    def test_zero_gain_is_open_loop(self):
        _, pend = transfer_functions(PARAMS)
        rows = root_locus_sweep(pend, [0.0])
        assert rows[0][0] == 0.0
        assert_allclose(sorted(rows[0][1].real), sorted(poles(pend).real), rtol=1e-9)

    def test_open_loop_branch_starts_in_rhp(self):
        _, pend = transfer_functions(PARAMS)
        (_, roots), = root_locus_sweep(pend, [0.0])
        assert np.any(np.abs(roots - 5.5651) < 1e-3)

    @pytest.mark.parametrize("gain", [0.0, 0.5, 10.0, 400.0])
    def test_root_count_matches_degree(self, gain):
        _, pend = transfer_functions(PARAMS)
        (_, roots), = root_locus_sweep(pend, [gain])
        assert roots.size == len(pend.denominator) - 1

    def test_rejects_negative_gain(self):
        _, pend = transfer_functions(PARAMS)
        with pytest.raises(ValueError):
            root_locus_sweep(pend, [-1.0])
