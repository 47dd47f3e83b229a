"""Independent checks on the program's outputs.

Every reference in this module belongs to the benchmark, not to
``pendulum_lab``: the equations of motion are copied from the docstring of
``pendulum_lab/plant.py``, the linear model comes from complex-step
derivatives of that copy, the Riccati solution from scipy, and the reference
trajectory from ``scipy.integrate.solve_ivp``.  Nothing is stored: every
reference is recomputed from the run's inputs, so there is no stored copy to
regenerate.

A check returns quietly or raises ``CheckFailed`` saying what disagreed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_are

UPRIGHT = math.pi

# K against scipy's CARE solution, relative to max |K|.
GAIN_RTOL = 1e-8
# A TS model can represent the global affine law -K z exactly.
TRAIN_ROW_TOL_V = 1e-9
# After the first epoch the train RMSE sits at the rounding floor (about
# 1e-13 V), where re-solving the least squares moves it by about 1e-16 V
# either way; a rise counts when it exceeds this share of the targets' RMS.
RMSE_RISE_RTOL = 1e-12
# Program RK4 (dt = 1 ms) against solve_ivp (DOP853, rtol = atol = 1e-12) of
# the same zero-order-hold loop.  The measured gap is about 2e-10; a
# trajectory lagging by one step is off by about 0.1.
ZOH_WINDOW_S = 2.0
ZOH_TOL = 1e-8

TIMESERIES_HEADER = ["t", "x", "x_dot", "theta", "theta_dot", "u", "d"]


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# the benchmark's own plant model


def eom(params, state, force):
    """(x', x'', theta', theta'') of the docstring pair

        (m_c + m_p) x'' + m_p l c theta''  =  u - b x' + m_p l s theta'^2
        m_p l c x'' + (J + m_p l^2) theta''  =  -m_p g l s

    solved by Cramer's rule.  Works on complex states, so a complex step
    gives exact derivatives.
    """
    _, x_dot, theta, theta_dot = state
    s, c = np.sin(theta), np.cos(theta)
    ml = params.pend_mass * params.half_length
    m11 = params.cart_mass + params.pend_mass
    m22 = params.inertia + params.pend_mass * params.half_length ** 2
    m12 = ml * c
    r1 = force - params.friction * x_dot + ml * s * theta_dot * theta_dot
    r2 = -params.pend_mass * params.gravity * params.half_length * s
    det = m11 * m22 - m12 * m12
    return np.array([x_dot, (m22 * r1 - m12 * r2) / det,
                     theta_dot, (m11 * r2 - m12 * r1) / det])


def linear_model(params) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) about upright, deviation state (x, x', theta - pi, theta')."""
    h = 1e-30
    upright = np.array([0.0, 0.0, UPRIGHT, 0.0], dtype=complex)
    A = np.empty((4, 4))
    for j in range(4):
        probe = upright.copy()
        probe[j] += 1j * h
        A[:, j] = eom(params, probe, 0.0).imag / h
    B = (eom(params, upright, 1j * h).imag / h).reshape(4, 1)
    return A, B


def check_lqr_gain(K, params, q_diag, r) -> None:
    """K equals R^-1 B^T P with P from scipy's CARE solver."""
    A, B = linear_model(params)
    R = np.array([[float(r)]])
    P = solve_continuous_are(A, B, np.diag(q_diag), R)
    K_ref = np.linalg.solve(R, B.T @ P)
    K = np.asarray(K, dtype=float).reshape(1, 4)
    err = float(np.max(np.abs(K - K_ref)) / np.max(np.abs(K_ref)))
    require(err <= GAIN_RTOL, f"LQR gain {K.ravel()} differs from scipy CARE {K_ref.ravel()} "
                              f"(relative {err:.3g} > {GAIN_RTOL:g})")


def pi_closed_loop_poles(params, kp: float, ki: float) -> np.ndarray:
    """Poles of the linear plant under u = kp e + ki integral(e), e = pi - theta.

    State (x, x', phi, phi', integral e); e = -phi.
    """
    A, B = linear_model(params)
    A_cl = np.zeros((5, 5))
    A_cl[:4, :4] = A + B @ np.array([[0.0, 0.0, -kp, 0.0]])
    A_cl[:4, 4] = ki * B[:, 0]
    A_cl[4, 2] = -1.0
    return np.linalg.eigvals(A_cl)


def check_pi_falls(params, kp: float, ki: float, peaks_deg) -> None:
    """PI's linear loop has a right-half-plane pole, and every PI cell fell."""
    # the cart position is not fed back, so one pole sits at 0 up to rounding
    worst = float(np.max(pi_closed_loop_poles(params, kp, ki).real))
    require(worst > 1e-6, f"PI linear closed loop has no unstable pole (max Re = {worst:.3g})")
    require(all(p > 90.0 for p in peaks_deg),
            f"PI has an unstable pole at Re = {worst:.3g} but peaks {peaks_deg} stay below 90 deg")


# ---------------------------------------------------------------------------
# TS-LA models


def check_reproduces_lqr(u_model: np.ndarray, X: np.ndarray, K) -> None:
    """A TS-LA model returns -K z on its training rows."""
    gap = float(np.max(np.abs(u_model + X @ np.asarray(K).reshape(4))))
    require(gap <= TRAIN_ROW_TOL_V,
            f"TS-LA misses -K z on its training rows by {gap:.3g} V (> {TRAIN_ROW_TOL_V:g})")


def check_non_increasing(train_rmse, targets, what: str) -> None:
    """Train RMSE never rises by more than RMSE_RISE_RTOL of the targets' RMS."""
    rmse = np.asarray(train_rmse, dtype=float)
    tol = RMSE_RISE_RTOL * float(np.sqrt(np.mean(np.square(targets))))
    rises = np.nonzero(np.diff(rmse) > tol)[0]
    require(rises.size == 0, f"{what}: train RMSE rises at epoch {rises[:1] + 1} "
                             f"({rmse[rises[:1]]} -> {rmse[rises[:1] + 1]}, > {tol:.3g})")


def lqr_gap(u: np.ndarray, X: np.ndarray, K) -> float:
    """max |u + K z| over the rows of X."""
    return float(np.max(np.abs(u + X @ np.asarray(K).reshape(4))))


# ---------------------------------------------------------------------------
# logged runs


def load_timeseries(path) -> np.ndarray:
    """Columns t, x, x_dot, theta, theta_dot, u, d as one (n, 7) array."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    require(header == TIMESERIES_HEADER, f"{path}: header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def settle_and_peak(t, theta, onset: float, band: float) -> tuple[float, float, float]:
    """(settling time, peak |theta - pi|, one-sample tolerance on the peak).

    Settling is the time from onset to the last sample outside the band,
    unbounded when the run ends outside it.
    """
    dev = np.abs(theta - UPRIGHT)
    after = t >= onset
    outside = t[after & (dev > band)]
    if outside.size == 0:
        settle = 0.0
    elif outside[-1] >= t[-1]:
        settle = math.inf
    else:
        settle = float(outside[-1] - onset)
    first = int(np.argmax(after))
    i = first + int(np.argmax(dev[after]))
    neighbours = dev[max(i - 1, 0):i + 2]
    return settle, float(dev[i]), float(np.max(np.abs(neighbours - dev[i])))


def check_metrics_agree(own, program, dt: float, what: str) -> None:
    """Settling and peak agree within one sample."""
    settle, peak, peak_tol = own
    p_settle, p_peak = program
    if math.isinf(settle) or math.isinf(p_settle):
        require(settle == p_settle, f"{what}: settling {p_settle} vs own {settle}")
    else:
        require(abs(settle - p_settle) <= dt * (1 + 1e-9),
                f"{what}: settling {p_settle} vs own {settle} (more than one sample)")
    require(abs(peak - p_peak) <= peak_tol + 1e-12,
            f"{what}: peak {p_peak} vs own {peak} (more than one sample)")


def impulse_force(t, magnitude: float, onset: float, width: float) -> np.ndarray:
    return np.where((t >= onset) & (t < onset + width), magnitude, 0.0)


def noise_force(t, seed: int, power: float, sample_time: float) -> np.ndarray:
    """The floor(t / Ts)-th draw of default_rng(seed), times sqrt(power)."""
    k = np.floor(t / sample_time).astype(np.int64)
    draws = np.random.default_rng(seed).standard_normal(int(k.max()) + 1)
    return draws[k] * math.sqrt(power)


def zoh_reference(params, K, magnitude, onset, width, t, gain=1.0) -> np.ndarray:
    """LQR impulse run from rest at `onset` over the logged times `t`.

    The command -K z and the impulse are sampled at each logged time and
    held over the step; solve_ivp integrates each step.
    """
    K = np.asarray(K, dtype=float).reshape(4)
    y = np.array([0.0, 0.0, UPRIGHT, 0.0])
    out = [y]
    for k in range(t.size - 1):
        z = y - np.array([0.0, 0.0, UPRIGHT, 0.0])
        force = gain * float(-(K @ z)) + float(impulse_force(t[k], magnitude, onset, width))
        sol = solve_ivp(lambda _t, s: eom(params, s, force), (t[k], t[k + 1]), y,
                        method="DOP853", rtol=1e-12, atol=1e-12)
        require(sol.success, f"solve_ivp failed: {sol.message}")
        y = sol.y[:, -1]
        out.append(y)
    return np.array(out)


def check_zoh_reference(data: np.ndarray, params, K, magnitude, onset, width, gain=1.0) -> float:
    """The program's LQR impulse run matches solve_ivp within ZOH_TOL over
    ZOH_WINDOW_S from the onset; before the onset it sits exactly at rest."""
    t = data[:, 0]
    before = t < onset
    rest = np.array([0.0, 0.0, UPRIGHT, 0.0])
    require(np.all(data[before, 1:5] == rest), "LQR run moved before the impulse")
    window = (t >= onset) & (t <= onset + ZOH_WINDOW_S)
    ref = zoh_reference(params, K, magnitude, onset, width, t[window], gain)
    err = float(np.max(np.abs(data[window, 1:5] - ref)))
    require(err <= ZOH_TOL, f"LQR run differs from solve_ivp by {err:.3g} (> {ZOH_TOL:g})")
    return err


def check_peaks_grow(magnitudes, peaks, what: str) -> None:
    order = np.argsort(magnitudes)
    ordered = np.asarray(peaks)[order]
    require(bool(np.all(np.diff(ordered) > 0.0)),
            f"{what}: impulse peaks {list(ordered)} do not grow with magnitudes "
            f"{list(np.asarray(magnitudes)[order])}")
