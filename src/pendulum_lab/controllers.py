"""Controllers sharing one interface: LQR, PI/PID on the angle, ANFIS.

The regulation target is the upright equilibrium (0, 0, pi, 0) throughout;
no command in this package ever moves the setpoint.

The continuous algebraic Riccati equation is solved in-house: a stabilizing
seed comes from the stable invariant subspace of the Hamiltonian matrix and
Newton-Kleinman iteration refines it to the residual tolerance, each sweep
solving one Lyapunov equation (via a dense Kronecker solve, fine at these
sizes).  That keeps the design path self-contained and the tests free to
cross-check against an independent solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anfis import AnfisModel, _law_source
from .artifacts import read_json, write_json
from .plant import UPRIGHT_THETA, LinearStateSpace, PlantState, ctrb

__all__ = [
    "CareError",
    "solve_care",
    "LqrDesign",
    "design_lqr",
    "LqrController",
    "PidGains",
    "PidController",
    "AnfisController",
]

CARE_CONVERGENCE_RTOL = 1e-13
CARE_RESIDUAL_RTOL = 1e-8
CARE_MAX_ITER = 100


class CareError(RuntimeError):
    """Riccati solve failure; carries the final residual when iteration ran."""

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message if residual is None else f"{message} (residual {residual:.3e})")
        self.residual = residual


def _care_residual(S, A, B, Q, R_inv):
    return S @ A + A.T @ S - S @ B @ R_inv @ B.T @ S + Q


def _solve_lyapunov(F: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Solve F^T S + S F = -W by the vectorized linear system."""
    n = F.shape[0]
    eye = np.eye(n)
    lhs = np.kron(eye, F.T) + np.kron(F.T, eye)
    S = np.linalg.solve(lhs, -W.reshape(-1)).reshape(n, n)
    return 0.5 * (S + S.T)


def _hamiltonian_seed(A, B, Q, R_inv):
    """Stabilizing S from the stable invariant subspace of the Hamiltonian."""
    n = A.shape[0]
    H = np.block([[A, -B @ R_inv @ B.T], [-Q, -A.T]])
    eigvals, eigvecs = np.linalg.eig(H)
    stable = eigvals.real < 0.0
    if int(stable.sum()) != n:
        raise CareError(
            f"Hamiltonian matrix has {int(stable.sum())} stable eigenvalues, expected {n}"
        )
    V = eigvecs[:, stable]
    X1, X2 = V[:n, :], V[n:, :]
    S = np.real(X2 @ np.linalg.inv(X1))
    return 0.5 * (S + S.T)


def solve_care(A, B, Q, R) -> tuple[np.ndarray, np.ndarray]:
    """Solve S A + A^T S - S B R^-1 B^T S + Q = 0 for the stabilizing S.

    Returns (S, K) with K = R^-1 B^T S; the control applied downstream is
    u = -K x.  Rejects uncontrollable pairs up front and reports the final
    residual if Newton-Kleinman fails to reach tolerance within the budget.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    B = np.asarray(B, dtype=float).reshape(n, -1)
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))

    if np.any(np.linalg.eigvalsh(0.5 * (Q + Q.T)) < -1e-12 * max(1.0, np.linalg.norm(Q))):
        raise ValueError("Q must be positive semidefinite")
    if np.any(np.linalg.eigvalsh(0.5 * (R + R.T)) <= 0.0):
        raise ValueError("R must be positive definite")
    sigma = np.linalg.svd(ctrb(A, B), compute_uv=False)
    if sigma[-1] <= 1e-8 * sigma[0]:
        raise ValueError("(A, B) is not controllable")

    R_inv = np.linalg.inv(R)
    q_scale = 1.0 + np.linalg.norm(Q)
    tol = CARE_CONVERGENCE_RTOL * q_scale

    S = _hamiltonian_seed(A, B, Q, R_inv)
    residual = np.linalg.norm(_care_residual(S, A, B, Q, R_inv))
    for _ in range(CARE_MAX_ITER):
        if residual <= tol:
            break
        K = R_inv @ B.T @ S
        F = A - B @ K
        if np.any(np.linalg.eigvals(F).real >= 0.0):
            raise CareError("Newton-Kleinman iterate lost stability", residual)
        S_next = _solve_lyapunov(F, Q + K.T @ R @ K)
        residual_next = np.linalg.norm(_care_residual(S_next, A, B, Q, R_inv))
        if residual_next >= residual:
            break  # rounding floor; keep the better iterate
        S, residual = S_next, residual_next

    if residual > CARE_RESIDUAL_RTOL * q_scale:
        raise CareError("Riccati iteration did not converge", residual)
    K = R_inv @ B.T @ S
    return S, K


@dataclass(frozen=True, eq=False)
class LqrDesign:
    """Weights, Riccati solution and gain row of one LQR design."""

    Q: np.ndarray
    R: float
    S: np.ndarray
    K: np.ndarray

    def __post_init__(self) -> None:
        for name, shape in (("Q", (4, 4)), ("S", (4, 4))):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        K = np.asarray(self.K, dtype=float).reshape(1, 4)
        K.setflags(write=False)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", float(self.R))

    def riccati_residual(self, ss: LinearStateSpace) -> float:
        R_inv = np.array([[1.0 / self.R]])
        return float(np.linalg.norm(_care_residual(self.S, ss.A, ss.B, self.Q, R_inv)))

    def closed_loop_eigenvalues(self, ss: LinearStateSpace) -> np.ndarray:
        return np.linalg.eigvals(ss.A - ss.B @ self.K)

    def to_json(self, path) -> None:
        write_json(path, {"Q": self.Q.tolist(), "R": self.R, "S": self.S.tolist(),
                          "K": self.K.tolist()})

    @classmethod
    def from_json(cls, path) -> "LqrDesign":
        doc = read_json(path, "LQR design", ("Q", "R", "S", "K"))
        return cls(Q=np.array(doc["Q"]), R=doc["R"], S=np.array(doc["S"]), K=np.array(doc["K"]))


def design_lqr(ss: LinearStateSpace, Q, R: float) -> LqrDesign:
    """Solve the CARE for the linearized plant and validate the design:
    residual within tolerance and A - BK strictly Hurwitz."""
    Q = np.asarray(Q, dtype=float).reshape(4, 4)
    S, K = solve_care(ss.A, ss.B, Q, np.array([[float(R)]]))
    design = LqrDesign(Q=Q, R=float(R), S=S, K=K)
    eig = design.closed_loop_eigenvalues(ss)
    if np.any(eig.real >= 0.0):
        raise CareError(f"closed loop not Hurwitz: eigenvalues {eig}")
    return design


def _deviation(state: PlantState) -> tuple[float, float, float, float]:
    return (state.x, state.x_dot, state.theta - UPRIGHT_THETA, state.theta_dot)


class LqrController:
    """Stateless full-state feedback u = -K z around an `LqrDesign`.

    The product is ``np.dot(K, z)`` with K the (1, 4) gain row, a BLAS gemv
    in `command` and in the closed loop alike, so its last bits belong to
    the BLAS kernel that runs.  OpenBLAS's SkylakeX kernel gives
    bits that a Python left fold of the four products does not reproduce;
    its Nehalem, Sandybridge and Haswell kernels give the fold's bits.
    Every artifact downstream of stage 1 (dataset, model, table) carries the
    bits of the kernel it was made with.
    """

    def __init__(self, design: LqrDesign):
        self.design = design
        self._K = design.K

    def command(self, z: tuple[float, float, float, float], dt: float) -> float:
        return -np.dot(self._K, z).item()

    def law_source(self) -> tuple[str, dict]:
        return "u = -dot(K, (x, x_dot, phi, theta_dot)).item()", {"dot": np.dot, "K": self._K}

    def step(self, measured: PlantState, dt: float) -> float:
        return self.command(_deviation(measured), dt)


@dataclass(frozen=True)
class PidGains:
    """PI/PID gains; kd = 0 degenerates to PI regardless of filter_n."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0
    filter_n: float = 100.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {v!r}")
        if not (math.isfinite(self.filter_n) and self.filter_n > 0.0):
            raise ValueError(f"filter_n must be > 0, got {self.filter_n!r}")


class PidController:
    """SISO PI/PID regulating the pendulum angle only.

    The error is pi - theta, i.e. -z[2], so positive gains push the
    pendulum back upright; cart position never enters the command, which is
    why these controllers cannot regulate x.  Each update integrates the
    error by the trapezoidal rule and runs the derivative path through the
    filtered differentiator kd N s / (s + N), discretized with backward
    Euler:  d_k = (d_{k-1} + kd N (e_k - e_{k-1})) / (1 + N dt).
    ``integral``, ``prev_error`` and ``derivative`` hold that state, zero
    at construction; the closed loop runs the law through `command`.
    """

    def __init__(self, gains: PidGains):
        self.gains = gains
        self._kp, self._ki, self._n = gains.kp, gains.ki, gains.filter_n
        self._kd_n = gains.kd * gains.filter_n
        self.integral = self.prev_error = self.derivative = 0.0

    def command(self, z: tuple[float, float, float, float], dt: float) -> float:
        if not (dt > 0.0):
            raise ValueError(f"dt must be positive, got {dt!r}")
        error = -z[2]
        prev = self.prev_error
        self.integral = integral = self.integral + 0.5 * (error + prev) * dt
        self.derivative = derivative = (
            (self.derivative + self._kd_n * (error - prev)) / (1.0 + self._n * dt))
        self.prev_error = error
        return self._kp * error + self._ki * integral + derivative

    def step(self, measured: PlantState, dt: float) -> float:
        return self.command(_deviation(measured), dt)


class AnfisController:
    """Stateless policy wrapper: the trained model maps the deviation state
    (x, x', theta - pi, theta') straight to the voltage command.

    The model must take those 4 inputs, checked here rather than at the
    first step.  `command` calls the model's compiled `law`; the closed loop
    inlines the law's statements.
    """

    def __init__(self, model: AnfisModel):
        if model.n_inputs != 4:
            raise ValueError(f"TS-LA model must take the 4 deviation inputs, "
                             f"got {model.n_inputs}")
        self.model = model

    def command(self, z: tuple[float, float, float, float], dt: float) -> float:
        return self.model.law(*z)

    def law_source(self) -> tuple[str, dict]:
        return _law_source(self.model, ("x", "x_dot", "phi", "theta_dot"), "u"), {}

    def step(self, measured: PlantState, dt: float) -> float:
        return self.command(_deviation(measured), dt)
