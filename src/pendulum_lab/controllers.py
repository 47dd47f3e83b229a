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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .anfis import AnfisModel, _law_source
from .artifacts import _number, bounded, check_domains, read_json, write_json
from .plant import UPRIGHT_THETA, LinearStateSpace, PlantState, ctrb
from .simulate import _law_command

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
    """Weights, Riccati solution and gain row of one LQR design, every entry finite."""

    Q: np.ndarray
    R: float
    S: np.ndarray
    K: np.ndarray

    def __post_init__(self) -> None:
        for name, shape in (("Q", (4, 4)), ("S", (4, 4)), ("K", (1, 4))):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "R", float(self.R))
        if not (np.isfinite(self.R) and all(np.isfinite(getattr(self, n)).all() for n in "QSK")):
            raise ValueError("non-finite entry in the LQR design")

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
        """The design `to_json` wrote; anything else (``true``, ``NaN``) is a ValueError."""
        doc = read_json(path, "LQR design", ("Q", "R", "S", "K"))
        try:
            Q, S, K = (np.array([[_number(v) for v in row] for row in doc[key]], dtype=float)
                       for key in "QSK")
            return cls(Q=Q, R=_number(doc["R"]), S=S, K=K)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed LQR design file {path}: {exc}") from exc


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


def _command(self, z: tuple[float, float, float, float], dt: float) -> float:
    """Every controller's `command`: its ``law_source()``, compiled on the first call."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    try:
        law = self._law
    except AttributeError:
        law = self._law = _law_command(self.law_source(), type(self).__name__)
    return law(self, z, dt)


def _step(self, measured: PlantState, dt: float) -> float:
    """`command` on the deviation of ``measured`` from upright."""
    return self.command((measured.x, measured.x_dot, measured.theta - UPRIGHT_THETA,
                         measured.theta_dot), dt)


class LqrController:
    """Stateless full-state feedback u = -K z around an `LqrDesign`.

    The product is numpy's ``dot`` of K, the (1, 4) gain row, with z: a BLAS
    gemv in `command` and in the closed loop alike, so its last bits belong to
    the BLAS kernel that runs.  OpenBLAS's SkylakeX kernel gives the bits
    of the FMA chain ``fma(k3, z3, fma(k2, z2, fma(k1, z1, k0 * z0)))``
    (checked in exact rational arithmetic on the 20 001 distinct states of
    a default LQR impulse log and 10 000 random ones), which a Python left
    fold of the four products does not reproduce; its Nehalem, Sandybridge
    and Haswell kernels give the fold's bits.
    Every artifact downstream of stage 1 (dataset, model, table) carries the
    bits of the kernel it was made with.
    """

    def __init__(self, design: LqrDesign):
        self.design = design

    def law_source(self) -> tuple[str, dict, tuple]:
        return ("u = -dot(K, (x, x_dot, phi, theta_dot)).item()",
                {"dot": np.dot, "K": self.design.K}, ())

    command = _command
    step = _step


@dataclass(frozen=True)
class PidGains:
    """PI/PID gains; kd = 0 degenerates to PI regardless of filter_n."""

    kp: float = bounded(ge=0.0)
    ki: float = bounded(0.0, ge=0.0)
    kd: float = bounded(0.0, ge=0.0)
    filter_n: float = bounded(100.0, gt=0.0)

    def __post_init__(self) -> None:
        check_domains(self)


# PID's update, written once: `command` compiles it, the closed loop inlines it
_PID_LAW = """\
error = -phi
integral = integral + 0.5 * (error + prev_error) * dt
derivative = (derivative + {kd!r} * {filter_n!r} * (error - prev_error)) / (1.0 + {filter_n!r} * dt)
prev_error = error
u = {kp!r} * error + {ki!r} * integral + derivative"""


class PidController:
    """SISO PI/PID regulating the pendulum angle only.

    The error is pi - theta, i.e. -z[2], so positive gains push the
    pendulum back upright; cart position never enters the command, which is
    why these controllers cannot regulate x.  Each update integrates the
    error by the trapezoidal rule and runs the derivative path through the
    filtered differentiator kd N s / (s + N), discretized with backward
    Euler:  d_k = (d_{k-1} + kd N (e_k - e_{k-1})) / (1 + N dt).
    ``integral``, ``prev_error`` and ``derivative`` hold that state, zero
    at construction; `law_source` gives the update over locals of theirs.
    """

    def __init__(self, gains: PidGains):
        self.gains = gains
        self.integral = self.prev_error = self.derivative = 0.0

    def law_source(self) -> tuple[str, dict, tuple]:
        gains = {name: float(value) for name, value in vars(self.gains).items()}
        return _PID_LAW.format(**gains), {}, ("integral", "prev_error", "derivative")

    command = _command
    step = _step


class AnfisController:
    """Stateless policy wrapper: the trained model maps the deviation state
    (x, x', theta - pi, theta') straight to the voltage command.

    The model must take those 4 inputs, checked here rather than at the
    first step.  `law_source` gives the model's law over the deviation state,
    which `command` compiles and the closed loop inlines.
    """

    def __init__(self, model: AnfisModel):
        if model.n_inputs != 4:
            raise ValueError(f"TS-LA model must take the 4 deviation inputs, "
                             f"got {model.n_inputs}")
        self.model = model

    def law_source(self) -> tuple[str, dict, tuple]:
        return _law_source(self.model, ("x", "x_dot", "phi", "theta_dot"), "u"), {}, ()

    command = _command
    step = _step
