"""Physical model of the cart-inverted-pendulum.

The plant is a cart of mass ``m_c`` sliding on a rail with viscous friction
``b``, carrying a pendulum of mass ``m_p`` pivoted at the cart.  ``l`` is the
distance from the pivot to the pendulum's centre of mass and ``J`` its moment
of inertia about that centre.  The pendulum angle ``theta`` is measured so
that ``theta = 0`` is the hanging (stable) position and ``theta = pi`` is the
upright (unstable) position that all controllers in this package regulate.

Writing ``s = sin(theta)``, ``c = cos(theta)``, the equations of motion are
the standard cart-pole pair

    (m_c + m_p) x'' + m_p l c theta''  =  u - b x' + m_p l s theta'^2
    m_p l c x'' + (J + m_p l^2) theta''  =  -m_p g l s

with ``u`` the horizontal force on the cart.  Both equilibria follow from
``s = 0``; the upright one is exponentially unstable.

All linear-model operations (``linearize``, ``transfer_functions``) work in
the deviation coordinate ``phi = theta - pi`` about the upright equilibrium.
Trigonometric terms are evaluated relative to the float constant ``math.pi``,
so a state constructed with ``theta=math.pi`` sits *exactly* on the
equilibrium: the derivative is identically zero, not zero up to rounding.

Everything in this module is a pure function of its inputs; the dataclasses
are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .artifacts import _frozen, bounded, check_domains, write_csv

__all__ = [
    "UPRIGHT_THETA",
    "PhysicalParams",
    "PlantState",
    "LinearStateSpace",
    "TransferFunction",
    "Controllability",
    "derivative_fn",
    "linearize",
    "transfer_functions",
    "poles",
    "controllability",
    "ctrb",
    "root_locus_sweep",
    "write_poles_csv",
    "write_locus_csv",
]

# Upright reference angle.  The float constant itself defines the equilibrium.
UPRIGHT_THETA = math.pi


@dataclass(frozen=True)
class PhysicalParams:
    """Cart/pendulum parameters (SI units).

    Defaults are the benchmark values used throughout this package, with the
    pendulum inertia J = m_p * l^2 / 3 = 0.006 kg m^2 of a uniform rod of
    half-length l about its end.  (A common alternative of 0.06 is an order
    of magnitude too large to match the benchmark pole locations; J stays a
    free parameter.)
    """

    cart_mass: float = bounded(0.5, gt=0.0)
    pend_mass: float = bounded(0.2, gt=0.0)
    friction: float = bounded(0.1, ge=0.0)
    inertia: float = bounded(0.006, gt=0.0)
    half_length: float = bounded(0.3, gt=0.0)
    gravity: float = bounded(9.8, gt=0.0)

    def __post_init__(self) -> None:
        check_domains(self)
        if self.alpha <= 0.0:
            raise ValueError(f"degenerate inertia: alpha = {self.alpha!r} <= 0")

    @property
    def total_mass(self) -> float:
        return self.cart_mass + self.pend_mass

    @property
    def pivot_inertia(self) -> float:
        """Pendulum inertia about the pivot, J + m_p l^2."""
        return self.inertia + self.pend_mass * self.half_length**2

    @property
    def alpha(self) -> float:
        """(m_c + m_p)(J + m_p l^2) - (m_p l)^2, the mass-matrix determinant
        at the vertical positions.  Positive whenever J > 0."""
        return self.total_mass * self.pivot_inertia - (self.pend_mass * self.half_length) ** 2


@dataclass(frozen=True)
class PlantState:
    """Full plant state (x, x', theta, theta') at time t."""

    x: float = 0.0
    x_dot: float = 0.0
    theta: float = UPRIGHT_THETA
    theta_dot: float = 0.0
    t: float = 0.0

    def __post_init__(self) -> None:
        for name in ("x", "x_dot", "theta", "theta_dot", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite state component {name}")

    def deviation(self) -> np.ndarray:
        """State relative to the upright equilibrium: (x, x', theta - pi, theta')."""
        return np.array([self.x, self.x_dot, self.theta - UPRIGHT_THETA, self.theta_dot])


@dataclass(frozen=True, eq=False)
class LinearStateSpace:
    """Matrices (A, B) of the plant linearized about upright, for the
    deviation state (x, x', theta - pi, theta')."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        A, B = _frozen(self.A), _frozen(self.B, shape=(4, 1))
        if A.shape != (4, 4):
            raise ValueError(f"A must be 4x4, got {A.shape}")
        for arr, name in ((A, "A"), (B, "B")):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class TransferFunction:
    """Polynomial ratio in s; coefficients in descending powers."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self) -> None:
        num = tuple(float(c) for c in self.numerator)
        den = tuple(float(c) for c in self.denominator)
        if not den or den[0] == 0.0:
            raise ValueError("leading denominator coefficient must be nonzero")
        if not all(math.isfinite(c) for c in num + den):
            raise ValueError("non-finite transfer-function coefficient")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)


def derivative_fn(params: PhysicalParams):
    """Return ``accel(x_dot, theta, theta_dot, force) -> (x_dd, theta_dd)``
    with the parameters bound.

    The accelerations solve the 2x2 mass-matrix system

        [m_c+m_p      m_p l cos(theta)] [x''    ]   [u - b x' + m_p l sin(theta) theta'^2]
        [m_p l cos..  J + m_p l^2     ] [theta'']   [-m_p g l sin(theta)                 ]

    whose determinant is positive for every theta when J > 0.  `accel` is
    the bitwise reference of the RK4 stage that `simulate` generates from it.
    """
    m_total = params.total_mass
    j_pivot = params.pivot_inertia
    ml = params.pend_mass * params.half_length
    mgl = params.pend_mass * params.gravity * params.half_length
    b = params.friction

    def accel(x_dot: float, theta: float, theta_dot: float, force: float):
        # evaluated about the upright constant, so theta == UPRIGHT_THETA gives
        # sin == 0.0 exactly and the equilibrium is a true fixed point in floats
        phi = theta - UPRIGHT_THETA
        s, c = -math.sin(phi), -math.cos(phi)
        m12 = ml * c
        r1 = force - b * x_dot + ml * s * theta_dot * theta_dot
        r2 = -mgl * s
        det = m_total * j_pivot - m12 * m12
        x_dd = (j_pivot * r1 - m12 * r2) / det
        theta_dd = (m_total * r2 - m12 * r1) / det
        return x_dd, theta_dd

    return accel


def linearize(params: PhysicalParams) -> LinearStateSpace:
    """Linear model about the upright equilibrium, deviation state
    (x, x', theta - pi, theta').

    The closed forms below agree with the numeric Jacobian of
    `derivative_fn` at (0, 0, pi, 0) to rounding; the sign convention
    is fixed by that Jacobian.
    """
    a = params.alpha
    j_pivot = params.pivot_inertia
    ml = params.pend_mass * params.half_length
    mgl = params.pend_mass * params.gravity * params.half_length
    b = params.friction

    a1 = -j_pivot * b / a
    a2 = ml * mgl / a
    a3 = -ml * b / a
    a4 = params.total_mass * mgl / a
    a5 = j_pivot / a
    a6 = ml / a

    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [0.0, a1, a2, 0.0],
                  [0.0, 0.0, 0.0, 1.0],
                  [0.0, a3, a4, 0.0]])
    B = np.array([[0.0], [a5], [0.0], [a6]])
    return LinearStateSpace(A=A, B=B)


def transfer_functions(params: PhysicalParams) -> tuple[TransferFunction, TransferFunction]:
    """(cart, pendulum) transfer functions from cart force, monic denominators.

    Eliminating one output from the Laplace transform of the linearized pair
    gives the strictly proper third-order angle response

        phi(s)/U(s) = (m_p l / alpha) s
                      / (s^3 + b(J+m_p l^2)/alpha s^2
                             - (m_c+m_p) m_p g l / alpha s - b m_p g l / alpha)

    and the cart response with the same cubic times an extra integrator pole:

        X(s)/U(s) = ((J+m_p l^2) s^2 - m_p g l) / alpha / (s * cubic).
    """
    a = params.alpha
    j_pivot = params.pivot_inertia
    ml = params.pend_mass * params.half_length
    mgl = params.pend_mass * params.gravity * params.half_length
    b = params.friction

    cubic = (1.0, b * j_pivot / a, -params.total_mass * mgl / a, -b * mgl / a)
    pendulum = TransferFunction((ml / a, 0.0), cubic)
    cart = TransferFunction((j_pivot / a, 0.0, -mgl / a), cubic + (0.0,))
    return cart, pendulum


def _polynomial_roots(coeffs: Sequence[float]) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size == 0 or not np.any(coeffs):
        raise ValueError("zero polynomial has no well-defined roots")
    coeffs = np.trim_zeros(coeffs, "f")
    if coeffs.size < 2:
        raise ValueError("polynomial degree must be >= 1")
    # numpy computes these as companion-matrix eigenvalues
    return np.roots(coeffs)


def poles(tf: TransferFunction) -> np.ndarray:
    """All denominator roots, sorted by real part then imaginary part.

    Each returned root r satisfies |p(r)| <= 1e-9 relative to the coefficient
    magnitude (scaled by max(1, |r|)^degree); a violation raises, since it
    indicates an ill-conditioned denominator rather than a plant property.
    """
    roots = _polynomial_roots(tf.denominator)
    den = np.asarray(tf.denominator, dtype=float)
    scale = np.max(np.abs(den))
    degree = den.size - 1
    for r in roots:
        residual = abs(np.polyval(den, r))
        bound = 1e-9 * scale * max(1.0, abs(r)) ** degree
        if residual > bound:
            raise ArithmeticError(
                f"root residual {residual:.3e} exceeds bound {bound:.3e} at {r}"
            )
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


class Controllability(NamedTuple):
    matrix: np.ndarray
    rank: int
    det: float


def ctrb(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Controllability matrix [B | AB | ... | A^(n-1) B] for any (A, B)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def controllability(ss: LinearStateSpace) -> Controllability:
    """Controllability matrix of the linearized plant with a numerically
    tolerant rank (singular values below 1e-8 * sigma_max count as zero)."""
    co = ctrb(ss.A, ss.B)
    sigma = np.linalg.svd(co, compute_uv=False)
    tol = 1e-8 * sigma[0] if sigma[0] > 0 else 0.0
    rank = int(np.sum(sigma > tol))
    return Controllability(matrix=co, rank=rank, det=float(np.linalg.det(co)))


def root_locus_sweep(
    tf: TransferFunction, gains: Iterable[float]
) -> list[tuple[float, np.ndarray]]:
    """Closed-loop poles (roots of den + k num) for each feedback gain k >= 0."""
    den = np.asarray(tf.denominator, dtype=float)
    num = np.zeros_like(den)
    offset = den.size - len(tf.numerator)
    if offset < 0:
        raise ValueError("improper transfer function")
    num[offset:] = tf.numerator
    rows = []
    for k in gains:
        k = float(k)
        if not (math.isfinite(k) and k >= 0.0):
            raise ValueError(f"gains must be finite and non-negative, got {k!r}")
        rows.append((k, _polynomial_roots(den + k * num)))
    return rows


def write_poles_csv(path, labelled_poles: Iterable[tuple[str, complex]]) -> None:
    """Write (label, real, imag) pole rows with a header."""
    write_csv(path, ["label", "real", "imag"],
              ([label, repr(float(p.real)), repr(float(p.imag))] for label, p in labelled_poles))


def write_locus_csv(path, rows: Iterable[tuple[float, np.ndarray]]) -> None:
    """Write root-locus rows as (gain, root_index, real, imag) with a header."""
    write_csv(path, ["gain", "root_index", "real", "imag"],
              ([repr(float(gain)), i, repr(float(r.real)), repr(float(r.imag))]
               for gain, roots in rows for i, r in enumerate(roots)))
