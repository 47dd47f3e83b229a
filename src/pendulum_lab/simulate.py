"""Deterministic fixed-step closed-loop simulation.

One engine connects the nonlinear plant, a controller, a static
voltage-to-force actuator gain and an additive disturbance force.  The
integrator is classical fourth-order Runge-Kutta with the total force held
constant over each step (zero-order hold); this keeps runs bit-reproducible,
which the golden tests and the benchmark rely on.

Every run steps on the grid ``t0 + i*dt`` (i = 0 .. n_steps).  A disturbance
is a force as a function of t, read once per grid time before the run, so
the loop itself reads forces by step index.  A run ends early, keeping its
partial log, at the first state past either of two bounds: ``fell=True``
once |theta - pi| > pi/2 (the first state past the horizontal is logged,
with its command, as the last row), and ``diverged=True`` once any
component leaves [-1e6, 1e6] or turns non-finite.  A state past both has
diverged.

`run_closed_loops` runs one controller under several disturbances and
simulates the stretch where their force grids agree (say, before an
impulse's onset) once, forking at the first step where they differ; each
log is bitwise the one `run_closed_loop` gives alone.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

from .plant import UPRIGHT_THETA, PhysicalParams, PlantState

__all__ = [
    "DIVERGENCE_LIMIT",
    "FALL_ANGLE",
    "SimConfig",
    "TimeSeries",
    "Controller",
    "rk4_stepper",
    "rk4_step",
    "run_closed_loop",
    "run_closed_loops",
]

DIVERGENCE_LIMIT = 1e6
FALL_ANGLE = math.pi / 2  # |theta - pi| past this: the pendulum fell

CSV_HEADER = ["t", "x", "x_dot", "theta", "theta_dot", "u", "d"]


class Controller(Protocol):
    """Behavioural contract shared by all controllers: `command` and `copy.copy`.

    `command` maps the deviation state ``z = (x, x', theta - pi, theta')``,
    a tuple of floats, to a voltage command under zero-order hold; it is the
    only law `run_closed_loop` calls, once per step.  `copy.copy` must
    capture any internal state (integrators, filters): `run_closed_loops`
    forks a run by shallow copies, and each copy must give exactly the
    commands the original would.  The shipped controllers hold only floats
    and immutable references, so they qualify.  A run starts from the state
    its controller is in, so a fresh run takes a freshly built controller.
    The shipped controllers also offer ``step(measured, dt)``, which takes a
    `PlantState` and forwards to `command`; it serves callers at the
    `PlantState` edge and is not part of this contract.
    """

    def command(self, z: tuple[float, float, float, float], dt: float) -> float: ...


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run settings.

    ``actuator_gain`` converts the controller's voltage command into force;
    the benchmark ships 1 N/V, keeping commands and forces interchangeable
    while leaving the knob explicit.  Logging keeps every
    ``log_decimation``-th step.
    """

    dt: float = 1e-3
    horizon: float = 40.0
    initial_state: PlantState = field(default_factory=PlantState)
    actuator_gain: float = 1.0
    log_decimation: int = 1

    def __post_init__(self) -> None:
        if not (0.0 < self.dt <= 0.01):
            raise ValueError(f"dt must be in (0, 0.01], got {self.dt!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ValueError(f"horizon must be >= dt, got {self.horizon!r}")
        if not (math.isfinite(self.actuator_gain) and self.actuator_gain > 0.0):
            raise ValueError(f"actuator_gain must be positive, got {self.actuator_gain!r}")
        if not (isinstance(self.log_decimation, int) and self.log_decimation >= 1):
            raise ValueError(f"log_decimation must be a positive integer, got {self.log_decimation!r}")


@dataclass(eq=False)
class TimeSeries:
    """Columnar log of a run: states, commanded voltage and disturbance force.

    ``u`` is the controller output (volts) before the actuator gain; ``d`` is
    the disturbance force.  ``diverged`` and ``fell`` mark a run that ended
    early, and why; its last row is its last logged step.
    """

    t: np.ndarray
    x: np.ndarray
    x_dot: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    u: np.ndarray
    d: np.ndarray
    diverged: bool = False
    fell: bool = False

    def __len__(self) -> int:
        return self.t.size

    def theta_deviation(self) -> np.ndarray:
        return self.theta - UPRIGHT_THETA

    def to_csv(self, path) -> None:
        """One header row, then one row per step: floats by ``repr``, comma
        separated, CRLF-terminated (the bytes `artifacts.write_csv` would write)."""
        columns = (self.t, self.x, self.x_dot, self.theta, self.theta_dot, self.u, self.d)
        table = np.column_stack(columns).astype(float, copy=False)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            # one row of Python floats at a time: a list of every row would
            # hold some 10 MB of float objects for a 40 s log at 1 ms
            fh.writelines(",".join(map(repr, row)) + "\r\n"
                          for row in map(np.ndarray.tolist, table))


def rk4_stepper(params: PhysicalParams, dt: float):
    """Return ``step(state, force) -> state``: one classical Runge-Kutta step
    of length dt on the tuple (x, x', theta, theta') with the force held.

    This is the loop's hot path, so the four stage accelerations are written
    out in place.  Each stage is `plant.derivative_fn`'s ``accel`` operation
    for operation, in the same order, so the result is bitwise that of RK4
    over ``accel``; the tests hold the two copies to that.
    """
    m_total = params.total_mass
    j_pivot = params.pivot_inertia
    ml = params.pend_mass * params.half_length
    neg_mgl = -(params.pend_mass * params.gravity * params.half_length)
    b = params.friction
    mj = m_total * j_pivot
    half = 0.5 * dt
    sixth = dt / 6.0
    sin, cos, pi = math.sin, math.cos, UPRIGHT_THETA

    def step(state, force):
        x, xd, th, thd = state

        phi = th - pi
        s = -sin(phi)
        c = -cos(phi)
        m12 = ml * c
        r1 = force - b * xd + ml * s * thd * thd
        r2 = neg_mgl * s
        det = mj - m12 * m12
        a1 = (j_pivot * r1 - m12 * r2) / det
        g1 = (m_total * r2 - m12 * r1) / det

        xd2 = xd + half * a1
        thd2 = thd + half * g1
        phi = th + half * thd - pi
        s = -sin(phi)
        c = -cos(phi)
        m12 = ml * c
        r1 = force - b * xd2 + ml * s * thd2 * thd2
        r2 = neg_mgl * s
        det = mj - m12 * m12
        a2 = (j_pivot * r1 - m12 * r2) / det
        g2 = (m_total * r2 - m12 * r1) / det

        xd3 = xd + half * a2
        thd3 = thd + half * g2
        phi = th + half * thd2 - pi
        s = -sin(phi)
        c = -cos(phi)
        m12 = ml * c
        r1 = force - b * xd3 + ml * s * thd3 * thd3
        r2 = neg_mgl * s
        det = mj - m12 * m12
        a3 = (j_pivot * r1 - m12 * r2) / det
        g3 = (m_total * r2 - m12 * r1) / det

        xd4 = xd + dt * a3
        thd4 = thd + dt * g3
        phi = th + dt * thd3 - pi
        s = -sin(phi)
        c = -cos(phi)
        m12 = ml * c
        r1 = force - b * xd4 + ml * s * thd4 * thd4
        r2 = neg_mgl * s
        det = mj - m12 * m12
        a4 = (j_pivot * r1 - m12 * r2) / det
        g4 = (m_total * r2 - m12 * r1) / det

        return (
            x + sixth * (xd + 2.0 * (xd2 + xd3) + xd4),
            xd + sixth * (a1 + 2.0 * (a2 + a3) + a4),
            th + sixth * (thd + 2.0 * (thd2 + thd3) + thd4),
            thd + sixth * (g1 + 2.0 * (g2 + g3) + g4),
        )

    return step


def rk4_step(
    state: PlantState, u: float, d: float, dt: float, params: PhysicalParams
) -> PlantState:
    """One classical Runge-Kutta step with total force u + d held constant."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(u) and math.isfinite(d)):
        raise ValueError("non-finite force input")
    nxt = rk4_stepper(params, dt)(
        (state.x, state.x_dot, state.theta, state.theta_dot), u + d)
    return PlantState(*nxt, t=state.t + dt)


def _advance(config: SimConfig, step, state, start: int, stop: int, command, forces,
             rows: list):
    """Run the loop over steps ``start .. stop - 1`` from ``state``, the plant
    state entering step ``start``, under ``forces[i]`` at step i, appending
    the logged (x, x', theta, theta', u) to ``rows``.

    Returns ``(outcome, i, state)``: the run stands at step i in ``state``.
    The outcome is None if the run reached step ``stop`` (or the grid's last
    step), else "fell" or "diverged" with the first state past the bounds.
    Step i logs when ``i % log_decimation == 0`` whichever call runs it, so a
    run split across calls logs the steps of one call; a fallen state logs
    whatever its step.
    """
    dt = config.dt
    gain = config.actuator_gain
    decimation = config.log_decimation
    limit = DIVERGENCE_LIMIT
    low, high = UPRIGHT_THETA - FALL_ANGLE, UPRIGHT_THETA + FALL_ANGLE
    last = len(forces) - 1
    x, x_dot, theta, theta_dot = state

    for i in range(start, stop):
        if command is not None:
            u = command((x, x_dot, theta - UPRIGHT_THETA, theta_dot), dt)
        else:
            u = 0.0
        if i % decimation == 0:
            rows.append((x, x_dot, theta, theta_dot, u))
        if i == last:
            return None, i, (x, x_dot, theta, theta_dot)
        x, x_dot, theta, theta_dot = step((x, x_dot, theta, theta_dot), gain * u + forces[i])
        # one test for both ends: NaN fails every comparison, so it leaves the box too
        if not (-limit <= x <= limit and -limit <= x_dot <= limit
                and low <= theta <= high and -limit <= theta_dot <= limit):
            state = (x, x_dot, theta, theta_dot)
            if not all(-limit <= v <= limit for v in state):
                return "diverged", i + 1, state
            if command is not None:
                u = command((x, x_dot, theta - UPRIGHT_THETA, theta_dot), dt)
            else:
                u = 0.0
            rows.append((*state, u))
            return "fell", i + 1, state
    return None, stop, (x, x_dot, theta, theta_dot)


def _table(rows: list) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), 5)


def _series(data: np.ndarray, times: np.ndarray, forces: np.ndarray, decimation: int,
            outcome: Optional[str], end: int) -> TimeSeries:
    """The series of the (x, x', theta, theta', u) rows ``data``, logged at steps
    0, decimation, 2*decimation, ... and, for a fallen run, at its last step
    ``end``; its t and d columns are the grid's values at those steps."""
    logged = np.arange(0, len(data) * decimation, decimation)
    if outcome == "fell":
        logged[-1] = end
    table = np.column_stack((times[logged], data, forces[logged]))
    return TimeSeries(*table.T, diverged=outcome == "diverged", fell=outcome == "fell")


def run_closed_loops(
    config: SimConfig,
    controller: Optional[Controller],
    disturbances: Sequence[Optional[Callable[[float], float]]],
    params: PhysicalParams,
) -> Iterator[TimeSeries]:
    """Run one closed loop per disturbance, sharing the stretch where they agree.

    Yields one `TimeSeries` per disturbance, in order, each bitwise the log
    `run_closed_loop` gives for that disturbance and a controller in the
    state ``controller`` is in now.  Each disturbance is read once, at every
    time ``t0 + i*dt`` of the step grid (i = 0 .. n_steps), into a force grid;
    None reads as zeros.  Forces depend only on t, so this reads them ahead
    of the run.  A single trajectory runs up to the first step where the
    grids' float64 bits differ (so 0.0 and -0.0 differ); there the run forks.
    Each branch resumes at that step with its own `copy.copy` of the
    controller, taken before that step's command (see `Controller`).  A run
    that falls, diverges or ends before the fork gives every disturbance the
    same states and commands; the d column is each disturbance's own.  The
    shared rows are kept once; each series is built just before it is
    yielded, so a caller that drops each series before asking for the next
    holds one at a time.
    """
    disturbances = list(disturbances)
    if not disturbances:
        return
    step = rk4_stepper(params, config.dt)
    n_steps = round(config.horizon / config.dt)
    initial = config.initial_state
    times = initial.t + np.arange(n_steps + 1) * config.dt
    grid = times.tolist()
    forces = np.array([[0.0] * len(grid) if f is None else list(map(f, grid))
                       for f in disturbances], dtype=float)
    bits = forces.view(np.int64)
    differ = np.flatnonzero((bits != bits[0]).any(axis=0))
    fork = int(differ[0]) if differ.size else n_steps + 1
    decimation = config.log_decimation
    command = controller.command if controller is not None else None

    rows: list = []
    outcome, end, state = _advance(
        config, step, (initial.x, initial.x_dot, initial.theta, initial.theta_dot),
        0, fork, command, forces[0].tolist(), rows)
    if outcome is not None or fork > n_steps:
        for row in forces:
            yield _series(_table(rows), times, row, decimation, outcome, end)
        return

    shared = _table(rows)
    del rows
    branches = [copy.copy(controller) for _ in disturbances]
    for branch, row in zip(branches, forces):
        rows = []
        outcome, end, _ = _advance(config, step, state, fork, n_steps + 1,
                                   branch.command if branch is not None else None,
                                   row.tolist(), rows)
        data = np.concatenate((shared, _table(rows)))
        del rows
        yield _series(data, times, row, decimation, outcome, end)
        del data  # so the branch is freed once the caller drops its series


def run_closed_loop(
    config: SimConfig,
    controller: Optional[Controller],
    disturbance: Optional[Callable[[float], float]],
    params: PhysicalParams,
) -> TimeSeries:
    """Simulate the loop: measure -> command -> actuate -> disturb -> step.

    At each step the controller reads the full state and emits a voltage,
    the actuator scales it to force, the disturbance force is added and the
    plant advances by dt.  ``controller=None`` runs open loop and
    ``disturbance=None`` means no disturbance.  The log is decimated per the
    config; identical inputs give bit-identical logs.  This is
    `run_closed_loops` with one disturbance.
    """
    return next(run_closed_loops(config, controller, [disturbance], params))
