"""Deterministic fixed-step closed-loop simulation.

One engine connects the nonlinear plant, a controller, a static
voltage-to-force actuator gain and an additive disturbance force.  The
integrator is classical fourth-order Runge-Kutta with the total force held
constant over each step (zero-order hold); this keeps runs bit-reproducible,
which the golden tests and the benchmark rely on.

A run terminates early with ``diverged=True`` as soon as any state component
leaves [-1e6, 1e6] or turns non-finite; the partial log is kept.

`run_closed_loops` runs one controller under several disturbances and
simulates the stretch where their forces agree (say, before an impulse's
onset) once, forking where they first differ; each log is bitwise the one
`run_closed_loop` gives alone.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Protocol, Sequence

import numpy as np

from .plant import UPRIGHT_THETA, PhysicalParams, PlantState

__all__ = [
    "DIVERGENCE_LIMIT",
    "SimConfig",
    "TimeSeries",
    "Controller",
    "rk4_stepper",
    "rk4_step",
    "run_closed_loop",
    "run_closed_loops",
]

DIVERGENCE_LIMIT = 1e6

CSV_HEADER = ["t", "x", "x_dot", "theta", "theta_dot", "u", "d"]


class Controller(Protocol):
    """Behavioural contract shared by all controllers.

    `command` maps the deviation state ``z = (x, x', theta - pi, theta')``,
    a tuple of floats, to a voltage command under zero-order hold; it is the
    only law `run_closed_loop` calls, once per step, so a controller must
    implement it.  `reset` returns any internal state (integrators, filters)
    to its construction-time values so a reset controller replays its first
    run exactly.  `copy.copy` must capture that state: `run_closed_loops`
    forks a run by shallow copies, and each copy must give exactly the
    commands the original would.  The shipped controllers hold only floats
    and immutable references, so they qualify.  They also offer
    ``step(measured, dt)``, which takes a `PlantState` and forwards to
    `command`; it serves callers at the `PlantState` edge and is not part of
    this contract.
    """

    def command(self, z: tuple[float, float, float, float], dt: float) -> float: ...

    def reset(self) -> None: ...


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


@dataclass
class TimeSeries:
    """Columnar log of a run: states, commanded voltage and disturbance force.

    ``u`` is the controller output (volts) before the actuator gain; ``d`` is
    the disturbance force.  ``diverged`` marks truncated runs.
    """

    t: np.ndarray
    x: np.ndarray
    x_dot: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    u: np.ndarray
    d: np.ndarray
    diverged: bool = False

    def __len__(self) -> int:
        return self.t.size

    def theta_deviation(self) -> np.ndarray:
        return self.theta - UPRIGHT_THETA

    def to_csv(self, path) -> None:
        """One header row, then one row per step: floats by ``repr``, comma
        separated, CRLF-terminated (the bytes `csv.writer` would write)."""
        columns = (self.t, self.x, self.x_dot, self.theta, self.theta_dot, self.u, self.d)
        table = np.column_stack(columns).astype(float, copy=False)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            # one row of Python floats at a time: a list of every row would
            # hold some 10 MB of float objects for a 40 s log at 1 ms
            fh.writelines(",".join(map(repr, row)) + "\r\n"
                          for row in map(np.ndarray.tolist, table))

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected time-series header {header!r}")
            data = np.array([[float(v) for v in row] for row in reader])
        if data.size == 0:
            data = data.reshape(0, len(CSV_HEADER))
        return cls(*(data[:, i].copy() for i in range(len(CSV_HEADER))))


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


def _fork_step(disturbances, t0: float, dt: float, n_steps: int) -> int:
    """First step at which two of the disturbances give forces with different
    bits (0.0 and -0.0 differ, NaN differs from itself); ``n_steps + 1`` when
    they agree throughout, which one disturbance always does.  Disturbances
    depend only on t, so they can be read ahead of the run."""
    if len(disturbances) < 2:
        return n_steps + 1
    first, *rest = (f if f is not None else _no_force for f in disturbances)
    copysign = math.copysign
    for i in range(n_steps + 1):
        t = t0 + i * dt
        d = first(t)
        for force in rest:
            e = force(t)
            if not (e == d and copysign(1.0, e) == copysign(1.0, d)):
                return i
    return n_steps + 1


def _no_force(t: float) -> float:
    return 0.0


def _advance(config: SimConfig, step, state, start: int, stop: int, command, disturbance,
             rows: list):
    """Run the loop over steps ``start .. stop - 1`` from ``state``, the plant
    state entering step ``start``, appending logged rows to ``rows``.

    Returns the state entering step ``stop``, or None once the run has
    diverged.  Step i runs at ``t0 + i*dt`` whichever call runs it, so a run
    split across calls has the bits of one call over the whole horizon.
    """
    dt = config.dt
    gain = config.actuator_gain
    decimation = config.log_decimation
    limit = DIVERGENCE_LIMIT
    n_steps = round(config.horizon / dt)
    t0 = config.initial_state.t
    x, x_dot, theta, theta_dot = state

    for i in range(start, stop):
        t = t0 + i * dt
        d = disturbance(t) if disturbance is not None else 0.0
        if command is not None:
            u = command((x, x_dot, theta - UPRIGHT_THETA, theta_dot), dt)
        else:
            u = 0.0
        if i % decimation == 0:
            rows.append((t, x, x_dot, theta, theta_dot, u, d))
        if i == n_steps:
            break
        x, x_dot, theta, theta_dot = step((x, x_dot, theta, theta_dot), gain * u + d)
        # NaN fails every comparison, so it counts as diverged too
        if not (-limit <= x <= limit and -limit <= x_dot <= limit
                and -limit <= theta <= limit and -limit <= theta_dot <= limit):
            return None
    return x, x_dot, theta, theta_dot


def _series(data: np.ndarray, diverged: bool) -> TimeSeries:
    return TimeSeries(*(data[:, k] for k in range(len(CSV_HEADER))), diverged=diverged)


def _table(rows: list) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), len(CSV_HEADER))


def run_closed_loops(
    config: SimConfig,
    controller: Optional[Controller],
    disturbances: Sequence[Optional[Callable[[float], float]]],
    params: PhysicalParams,
) -> Iterator[TimeSeries]:
    """Run one closed loop per disturbance, sharing the stretch where they agree.

    Yields one `TimeSeries` per disturbance, in order, each bitwise the log
    `run_closed_loop` gives for that disturbance and a controller in the
    state ``controller`` is in now.  A single trajectory runs while every
    disturbance returns the same force bits; at the first step where two
    differ, the run forks.  Each branch resumes at that step index with its
    own `copy.copy` of the controller, taken before that step's command, so
    the controller must keep its state in what `copy.copy` copies (see
    `Controller`).  A run that diverges, or ends, before the fork gives every
    disturbance the same log.  The shared rows are kept once; each series is
    built just before it is yielded, so a caller that drops each series
    before asking for the next holds one at a time.
    """
    disturbances = list(disturbances)
    if not disturbances:
        return
    step = rk4_stepper(params, config.dt)
    n_steps = round(config.horizon / config.dt)
    initial = config.initial_state
    fork = _fork_step(disturbances, initial.t, config.dt, n_steps)
    command = controller.command if controller is not None else None

    rows: list = []
    state = _advance(config, step, (initial.x, initial.x_dot, initial.theta, initial.theta_dot),
                     0, fork, command, disturbances[0], rows)
    if state is None or fork > n_steps:
        for _ in disturbances:
            yield _series(_table(rows), diverged=state is None)
        return

    shared = _table(rows)
    del rows
    branches = [copy.copy(controller) for _ in disturbances]
    for branch, disturbance in zip(branches, disturbances):
        rows = []
        end = _advance(config, step, state, fork, n_steps + 1,
                       branch.command if branch is not None else None, disturbance, rows)
        data = np.concatenate((shared, _table(rows)))
        del rows
        yield _series(data, diverged=end is None)
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
