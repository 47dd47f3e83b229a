"""Deterministic fixed-step closed-loop simulation.

One engine connects the nonlinear plant, a controller, a static
voltage-to-force actuator gain and an additive disturbance force.  The
integrator is classical fourth-order Runge-Kutta with the total force held
constant over each step (zero-order hold); this keeps runs bit-reproducible,
which the golden tests and the benchmark rely on.

A run terminates early with ``diverged=True`` as soon as any state component
leaves [-1e6, 1e6] or turns non-finite; the partial log is kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import numpy as np

from .plant import UPRIGHT_THETA, PhysicalParams, PlantState, derivative_fn

__all__ = [
    "DIVERGENCE_LIMIT",
    "SimConfig",
    "TimeSeries",
    "Controller",
    "rk4_step",
    "run_closed_loop",
]

DIVERGENCE_LIMIT = 1e6

CSV_HEADER = ["t", "x", "x_dot", "theta", "theta_dot", "u", "d"]


class Controller(Protocol):
    """Behavioural contract shared by all controllers.

    `step` maps the measured state to a voltage command under zero-order
    hold; `reset` returns any internal state (integrators, filters) to its
    construction-time values so a reset controller replays its first run
    exactly.
    """

    def step(self, measured: PlantState, dt: float) -> float: ...

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


def rk4_step(
    state: PlantState, u: float, d: float, dt: float, params: PhysicalParams
) -> PlantState:
    """One classical Runge-Kutta step with total force u + d held constant."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(u) and math.isfinite(d)):
        raise ValueError("non-finite force input")
    accel = derivative_fn(params)
    nxt = _rk4(accel, (state.x, state.x_dot, state.theta, state.theta_dot), u + d, dt)
    return PlantState(*nxt, t=state.t + dt)


def _rk4(accel, state, force, dt):
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
    config; identical inputs give bit-identical logs.
    """
    accel = derivative_fn(params)
    dt = config.dt
    gain = config.actuator_gain
    limit = DIVERGENCE_LIMIT
    n_steps = round(config.horizon / dt)
    t0 = config.initial_state.t

    state = (
        config.initial_state.x,
        config.initial_state.x_dot,
        config.initial_state.theta,
        config.initial_state.theta_dot,
    )
    rows: list[tuple[float, float, float, float, float, float, float]] = []
    diverged = False

    for i in range(n_steps + 1):
        t = t0 + i * dt
        if controller is not None:
            u = controller.step(PlantState(*state, t=t), dt)
        else:
            u = 0.0
        d = disturbance(t) if disturbance is not None else 0.0
        if i % config.log_decimation == 0:
            rows.append((t, *state, u, d))
        if i == n_steps:
            break
        state = _rk4(accel, state, gain * u + d, dt)
        x, x_dot, theta, theta_dot = state
        # NaN fails every comparison, so it counts as diverged too
        if not (-limit <= x <= limit and -limit <= x_dot <= limit
                and -limit <= theta <= limit and -limit <= theta_dot <= limit):
            diverged = True
            break

    data = np.array(rows, dtype=float).reshape(len(rows), 7)
    return TimeSeries(
        t=data[:, 0],
        x=data[:, 1],
        x_dot=data[:, 2],
        theta=data[:, 3],
        theta_dot=data[:, 4],
        u=data[:, 5],
        d=data[:, 6],
        diverged=diverged,
    )
