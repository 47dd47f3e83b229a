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

Each `run_closed_loops` call compiles one loop function for its controller's
kind (`_loop`), as `anfis.AnfisModel.law` is compiled: the four RK4 stages,
the bound test and the logging are inline, every parameter a literal.  So is
the law of a stateless controller (LQR, TS-LA); any other (PI, PID) runs
through its own `command`.
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
    a tuple of floats, to a voltage command under zero-order hold; the loop
    calls it once per step.  `copy.copy` must capture any internal state:
    `run_closed_loops` forks a run by shallow copies, and each copy must
    give exactly the commands the original would.  A run starts from the
    state its controller is in, so a fresh run takes a freshly built
    controller.  A controller may also offer ``law_source()``, statements
    with `command`'s bits that the loop inlines in place of the call (see
    `_loop`); they write no state back, so only a law without state may
    offer one.  The shipped controllers also offer ``step(measured, dt)``,
    which takes a `PlantState` and forwards to `command`; it is not part of
    this contract.
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


def _rk4_constants(params: PhysicalParams, dt: float) -> dict:
    ml = params.pend_mass * params.half_length
    return {"neg_ml": -ml, "b": params.friction,
            "mgl": params.pend_mass * params.gravity * params.half_length,
            "mj": params.total_mass * params.pivot_inertia, "j": params.pivot_inertia,
            "m": params.total_mass, "pi": UPRIGHT_THETA, "half": 0.5 * dt, "dt": dt,
            "sixth": dt / 6.0}


_STAGE = """\
sn = sin(phi)
m12 = {neg_ml} * cos(phi)
r1 = force - {b} * {xd} + {neg_ml} * sn * {thd} * {thd}
r2 = {mgl} * sn
det = {mj} - m12 * m12
a{n} = ({j} * r1 - m12 * r2) / det
g{n} = ({m} * r2 - m12 * r1) / det"""


def _rk4_lines(c: dict) -> list[str]:
    """Lines of one RK4 step of (x, x_dot, theta, theta_dot) under ``force``,
    entered with ``phi = theta - pi``; ``c`` maps `_rk4_constants`' keys to text.

    `_STAGE` is `plant.derivative_fn`'s ``accel`` with its sign flips folded
    into the constants (``neg_ml * cos`` for ``ml * -cos``, ``mgl * sin`` for
    ``-mgl * -sin``): negation is exact, so the step is bitwise RK4 over ``accel``.
    """
    lines = _STAGE.format(n=1, xd="x_dot", thd="theta_dot", **c).splitlines()
    for n, h, thd in ((2, c["half"], "theta_dot"), (3, c["half"], "thd2"), (4, c["dt"], "thd3")):
        lines += [f"xd{n} = x_dot + {h} * a{n - 1}", f"thd{n} = theta_dot + {h} * g{n - 1}",
                  f"phi = theta + {h} * {thd} - {c['pi']}"]
        lines += _STAGE.format(n=n, xd=f"xd{n}", thd=f"thd{n}", **c).splitlines()
    # x and theta first: their updates read the old x_dot and theta_dot
    return lines + [f"x = x + {c['sixth']} * (x_dot + 2.0 * (xd2 + xd3) + xd4)",
                    f"x_dot = x_dot + {c['sixth']} * (a1 + 2.0 * (a2 + a3) + a4)",
                    f"theta = theta + {c['sixth']} * (theta_dot + 2.0 * (thd2 + thd3) + thd4)",
                    f"theta_dot = theta_dot + {c['sixth']} * (g1 + 2.0 * (g2 + g3) + g4)"]


def _compiled(source, name: str, constants: dict):
    # globals that do not hold the function: it forms no reference cycle
    defined: dict = {}
    exec(source, {"sin": math.sin, "cos": math.cos, **constants}, defined)
    return defined[name]


_STEP = compile("\n    ".join([
    "def step(state, force):", "x, x_dot, theta, theta_dot = state", "phi = theta - pi",
    *_rk4_lines({name: name for name in _rk4_constants(PhysicalParams(), 1.0)}),
    "return x, x_dot, theta, theta_dot\n"]), "<rk4 step>", "exec")


def rk4_step(
    state: PlantState, u: float, d: float, dt: float, params: PhysicalParams
) -> PlantState:
    """One classical Runge-Kutta step with total force u + d held constant: the
    loop's `_rk4_lines`, compiled once as `_STEP`, with the constants as globals."""
    if not (dt > 0.0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    if not (math.isfinite(u) and math.isfinite(d)):
        raise ValueError("non-finite force input")
    step = _compiled(_STEP, "step", _rk4_constants(params, dt))
    nxt = step((state.x, state.x_dot, state.theta, state.theta_dot), u + d)
    return PlantState(*nxt, t=state.t + dt)


_LOOP = """\
def loop(ctrl, x, x_dot, theta, theta_dot, start, stop, forces, rows):
    outcome = None
    for i in range(start, stop):
        phi = theta - {pi}
        {law}
        {decimate}rows += (x, x_dot, theta, theta_dot, u)
        if i == {last}:
            break
        force = {gain} * u + forces[i]
        {rk4}
        # one test for both ends: NaN fails every comparison, so it leaves the box too
        if not ({lo} <= x <= {hi} and {lo} <= x_dot <= {hi}
                and {fell_lo} <= theta <= {fell_hi} and {lo} <= theta_dot <= {hi}):
            i += 1
            if ({lo} <= x <= {hi} and {lo} <= x_dot <= {hi}
                    and {lo} <= theta <= {hi} and {lo} <= theta_dot <= {hi}):
                phi = theta - {pi}
                {fallen_law}
                rows += (x, x_dot, theta, theta_dot, u)
                outcome = "fell"
            else:
                outcome = "diverged"
            break
    else:
        i = stop
    return outcome, i, (x, x_dot, theta, theta_dot)
"""


def _loop(config: SimConfig, controller: Optional[Controller], params: PhysicalParams,
          last: int):
    """The closed loop of ``controller``'s kind, compiled from `_LOOP`.

    ``loop(ctrl, x, x_dot, theta, theta_dot, start, stop, forces, rows)`` runs
    steps ``start .. stop - 1`` from that state under ``forces[i]`` with the
    law of ``ctrl`` (the controller or a `copy.copy` of it), extending ``rows``
    by the (x, x', theta, theta', u) of each step with ``i % log_decimation ==
    0`` and of a fallen state.  It returns ``(outcome, i, state)``: None if the
    run reached ``stop`` (or ``last``, the grid's end), else "fell" or
    "diverged".  ``law_source()`` gives statements that set u from x, x_dot,
    phi and theta_dot, and the globals they read.  Other controllers' law
    calls `command`, which keeps their state on ``ctrl``; open loop's is
    ``u = 0.0``.
    """
    dt = config.dt
    if controller is None:
        law, names = "u = 0.0", {}
    elif hasattr(controller, "law_source"):
        law, names = controller.law_source()
    else:
        law, names = f"u = ctrl.command((x, x_dot, phi, theta_dot), {dt!r})", {}
    source = _LOOP.format(
        law=law.replace("\n", "\n" + " " * 8), fallen_law=law.replace("\n", "\n" + " " * 16),
        decimate=f"if i % {config.log_decimation} == 0: " if config.log_decimation > 1 else "",
        rk4="\n        ".join(_rk4_lines({k: repr(v) for k, v in _rk4_constants(params, dt).items()})),
        pi=repr(UPRIGHT_THETA), last=last, gain=repr(config.actuator_gain),
        lo=repr(-DIVERGENCE_LIMIT), hi=repr(DIVERGENCE_LIMIT),
        fell_lo=repr(UPRIGHT_THETA - FALL_ANGLE), fell_hi=repr(UPRIGHT_THETA + FALL_ANGLE))
    return _compiled(source, "loop", names)


def _table(rows: list) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(-1, 5)


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


def step_times(config: SimConfig) -> np.ndarray:
    """The step grid ``t0 + i*dt`` (i = 0 .. n_steps) of a run under ``config``."""
    n_steps = round(config.horizon / config.dt)
    return config.initial_state.t + np.arange(n_steps + 1) * config.dt


def logged_rows(config: SimConfig) -> int:
    """Rows in the log of a run under ``config`` that neither falls nor
    diverges: steps 0, d, 2d, ... of `step_times`' grid, d the decimation."""
    return round(config.horizon / config.dt) // config.log_decimation + 1


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
    times = step_times(config)
    n_steps = len(times) - 1
    initial = config.initial_state
    grid = times.tolist()
    forces = np.array([[0.0] * len(grid) if f is None else list(map(f, grid))
                       for f in disturbances], dtype=float)
    bits = forces.view(np.int64)
    differ = np.flatnonzero((bits != bits[0]).any(axis=0))
    fork = int(differ[0]) if differ.size else n_steps + 1
    decimation = config.log_decimation
    loop = _loop(config, controller, params, n_steps)

    rows: list = []
    outcome, end, state = loop(controller, initial.x, initial.x_dot, initial.theta,
                               initial.theta_dot, 0, fork, forces[0].tolist(), rows)
    if outcome is not None or fork > n_steps:
        for row in forces:
            yield _series(_table(rows), times, row, decimation, outcome, end)
        return

    shared = _table(rows)
    del rows
    for row in forces:
        rows = []
        outcome, end, _ = loop(copy.copy(controller), *state, fork, n_steps + 1, row.tolist(),
                               rows)
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
