"""Deterministic fixed-step closed-loop simulation.

One engine connects the nonlinear plant, a controller, a static
voltage-to-force actuator gain and an additive disturbance force.  The
integrator is classical fourth-order Runge-Kutta with the total force held
constant over each step (zero-order hold); this keeps runs bit-reproducible,
which the golden tests and the benchmark rely on.

Every run steps on the grid ``t0 + i*dt`` (i = 0 .. n_steps).  A disturbance
is a force as a function of t, read onto that grid before the run (a spec
builds its grid at once), so the loop itself reads forces by step index.
A run starts inside two bounds (`SimConfig` rejects any other start), logs
every step, and ends early, keeping its partial log, at the first state past
either: outcome "fell" once |theta - pi| > pi/2 (the first state past the
horizontal is logged, with its command, as the last row), and "diverged"
once any component leaves [-1e6, 1e6] or turns non-finite.  A state past
both has diverged.

`run_closed_loops` runs one controller under several disturbances and
simulates the stretch where their force grids agree (say, before an
impulse's onset) once, forking at the first step where they differ; each
log is bitwise the one `run_closed_loop` gives alone.

Each `run_closed_loops` call compiles one loop function for its controller's
kind (`_loop`): RK4, the bound test, the logging and the ``law_source()`` its
`command` is compiled from (`_law_command`) are inline, every parameter a
literal and the law's state in locals.  Open loop's law is ``u = 0.0``; a
custom controller with no ``law_source()`` runs its own `command`.  The bound
test opens each step, before the law: a diverged state ends the run there,
and a fallen one runs the step's one inlined law and logs its row first.

A loop whose law is inlined fast-forwards a rest.  Once a step leaves the
plant and the law's state bitwise as they were (say, upright before an
impulse's onset), each later step repeats it until the force grid changes
bits; the loop logs those steps' row without stepping them and resumes
where the force changes.  A custom `command` may keep state the loop cannot
see, so its loop steps every step.

`TimeSeries.to_csv` writes ``repr``'s bytes for every float through
``orjson``: its Ryu formatter gives the same shortest round-trip digits, and
three byte rewrites (`_REPR_FORM`) turn its exponent style into ``repr``'s.
``orjson`` writes nan and the infinities as ``null``, so a chunk of rows
holding one (only a custom command or disturbance can log one) is written by
``repr`` per value.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass, field
from types import SimpleNamespace
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
    controller.  A controller may also offer ``law_source()``: its law's
    statements, the globals they read and the attributes that hold its
    state, which the loop inlines and keeps in locals (see `_loop`), so it
    skips a rest.  The shipped controllers compile `command` from it
    (`_law_command`); their ``step(measured, dt)`` takes a `PlantState` and
    forwards to `command`, and is not part of this contract.
    """

    def command(self, z: tuple[float, float, float, float], dt: float) -> float: ...


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step run settings.

    ``actuator_gain`` converts the controller's voltage command into force;
    the benchmark ships 1 N/V, keeping commands and forces interchangeable
    while leaving the knob explicit.  ``initial_state`` must lie inside the
    loop's bounds, both ends included: |x|, |x'| and |theta'| at most
    `DIVERGENCE_LIMIT` and |theta - pi| at most `FALL_ANGLE`.
    """

    dt: float = 1e-3
    horizon: float = 40.0
    initial_state: PlantState = field(default_factory=PlantState)
    actuator_gain: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.dt <= 0.01):
            raise ValueError(f"dt must be in (0, 0.01], got {self.dt!r}")
        if not (math.isfinite(self.horizon) and self.horizon >= self.dt):
            raise ValueError(f"horizon must be >= dt, got {self.horizon!r}")
        if not (math.isfinite(self.actuator_gain) and self.actuator_gain > 0.0):
            raise ValueError(f"actuator_gain must be positive, got {self.actuator_gain!r}")
        s = self.initial_state
        if not (all(abs(v) <= DIVERGENCE_LIMIT for v in (s.x, s.x_dot, s.theta_dot))
                and UPRIGHT_THETA - FALL_ANGLE <= s.theta <= UPRIGHT_THETA + FALL_ANGLE):
            raise ValueError(f"initial_state must have |x|, |x_dot| and |theta_dot| <= "
                             f"{DIVERGENCE_LIMIT:g} and |theta - pi| <= pi/2, got {s}")


@dataclass(eq=False)
class TimeSeries:
    """Columnar log of a run: states, commanded voltage and disturbance force.

    ``u`` is the controller output (volts) before the actuator gain; ``d`` is
    the disturbance force.  ``outcome`` is "fell" or "diverged" for a run that
    ended early, whose last row is its last logged step, and None otherwise.
    """

    t: np.ndarray
    x: np.ndarray
    x_dot: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    u: np.ndarray
    d: np.ndarray
    outcome: Optional[str] = None

    def __len__(self) -> int:
        return self.t.size

    def theta_deviation(self) -> np.ndarray:
        return self.theta - UPRIGHT_THETA

    def to_csv(self, path) -> None:
        """One header row, then one row per step: floats by ``repr``, comma
        separated, CRLF-terminated (the bytes `artifacts.write_csv` would write).

        Written `_CSV_CHUNK` rows at a time.  A finite chunk is formatted by
        ``orjson`` (Ryu's shortest round-trip digits, as ``repr``'s) and
        rewritten to ``repr``'s exponent style by `_REPR_FORM`; a chunk that
        holds nan or an infinity, which ``orjson`` writes as ``null``, is written
        by ``repr`` per value."""
        import orjson  # here, not at the top: only the commands that write logs pay its import

        columns = [np.asarray(c, dtype=float) for c in
                   (self.t, self.x, self.x_dot, self.theta, self.theta_dot, self.u, self.d)]
        with open(path, "wb") as fh:
            fh.write(",".join(CSV_HEADER).encode() + b"\r\n")
            for lo in range(0, self.t.size, _CSV_CHUNK):
                chunk = np.column_stack([column[lo:lo + _CSV_CHUNK] for column in columns])
                if np.isfinite(chunk).all():
                    text = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
                    text = text.replace(b"],[", b"\r\n")
                    for pattern, form in _REPR_FORM:
                        text = re.sub(pattern, form, text)
                else:
                    text = "\r\n".join(",".join(map(repr, row)) for row in chunk.tolist()).encode()
                fh.write(text + b"\r\n")


# rows per chunk of `TimeSeries.to_csv`: a 40 s log at 1 ms written whole would hold a
# copy of its 280 000 floats and some 5 MB of text at once, while chunks of 256 to
# 16 384 rows write about as fast
_CSV_CHUNK = 1024

# Ryu's text -> repr's, applied in this order (patterns compiled on first use, by
# `re`'s cache, so importing this module compiles none):
# - [1e-5, 1e-4): 0.0000dddd -> d.ddde-05 and 0.0000d -> de-05.  The literal prefix
#   comes first, so the scan is fast; the lookbehind leaves 10.00001 as it is.
# - one-digit exponents get two: e-7 -> e-07
# - positive exponents, always 16 or more, get a sign: e16 -> e+16
_REPR_FORM = [(rb"0\.0000(?<![\d.]0\.0000)(\d)(\d*)",
               lambda m: m[1] + (b"." + m[2] if m[2] else b"") + b"e-05"),
              (rb"e-(\d)(?!\d)", rb"e-0\1"),
              (rb"e(\d)", rb"e+\1")]


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


def _compiled(source, name: str, constants: dict, kind: str = ""):
    """The function ``name`` that ``source`` defines, over the globals ``constants``.

    A source string is compiled under the file name ``<name kind>``, say ``<loop
    AnfisController>``, so profilers and tracebacks tell the generated functions
    apart; `_STEP` comes compiled."""
    if isinstance(source, str):
        source = compile(source, f"<{name} {kind}>", "exec")
    # globals that do not hold the function: it forms no reference cycle
    defined: dict = {}
    exec(source, {"sin": math.sin, "cos": math.cos, **constants}, defined)
    return defined[name]


def _state_io(state: Sequence[str]) -> tuple[str, str]:
    """The statements that load ``ctrl``'s attributes ``state`` into locals and store them back."""
    return "".join(f"; {n} = ctrl.{n}" for n in state), "".join(f"ctrl.{n} = {n}; " for n in state)


def _law_command(law_source: tuple[str, dict, Sequence[str]], kind: str) -> Callable:
    """``command(ctrl, z, dt) -> u`` compiled from a ``law_source()`` triple of the
    controller class ``kind``, the law's state loaded and stored by the statements
    `_loop` inlines."""
    law, names, state = law_source
    load, store = _state_io(state)
    return _compiled(f"def command(ctrl, z, dt):\n    x, x_dot, phi, theta_dot = z{load}\n    "
                     + law.replace("\n", "\n    ") + f"\n    {store}return u\n", "command", names,
                     kind)


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
def loop(ctrl, x, x_dot, theta, theta_dot, start, stop, forces, changes, rows):
    dt = {dt}{load}
    outcome, last = None, {last}
    while True:
        for i in range(start, stop):
            # one test for both ends: NaN fails every comparison, so it leaves the box too
            if not {upright}:
                if not {bounded}:
                    {store}return "diverged", (x, x_dot, theta, theta_dot)
                outcome, last = "fell", i
            phi = theta - {pi}
            {keep}
            {law}
            rows += (x, x_dot, theta, theta_dot, u)
            if i == last:
                {store}return outcome, (x, x_dot, theta, theta_dot)
            force = {gain} * u + forces[i]
            {rk4}
            {rest}
        else:
            {store}return None, (x, x_dot, theta, theta_dot)
"""

# a state within the bounds (lo, hi) on x, x' and theta', and (theta_lo, theta_hi) on theta
_BOX = ("({lo} <= x <= {hi} and {lo} <= x_dot <= {hi} and {theta_lo} <= theta <= {theta_hi}"
        " and {lo} <= theta_dot <= {hi})")

_OPEN_LOOP = SimpleNamespace(law_source=lambda: ("u = 0.0", {}, ()))  # no controller

# the plant and the law's state at a bitwise fixed point: == first, as it is cheap and
# rarely true, then repr, which tells -0.0 from 0.0
_REST = """\
if {same} and repr(({held},)) == repr(({kept},)):
    start = rest(i, stop, changes, rows, (x, x_dot, theta, theta_dot, u))
    break"""


def _rest(i: int, stop: int, changes: np.ndarray, rows: list, row: tuple) -> int:
    """Log a loop's rest, which starts after step ``i``: ``row`` for every
    step before the next of ``changes`` or ``stop``, whichever comes first.
    Returns that step, where the loop resumes."""
    k = int(changes.searchsorted(i, side="right"))
    end = min(int(changes[k]), stop) if k < changes.size else stop
    rows += row * (end - 1 - i)
    return end


def _loop(config: SimConfig, controller: Controller, params: PhysicalParams, last: int):
    """The closed loop of ``controller``'s kind, compiled from `_LOOP`.

    ``loop(ctrl, x, x_dot, theta, theta_dot, start, stop, forces, changes, rows)``
    runs steps ``start .. stop - 1`` from that state under ``forces[i]`` with the
    law of ``ctrl`` (the controller or a `copy.copy` of it), extending ``rows``
    by the (x, x', theta, theta', u) of each step.  It returns ``(outcome,
    state)``: None if the run reached ``stop`` (or ``last``, the grid's end),
    else "fell" or "diverged".  ``law_source()`` gives the statements that set u from x,
    x_dot, phi, theta_dot and dt, the globals they read, and the attributes
    of ``ctrl`` that hold its state, kept in locals of those names and stored
    back on return.  Other laws call `command`; open loop's is ``u = 0.0``.

    Each step opens with the bound test, so the law is inlined once: a state
    past the divergence box returns "diverged" before the law runs (TS-LA's
    law raises on NaN), and a fallen state runs the law, logs its row and
    returns "fell".  A fork's first step is tested in each branch.

    An inlined loop holds all its state in locals, so a step that leaves
    them bitwise as they were repeats until the force changes: the loop logs
    that rest at once (`_rest`) and resumes at the next of ``changes``, the
    steps where the bits of ``forces`` differ from the step before.  A loop
    through `command` steps every step.
    """
    dt = config.dt
    inlined = hasattr(controller, "law_source")
    law, names, state = (controller.law_source() if inlined else
                         ("u = ctrl.command((x, x_dot, phi, theta_dot), dt)", {}, ()))
    load, store = _state_io(state)
    held = ("x", "x_dot", "theta", "theta_dot", *state)
    kept = [name + "0" for name in held]
    lo, hi = repr(-DIVERGENCE_LIMIT), repr(DIVERGENCE_LIMIT)
    upright = _BOX.format(lo=lo, hi=hi, theta_lo=repr(UPRIGHT_THETA - FALL_ANGLE),
                          theta_hi=repr(UPRIGHT_THETA + FALL_ANGLE))
    rest = _REST.format(same=" and ".join(map("{} == {}".format, held, kept)), held=", ".join(held),
                        kept=", ".join(kept))
    indent = "\n" + " " * 12
    source = _LOOP.format(
        law=law.replace("\n", indent),
        rk4=indent.join(_rk4_lines({k: repr(v) for k, v in _rk4_constants(params, dt).items()})),
        dt=repr(dt), load=load, store=store,
        keep=f"{', '.join(kept)} = {', '.join(held)}" if inlined else "",
        rest=rest.replace("\n", indent) if inlined else "",
        pi=repr(UPRIGHT_THETA), last=last, gain=repr(config.actuator_gain), upright=upright,
        bounded=_BOX.format(lo=lo, hi=hi, theta_lo=lo, theta_hi=hi))
    kind = "none" if controller is _OPEN_LOOP else type(controller).__name__
    return _compiled(source, "loop", {"rest": _rest, **names}, kind)


def _table(rows: list) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(-1, 5)


def _series(data: np.ndarray, times: np.ndarray, forces: np.ndarray,
            outcome: Optional[str]) -> TimeSeries:
    """The series of the (x, x', theta, theta', u) rows ``data``, one per step from
    step 0, and its ``outcome``; its t and d columns are the grid's first rows."""
    table = np.column_stack((times[:len(data)], data, forces[:len(data)]))
    return TimeSeries(*table.T, outcome=outcome)


def step_times(config: SimConfig) -> np.ndarray:
    """The step grid ``t0 + i*dt`` (i = 0 .. n_steps) of a run under ``config``."""
    n_steps = round(config.horizon / config.dt)
    return config.initial_state.t + np.arange(n_steps + 1) * config.dt


def run_closed_loops(
    config: SimConfig,
    controller: Optional[Controller],
    disturbances: Sequence[Optional[Callable[[float], float]]],
    params: PhysicalParams,
) -> Iterator[TimeSeries]:
    """Run one closed loop per disturbance, sharing the stretch where they agree.

    Yields one `TimeSeries` per disturbance, in order, each bitwise the log
    `run_closed_loop` gives for that disturbance and a controller in the
    state ``controller`` is in now: a row per step and the run's outcome.
    Each disturbance is read at every time ``t0 + i*dt`` of the step grid
    (i = 0 .. n_steps) into a force grid: a spec by its ``forces(times)``, a
    callable once per time, None as zeros.
    Forces depend only on t, so this reads them ahead of the run.  One run
    goes up to the first step where the grids' bits differ; there it forks.
    Each branch resumes at that step with its own `copy.copy` of the
    controller, taken before that step's command (see `Controller`).  A run
    that falls, diverges or ends before the fork gives every disturbance the
    same states and commands; the d column is each disturbance's own.  A
    rest (see `_loop`) ends at the next step where the stretch's or the
    branch's own force grid changes bits, or at the stretch's end.  The
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
    forces = np.array([np.zeros(times.size) if f is None else f.forces(times)
                       if hasattr(f, "forces") else list(map(f, times.tolist()))
                       for f in disturbances], dtype=float)
    bits = forces.view(np.int64)
    differ = np.flatnonzero((bits != bits[0]).any(axis=0))
    changes = [np.flatnonzero(row[1:] != row[:-1]) + 1 for row in bits]
    fork = int(differ[0]) if differ.size else n_steps + 1
    loop = _loop(config, _OPEN_LOOP if controller is None else controller, params, n_steps)

    rows: list = []
    outcome, state = loop(controller, initial.x, initial.x_dot, initial.theta,
                               initial.theta_dot, 0, fork, forces[0].tolist(), changes[0], rows)
    if outcome is not None or fork > n_steps:
        for row in forces:
            yield _series(_table(rows), times, row, outcome)
        return

    shared = _table(rows)
    del rows
    for row, row_changes in zip(forces, changes):
        rows = []
        outcome, _ = loop(copy.copy(controller), *state, fork, n_steps + 1, row.tolist(),
                          row_changes, rows)
        data = np.concatenate((shared, _table(rows)))
        del rows
        yield _series(data, times, row, outcome)
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
    ``disturbance=None`` means no disturbance.  Every step is logged, and
    identical inputs give bit-identical logs.  This is
    `run_closed_loops` with one disturbance, a spec or a force source.
    """
    return next(run_closed_loops(config, controller, [disturbance], params))
