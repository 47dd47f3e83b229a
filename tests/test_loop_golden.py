"""Golden digests of short closed-loop logs: every controller under both disturbances.

Each digest is the SHA-256 of the run's float64 log columns (t, x, x_dot, theta,
theta_dot, u, d) stacked row by row, with the divergence flag appended.  They pin the
simulation bit for bit: a change to the integrator, a control law or a disturbance
source that moves any logged value by one ulp changes a digest.  PI's linear loop is
unstable, so its two runs fall and end early; `FALLEN_ROWS` pins where.
"""

import hashlib

import numpy as np
import pytest

from pendulum_lab.anfis import AnfisModel
from pendulum_lab.config import default_config
from pendulum_lab.controllers import AnfisController, LqrController, PidController, design_lqr
from pendulum_lab.plant import UPRIGHT_THETA, PlantState, linearize
from pendulum_lab.scenarios import ImpulseSpec, NoiseSpec, make_disturbance
from pendulum_lab.simulate import SimConfig, run_closed_loop

CONFIG = default_config()
PARAMS = CONFIG.physical
SIM = SimConfig(horizon=3.0, initial_state=PlantState(x=0.1, theta=UPRIGHT_THETA + 0.05))
DESIGN = design_lqr(linearize(PARAMS), np.diag(CONFIG.lqr.q_diag), CONFIG.lqr.r)


def tsla_model():
    """A 16-rule model near u = -K z whose rules all differ, so every rule weighs in."""
    K = DESIGN.K.ravel()
    width = np.array([[0.5], [1.0], [0.2], [1.5]])  # per input; centers at -width, +width
    consequents = [np.concatenate([-K * (1.0 + 0.02 * j), [0.01 * (j - 7.5)]]) for j in range(16)]
    ranges = np.array([[-0.5, 0.5], [-1.0, 1.0], [-0.2, 0.2], [-1.5, 1.5]])
    return AnfisModel(a=np.repeat(width, 2, axis=1), b=np.full((4, 2), 2.0),
                      c=width * np.array([-1.0, 1.0]), consequents=np.array(consequents),
                      input_ranges=ranges)


CONTROLLERS = {
    "LQR": lambda: LqrController(DESIGN),
    "PI": lambda: PidController(CONFIG.pi),
    "PID": lambda: PidController(CONFIG.pid),
    "TS-LA": lambda: AnfisController(tsla_model()),
}

DISTURBANCES = {
    "impulse": ImpulseSpec(magnitude=10.0, onset=1.0, width=0.05),
    "noise": NoiseSpec(power=0.5, sample_time=0.01, seed=7),
}

GOLDEN_SHA256 = {
    ("LQR", "impulse"):
        "a4bc6cf0e6154e16fd7bf85057045ccaa0bd35a95a86ea1c1909ab3b13e2b5ac",
    ("LQR", "noise"):
        "e0ab5d41f643947193a6090ba6f0e7c06e32da59c627708cada354ff339cf9a4",
    ("PI", "impulse"):
        "c05ca438389dd718b3da7babf5589c8b19bd0d8404d2fbe9d5543400cebab4a4",
    ("PI", "noise"):
        "513bb322572148794940dc9d971945b63b3b9c4ca26c6ead363701832714dfdd",
    ("PID", "impulse"):
        "4ee68947b86d0ddb2ee0ae312235f5d7e794bd5cd137170c5e45faa13c86c65e",
    ("PID", "noise"):
        "2065a0762f7f229191a6a98be377db69fe68044520d82f365c6d643b22b7e86f",
    ("TS-LA", "impulse"):
        "35bb92bbbfbaa224b7f46a4dd4e8ad86bc713c2aa087228aa12323299017abe8",
    ("TS-LA", "noise"):
        "33373040cdabcff2c90bd47f57886cd89519d32f7de18439ff1945e4d0d3e98e",
}

# rows logged by the runs that fall: PI passes |theta - pi| = pi/2 at 1.611 s (impulse)
# and 1.638 s (noise); every other run logs all 3001 steps
FALLEN_ROWS = {("PI", "impulse"): 1612, ("PI", "noise"): 1639}


def log_digest(series) -> str:
    columns = (series.t, series.x, series.x_dot, series.theta, series.theta_dot, series.u,
               series.d)
    table = np.column_stack(columns).astype(np.float64)
    return hashlib.sha256(table.tobytes() + bytes([series.outcome == "diverged"])).hexdigest()


@pytest.mark.parametrize("controller, disturbance", sorted(GOLDEN_SHA256))
def test_closed_loop_log_digest(controller, disturbance):
    series = run_closed_loop(SIM, CONTROLLERS[controller](),
                             make_disturbance(DISTURBANCES[disturbance]), PARAMS)
    rows = FALLEN_ROWS.get((controller, disturbance), 3001)
    assert (len(series), series.outcome) == (rows, "fell" if rows < 3001 else None)
    assert log_digest(series) == GOLDEN_SHA256[controller, disturbance]
