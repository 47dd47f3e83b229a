"""The default pipeline's TS-LA fit, held out: along closed-loop runs beyond the
10-30 N stage-1 impulses, the fitted model must still command what LQR would; and the
loop compiled for it inlines its law once."""

from dataclasses import replace

import numpy as np
import pytest

from pendulum_lab import simulate
from pendulum_lab.config import default_config
from pendulum_lab.controllers import AnfisController
from pendulum_lab.pipeline import build_dataset, design_from_config, train_from_config
from pendulum_lab.scenarios import make_disturbance
from pendulum_lab.simulate import run_closed_loop

CONFIG = default_config()


@pytest.fixture(scope="module")
def default_fit():
    design = design_from_config(CONFIG)
    model, _ = train_from_config(CONFIG, build_dataset(CONFIG, design))
    return design.K.ravel(), model


@pytest.mark.parametrize("magnitude", [60.0, 70.0])
def test_tsla_commands_the_lqr_law_beyond_its_training_impulses(default_fit, magnitude):
    K, model = default_fit
    impulse = replace(CONFIG.scenarios.impulse, magnitude=magnitude)
    series = run_closed_loop(CONFIG.sim, AnfisController(model), make_disturbance(impulse),
                             CONFIG.physical)
    assert not series.diverged
    z = np.column_stack([series.x, series.x_dot, series.theta_deviation(), series.theta_dot])
    # the run leaves the box the model was fitted on
    lo, hi = model.input_ranges.T
    assert np.any((z < lo) | (z > hi))
    assert np.max(np.abs(series.u + z @ K)) <= 1e-9


def test_the_tsla_loop_inlines_its_law_once(default_fit, monkeypatch):
    sources = []
    compiled = simulate._compiled
    monkeypatch.setattr(simulate, "_compiled",
                        lambda source, *rest: sources.append(source) or compiled(source, *rest))
    simulate._loop(CONFIG.sim, AnfisController(default_fit[1]), CONFIG.physical, 40000)
    # the law's last statement, once: the bound test comes before it, so a fallen state
    # runs the same statements
    assert [source.count("u = out / total") for source in sources] == [1]
