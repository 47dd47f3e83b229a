"""Wiring between the configuration and the two-stage workflow.

Stage 1 runs the LQR loop over a family of excitations and logs the
(state, command) pairs; stage 2 subsamples them into the training dataset
and fits the fuzzy controller.  The benchmark then pits PI, PID and the
trained model (TS-LA) against the shipped disturbance scenarios.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .anfis import AnfisModel, Dataset, TrainingHistory, generate_dataset, train_hybrid
from .config import ConfigError, RunConfig
from .controllers import AnfisController, LqrController, LqrDesign, PidController, design_lqr
from .plant import UPRIGHT_THETA, PlantState, linearize
from .scenarios import METRICS_SPAN, BenchmarkTable, ImpulseSpec, run_benchmark
from .simulate import TimeSeries, run_closed_loop, step_span

__all__ = ["design_from_config", "stage1_runs", "build_dataset", "train_from_config",
           "check_metrics_span", "benchmark_from_config"]


def design_from_config(config: RunConfig) -> LqrDesign:
    ss = linearize(config.physical)
    return design_lqr(ss, np.diag(config.lqr.q_diag), config.lqr.r)


def stage1_runs(config: RunConfig, design: LqrDesign) -> list[TimeSeries]:
    """LQR data-collection runs: one per initial offset, one per impulse kick."""
    stage1 = config.anfis.stage1
    runs = []
    base = replace(config.sim, horizon=stage1.horizon)
    for dev in stage1.initial_theta_devs:
        cfg = replace(base, initial_state=PlantState(theta=UPRIGHT_THETA + dev))
        runs.append(run_closed_loop(cfg, LqrController(design), None, config.physical))
    for magnitude in stage1.impulse_magnitudes:
        spec = ImpulseSpec(magnitude=magnitude, onset=stage1.impulse_onset,
                           width=config.scenarios.impulse.width)
        runs.append(run_closed_loop(base, LqrController(design), spec, config.physical))
    return runs


def build_dataset(config: RunConfig, design: LqrDesign) -> Dataset:
    return generate_dataset(
        stage1_runs(config, design),
        train_count=config.anfis.train_count,
        test_count=config.anfis.test_count,
        seed=config.anfis.seed,
    )


def train_from_config(config: RunConfig, dataset: Dataset) -> tuple[AnfisModel, TrainingHistory]:
    return train_hybrid(dataset, config.anfis)


def check_metrics_span(config: RunConfig) -> None:
    """Raise `ConfigError` unless every benchmark run that stays up is logged to
    `METRICS_SPAN` past its disturbance's onset, as its metrics need."""
    for key, scenario in (("sim.horizon", "impulse"), ("scenarios.noise.horizon", "noise")):
        sim, _, onset = config.scenarios.run(scenario, config.sim)
        end = step_span(sim)[1]
        if end < onset + METRICS_SPAN:
            raise ConfigError(f"{key} {sim.horizon!r} logs the benchmark's runs to t = {end!r} s,"
                              f" but their metrics need onset {onset!r} + {METRICS_SPAN:g} s")


def benchmark_from_config(config: RunConfig, model: AnfisModel) -> BenchmarkTable:
    factories = {
        "PI": lambda: PidController(config.pi),
        "PID": lambda: PidController(config.pid),
        "TS-LA": lambda: AnfisController(model),
    }
    return run_benchmark(config.physical, factories, config.sim, config.scenarios)
