"""Wiring between the configuration and the two-stage workflow.

Stage 1 runs the LQR loop over a family of excitations and logs the
(state, command) pairs; stage 2 subsamples them into the training dataset
and fits the fuzzy controller.  The benchmark then pits PI, PID and the
trained model (TS-LA) against the shipped disturbance scenarios.
"""

from __future__ import annotations

from dataclasses import replace

from .anfis import AnfisModel, Dataset, TrainConfig, TrainingHistory, generate_dataset, train_hybrid
from .config import RunConfig
from .controllers import AnfisController, LqrController, LqrDesign, PidController, design_lqr
from .plant import UPRIGHT_THETA, PlantState, linearize
from .scenarios import BenchmarkTable, ImpulseSpec, make_disturbance, run_benchmark
from .simulate import TimeSeries, run_closed_loop

__all__ = ["design_from_config", "stage1_runs", "build_dataset", "train_from_config",
           "benchmark_from_config"]


def design_from_config(config: RunConfig) -> LqrDesign:
    import numpy as np

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
        runs.append(run_closed_loop(base, LqrController(design), make_disturbance(spec),
                                    config.physical))
    return runs


def build_dataset(config: RunConfig, design: LqrDesign) -> Dataset:
    return generate_dataset(
        stage1_runs(config, design),
        train_count=config.anfis.train_count,
        test_count=config.anfis.test_count,
        seed=config.anfis.seed,
    )


def train_from_config(config: RunConfig, dataset: Dataset) -> tuple[AnfisModel, TrainingHistory]:
    train_cfg = TrainConfig(epochs=config.anfis.epochs, learning_rate=config.anfis.learning_rate)
    return train_hybrid(dataset, train_cfg)


def benchmark_from_config(config: RunConfig, model: AnfisModel) -> BenchmarkTable:
    factories = {
        "PI": lambda: PidController(config.pi),
        "PID": lambda: PidController(config.pid),
        "TS-LA": lambda: AnfisController(model),
    }
    return run_benchmark(
        config.physical,
        factories,
        impulse_magnitudes=config.scenarios.impulse_repeat_magnitudes,
        impulse=config.scenarios.impulse,
        noise=config.scenarios.noise,
        sim_config=config.sim,
        noise_horizon=config.scenarios.noise_horizon,
        bands=config.scenarios.bands,
    )
