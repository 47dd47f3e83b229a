"""Cart-inverted-pendulum lab: simulation, linear analysis and a two-stage
LQR-to-fuzzy controller pipeline with PI/PID disturbance benchmarks.

The pipeline runs from the command line (`pendulum_lab.cli`) or from Python
through the names below: the config, the pipeline's stages, the model file
and one closed-loop run.  Every other name lives in its module."""

__version__ = "0.1.0"

from .anfis import load_model, save_model
from .config import RunConfig, default_config, load_config
from .controllers import AnfisController, LqrController, PidController
from .pipeline import (benchmark_from_config, build_dataset, design_from_config, stage1_runs,
                       train_from_config)
from .scenarios import ImpulseSpec, NoiseSpec, compute_metrics, make_disturbance
from .simulate import SimConfig, TimeSeries, run_closed_loop

__all__ = [
    "__version__",
    "AnfisController", "ImpulseSpec", "LqrController", "NoiseSpec", "PidController",
    "RunConfig", "SimConfig", "TimeSeries", "benchmark_from_config", "build_dataset",
    "compute_metrics", "default_config", "design_from_config", "load_config", "load_model",
    "make_disturbance", "run_closed_loop", "save_model", "stage1_runs", "train_from_config",
]
