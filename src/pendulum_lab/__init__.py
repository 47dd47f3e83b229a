"""Cart-inverted-pendulum lab: simulation, linear analysis and a two-stage
LQR-to-fuzzy controller pipeline with PI/PID disturbance benchmarks."""

__version__ = "0.1.0"

from .anfis import (AnfisModel, Dataset, MembershipFunction, anfis_infer, firing_strengths,
                    generate_dataset, load_model, normalize, save_model, train_hybrid)
from .config import RunConfig, default_config, load_config
from .controllers import (AnfisController, CareError, LqrController, LqrDesign, PidController,
                          PidGains, design_lqr, solve_care)
from .plant import (LinearStateSpace, PhysicalParams, PlantState, TransferFunction,
                    UPRIGHT_THETA, controllability, linearize, nonlinear_derivative, poles,
                    root_locus_sweep, total_energy, transfer_functions)
from .scenarios import (ImpulseSpec, MetricBands, NoiseSpec, TransientMetrics, compute_metrics,
                        impulse_signal, make_disturbance, run_benchmark)
from .simulate import SimConfig, TimeSeries, rk4_step, run_closed_loop

__all__ = [
    "__version__",
    "AnfisController", "AnfisModel", "CareError", "Dataset", "ImpulseSpec",
    "LinearStateSpace", "LqrController", "LqrDesign", "MembershipFunction", "MetricBands",
    "NoiseSpec", "PhysicalParams", "PidController", "PidGains", "PlantState", "RunConfig",
    "SimConfig", "TimeSeries", "TransferFunction", "TransientMetrics", "UPRIGHT_THETA",
    "anfis_infer", "compute_metrics", "controllability", "default_config", "design_lqr",
    "firing_strengths", "generate_dataset", "impulse_signal", "linearize", "load_config",
    "load_model", "make_disturbance", "nonlinear_derivative",
    "normalize", "poles", "rk4_step", "root_locus_sweep", "run_benchmark",
    "run_closed_loop", "save_model", "solve_care", "total_energy", "train_hybrid",
    "transfer_functions",
]
