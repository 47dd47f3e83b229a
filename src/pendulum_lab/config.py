"""Run configuration: one JSON document drives every command.

Sections mirror the toolkit's stages: physical parameters, simulation
settings, LQR weights, PI/PID gains, ANFIS training plus its stage-1 data
collection, and the disturbance scenarios with metric bands.  Parsing is
strict: unknown keys are rejected so that a config plus the code version
fully determines a run.  `default_config()` carries the benchmark defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

from .controllers import PidGains
from .plant import UPRIGHT_THETA, PhysicalParams, PlantState
from .scenarios import ImpulseSpec, MetricBands, NoiseSpec
from .simulate import SimConfig

__all__ = ["ConfigError", "RunConfig", "Stage1Config", "default_config", "load_config",
           "config_to_dict", "config_sha256"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Stage1Config:
    """How the LQR data-collection runs are excited: a family of initial
    offsets from upright plus impulse kicks, enough to cover the state region
    the deployed controller will visit."""

    initial_theta_devs: tuple[float, ...] = (-0.2, -0.1, -0.05, 0.05, 0.1, 0.2)
    impulse_magnitudes: tuple[float, ...] = (10.0, 20.0, 30.0)
    impulse_onset: float = 1.0
    horizon: float = 12.0


@dataclass(frozen=True)
class AnfisConfig:
    epochs: int = 50
    learning_rate: float = 0.01
    train_count: int = 500
    test_count: int = 91
    seed: int = 7
    stage1: Stage1Config = field(default_factory=Stage1Config)


@dataclass(frozen=True)
class LqrConfig:
    q_diag: tuple[float, float, float, float] = (1200.0, 0.0, 100.0, 0.0)
    r: float = 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    impulse: ImpulseSpec = field(default_factory=ImpulseSpec)
    impulse_repeat_magnitudes: tuple[float, ...] = (10.0, 20.0, 30.0)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    noise_horizon: float = 30.0
    bands: MetricBands = field(default_factory=MetricBands)


@dataclass(frozen=True)
class RunConfig:
    physical: PhysicalParams = field(default_factory=PhysicalParams)
    sim: SimConfig = field(default_factory=SimConfig)
    lqr: LqrConfig = field(default_factory=LqrConfig)
    pi: PidGains = field(default_factory=lambda: PidGains(kp=27.234, ki=85.597))
    pid: PidGains = field(default_factory=lambda: PidGains(kp=36.887, ki=165.496, kd=1.505,
                                                           filter_n=678.646))
    anfis: AnfisConfig = field(default_factory=AnfisConfig)
    scenarios: ScenarioConfig = field(default_factory=ScenarioConfig)

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every stochastic seed (dataset subsampling and noise)."""
        return replace(
            self,
            anfis=replace(self.anfis, seed=seed),
            scenarios=replace(self.scenarios, noise=replace(self.scenarios.noise, seed=seed)),
        )


def default_config() -> RunConfig:
    return RunConfig()


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _integer(value, key: str) -> int:
    """An integer setting; a non-integral number is rejected, not truncated."""
    if isinstance(value, bool) or not (isinstance(value, int) or float(value).is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Every section and key is optional (defaults apply) but no unknown key is
    tolerated anywhere.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, {"physical", "sim", "lqr", "pi", "pid", "anfis", "scenarios"}, "config root")

    try:
        phys_doc = _section(doc, "physical")
        _check_keys(phys_doc, {"cart_mass", "pend_mass", "friction", "inertia",
                               "half_length", "gravity"}, "physical")
        physical = PhysicalParams(**{k: float(v) for k, v in phys_doc.items()})

        sim_doc = dict(_section(doc, "sim"))
        _check_keys(sim_doc, {"dt", "horizon", "actuator_gain", "log_decimation",
                              "initial_state"}, "sim")
        init_doc = sim_doc.pop("initial_state", {})
        _check_keys(init_doc, {"x", "x_dot", "theta_dev", "theta_dot"}, "sim.initial_state")
        initial = PlantState(
            x=float(init_doc.get("x", 0.0)),
            x_dot=float(init_doc.get("x_dot", 0.0)),
            theta=UPRIGHT_THETA + float(init_doc.get("theta_dev", 0.0)),
            theta_dot=float(init_doc.get("theta_dot", 0.0)),
        )
        if "log_decimation" in sim_doc:
            sim_doc["log_decimation"] = _integer(sim_doc["log_decimation"],
                                                 "sim.log_decimation")
        sim = SimConfig(initial_state=initial,
                        **{k: (float(v) if k != "log_decimation" else v)
                           for k, v in sim_doc.items()})

        lqr_doc = _section(doc, "lqr")
        _check_keys(lqr_doc, {"q_diag", "r"}, "lqr")
        q_diag = tuple(float(v) for v in lqr_doc.get("q_diag", LqrConfig().q_diag))
        if len(q_diag) != 4:
            raise ConfigError("lqr.q_diag must have 4 entries")
        lqr = LqrConfig(q_diag=q_diag, r=float(lqr_doc.get("r", 1.0)))

        pi_doc = _section(doc, "pi")
        _check_keys(pi_doc, {"kp", "ki"}, "pi")
        defaults = RunConfig()
        pi = PidGains(kp=float(pi_doc.get("kp", defaults.pi.kp)),
                      ki=float(pi_doc.get("ki", defaults.pi.ki)))

        pid_doc = _section(doc, "pid")
        _check_keys(pid_doc, {"kp", "ki", "kd", "filter_n"}, "pid")
        pid = PidGains(
            kp=float(pid_doc.get("kp", defaults.pid.kp)),
            ki=float(pid_doc.get("ki", defaults.pid.ki)),
            kd=float(pid_doc.get("kd", defaults.pid.kd)),
            filter_n=float(pid_doc.get("filter_n", defaults.pid.filter_n)),
        )

        anfis_doc = dict(_section(doc, "anfis"))
        _check_keys(anfis_doc, {"epochs", "learning_rate", "train_count", "test_count",
                                "seed", "stage1"}, "anfis")
        stage1_doc = anfis_doc.pop("stage1", {})
        _check_keys(stage1_doc, {"initial_theta_devs", "impulse_magnitudes",
                                 "impulse_onset", "horizon"}, "anfis.stage1")
        s1_defaults = Stage1Config()
        stage1 = Stage1Config(
            initial_theta_devs=tuple(float(v) for v in stage1_doc.get(
                "initial_theta_devs", s1_defaults.initial_theta_devs)),
            impulse_magnitudes=tuple(float(v) for v in stage1_doc.get(
                "impulse_magnitudes", s1_defaults.impulse_magnitudes)),
            impulse_onset=float(stage1_doc.get("impulse_onset", s1_defaults.impulse_onset)),
            horizon=float(stage1_doc.get("horizon", s1_defaults.horizon)),
        )
        a_defaults = AnfisConfig()
        anfis_cfg = AnfisConfig(
            epochs=_integer(anfis_doc.get("epochs", a_defaults.epochs), "anfis.epochs"),
            learning_rate=float(anfis_doc.get("learning_rate", a_defaults.learning_rate)),
            train_count=_integer(anfis_doc.get("train_count", a_defaults.train_count),
                                 "anfis.train_count"),
            test_count=_integer(anfis_doc.get("test_count", a_defaults.test_count),
                                "anfis.test_count"),
            seed=_integer(anfis_doc.get("seed", a_defaults.seed), "anfis.seed"),
            stage1=stage1,
        )

        sc_doc = _section(doc, "scenarios")
        _check_keys(sc_doc, {"impulse", "noise", "metrics"}, "scenarios")
        imp_doc = _section(sc_doc, "impulse")
        _check_keys(imp_doc, {"magnitude", "onset", "width", "repeat_magnitudes"},
                    "scenarios.impulse")
        sc_defaults = ScenarioConfig()
        impulse = ImpulseSpec(
            magnitude=float(imp_doc.get("magnitude", sc_defaults.impulse.magnitude)),
            onset=float(imp_doc.get("onset", sc_defaults.impulse.onset)),
            width=float(imp_doc.get("width", sc_defaults.impulse.width)),
        )
        repeats = tuple(float(v) for v in imp_doc.get(
            "repeat_magnitudes", sc_defaults.impulse_repeat_magnitudes))
        noise_doc = _section(sc_doc, "noise")
        _check_keys(noise_doc, {"power", "sample_time", "seed", "horizon"}, "scenarios.noise")
        noise = NoiseSpec(
            power=float(noise_doc.get("power", sc_defaults.noise.power)),
            sample_time=float(noise_doc.get("sample_time", sc_defaults.noise.sample_time)),
            seed=_integer(noise_doc.get("seed", sc_defaults.noise.seed), "scenarios.noise.seed"),
        )
        noise_horizon = float(noise_doc.get("horizon", sc_defaults.noise_horizon))
        met_doc = _section(sc_doc, "metrics")
        _check_keys(met_doc, {"settle_band_deg", "tail_fraction", "drift_slope"},
                    "scenarios.metrics")
        bands = MetricBands(
            settle_band=math.radians(float(met_doc.get("settle_band_deg", 0.5))),
            tail_fraction=float(met_doc.get("tail_fraction", sc_defaults.bands.tail_fraction)),
            drift_slope=float(met_doc.get("drift_slope", sc_defaults.bands.drift_slope)),
        )
        scenarios = ScenarioConfig(impulse=impulse, impulse_repeat_magnitudes=repeats,
                                   noise=noise, noise_horizon=noise_horizon, bands=bands)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc

    return RunConfig(physical=physical, sim=sim, lqr=lqr, pi=pi, pid=pid,
                     anfis=anfis_cfg, scenarios=scenarios)


def config_to_dict(config: RunConfig) -> dict:
    """Plain-dict view of a config in the same shape `load_config` accepts."""
    return {
        "physical": asdict(config.physical),
        "sim": {
            "dt": config.sim.dt,
            "horizon": config.sim.horizon,
            "actuator_gain": config.sim.actuator_gain,
            "log_decimation": config.sim.log_decimation,
            "initial_state": {
                "x": config.sim.initial_state.x,
                "x_dot": config.sim.initial_state.x_dot,
                "theta_dev": config.sim.initial_state.theta - UPRIGHT_THETA,
                "theta_dot": config.sim.initial_state.theta_dot,
            },
        },
        "lqr": {"q_diag": list(config.lqr.q_diag), "r": config.lqr.r},
        "pi": {"kp": config.pi.kp, "ki": config.pi.ki},
        "pid": {"kp": config.pid.kp, "ki": config.pid.ki, "kd": config.pid.kd,
                "filter_n": config.pid.filter_n},
        "anfis": {
            "epochs": config.anfis.epochs,
            "learning_rate": config.anfis.learning_rate,
            "train_count": config.anfis.train_count,
            "test_count": config.anfis.test_count,
            "seed": config.anfis.seed,
            "stage1": {
                "initial_theta_devs": list(config.anfis.stage1.initial_theta_devs),
                "impulse_magnitudes": list(config.anfis.stage1.impulse_magnitudes),
                "impulse_onset": config.anfis.stage1.impulse_onset,
                "horizon": config.anfis.stage1.horizon,
            },
        },
        "scenarios": {
            "impulse": {
                "magnitude": config.scenarios.impulse.magnitude,
                "onset": config.scenarios.impulse.onset,
                "width": config.scenarios.impulse.width,
                "repeat_magnitudes": list(config.scenarios.impulse_repeat_magnitudes),
            },
            "noise": {
                "power": config.scenarios.noise.power,
                "sample_time": config.scenarios.noise.sample_time,
                "seed": config.scenarios.noise.seed,
                "horizon": config.scenarios.noise_horizon,
            },
            "metrics": {
                "settle_band_deg": math.degrees(config.scenarios.bands.settle_band),
                "tail_fraction": config.scenarios.bands.tail_fraction,
                "drift_slope": config.scenarios.bands.drift_slope,
            },
        },
    }


def config_sha256(config: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
