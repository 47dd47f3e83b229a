"""Run configuration: one JSON document drives every command.

Each section's dataclass lives next to the code it configures: physical
`plant.PhysicalParams`, sim `simulate.SimConfig`, lqr `LqrConfig` (here), pi
and pid `controllers.PidGains`, anfis `anfis.AnfisConfig` and scenarios
`scenarios.ScenarioConfig`; `RunConfig` holds one of each.  Parsing is
strict: unknown keys are rejected so that a config plus the code version
fully determines a run.  `default_config()` carries the benchmark defaults.

Those frozen dataclasses are the schema: a section is a dataclass, a key is
one of its fields and takes the type of the field's default.  `_FORMS`
holds the keys whose JSON form differs from their field:

    sim.initial_state.theta_dev          theta - pi
    scenarios.impulse.repeat_magnitudes  scenarios.impulse_repeat_magnitudes
    scenarios.noise.horizon              scenarios.noise_horizon
    scenarios.metrics                    scenarios.bands
    scenarios.metrics.settle_band_deg    scenarios.bands.settle_band, in radians

A file cannot set the 3 fields in `_HIDDEN`: `pi.kd`, `pi.filter_n` and
`sim.initial_state.t`.

Each key's own domain is declared on its field by `artifacts.bounded`, which
its section's ``__post_init__`` enforces by `artifacts.check_domains`; checks
across keys (horizons against `sim.dt`, say) are written out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce

from .anfis import AnfisConfig
from .artifacts import bounded, check_domains, read_json, sha256_json
from .controllers import PidGains
from .plant import UPRIGHT_THETA, PhysicalParams
from .scenarios import ScenarioConfig
from .simulate import SimConfig, step_span

__all__ = ["ConfigError", "RunConfig", "default_config", "load_config", "config_to_dict",
           "config_sha256"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class LqrConfig:
    q_diag: tuple[float, ...] = bounded((1200.0, 0.0, 100.0, 0.0), length=4, ge=0.0)
    r: float = bounded(1.0, gt=0.0)

    def __post_init__(self) -> None:
        check_domains(self, "lqr.")


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

    def __post_init__(self) -> None:
        # each horizon that stands in for sim.horizon must pass its check against sim.dt
        for key, horizon in (("anfis.stage1.horizon", self.anfis.stage1.horizon),
                             ("scenarios.noise.horizon", self.scenarios.noise_horizon)):
            if not (math.isfinite(horizon) and horizon >= self.sim.dt):
                raise ValueError(f"{key} must be >= sim.dt ({self.sim.dt!r}), got {horizon!r}")
        # the rows stage 1 logs if every run stays up; a run that falls ends early, and
        # generate_dataset rejects a log too short for the dataset at run time
        stage1 = self.anfis.stage1
        runs = len(stage1.initial_theta_devs) + len(stage1.impulse_magnitudes)
        per_run = step_span(replace(self.sim, horizon=stage1.horizon))[0] + 1
        total = self.anfis.train_count + self.anfis.test_count
        if total > runs * per_run:
            raise ValueError(f"anfis.train_count + anfis.test_count is {total}, but stage 1 logs "
                             f"{runs * per_run} rows: {runs} runs of {per_run} "
                             f"(anfis.stage1.horizon and sim.dt)")

    def with_seed(self, seed: int) -> "RunConfig":
        """Override every stochastic seed (dataset subsampling and noise)."""
        return replace(
            self,
            anfis=replace(self.anfis, seed=seed),
            scenarios=replace(self.scenarios, noise=replace(self.scenarios.noise, seed=seed)),
        )


def default_config() -> RunConfig:
    return RunConfig()


def _number(value, key: str):
    """``value`` if it is a JSON number; a string or a boolean is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return value


def _coerce(value, default, key: str):
    """``value`` as the type of the field's default: a float tuple, a float or
    an integer.  Only JSON numbers are taken, and a non-integral number is
    rejected for an integer, not truncated."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(float(_number(v, key)) for v in value)
    _number(value, key)
    if not isinstance(default, int):
        return float(value)
    if not (isinstance(value, int) or value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _same(value):
    return value


def _degrees(radians: float) -> float:
    """The degree value nearest ``math.degrees(radians)`` that `math.radians`
    maps back to ``radians`` exactly: a neighbour is tried when the rounded
    product is one ulp off."""
    deg = math.degrees(radians)
    for candidate in (deg, math.nextafter(deg, -math.inf), math.nextafter(deg, math.inf)):
        if math.radians(candidate) == radians:
            return candidate
    return deg


# field path -> (key path within the parent's JSON object, from JSON, to JSON)
_FORMS = {
    ("sim", "initial_state", "theta"): (("theta_dev",), lambda dev: UPRIGHT_THETA + dev,
                                         lambda theta: theta - UPRIGHT_THETA),
    ("scenarios", "impulse_repeat_magnitudes"): (("impulse", "repeat_magnitudes"), _same, _same),
    ("scenarios", "noise_horizon"): (("noise", "horizon"), _same, _same),
    ("scenarios", "bands"): (("metrics",), _same, _same),
    ("scenarios", "bands", "settle_band"): (("settle_band_deg",), math.radians, _degrees),
}
# fields a config file cannot set
_HIDDEN = {("pi", "kd"), ("pi", "filter_n"), ("sim", "initial_state", "t")}


def _leaf_fields(section, path=(), json_path=()):
    """(field path, JSON key path, from JSON, to JSON) of every leaf field a
    config file can set."""
    for f in fields(section):
        field_path = path + (f.name,)
        if field_path in _HIDDEN:
            continue
        keys, from_json, to_json = _FORMS.get(field_path, ((f.name,), _same, _same))
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from _leaf_fields(value, field_path, json_path + keys)
        else:
            yield field_path, json_path + keys, from_json, to_json


_LEAVES = tuple(_leaf_fields(RunConfig()))


def _json_leaves(doc, template: dict, path=()):
    """(JSON key path, value) of every leaf ``doc`` sets, each key checked
    against the document shape ``template``."""
    where = ".".join(path) or "config root"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(template)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, value in doc.items():
        if isinstance(template[key], dict):
            yield from _json_leaves(value, template[key], path + (key,))
        else:
            yield path + (key,), value


def _put(doc: dict, path, value) -> None:
    """``doc[path[0]][path[1]]... = value``, adding the objects on the way."""
    for key in path[:-1]:
        doc = doc.setdefault(key, {})
    doc[path[-1]] = value


def _build(section, changes: dict):
    """``section`` with ``changes`` (nested by field name) applied; each
    dataclass is built once from all of its changes, so its checks see the
    final values together."""
    for name, value in changes.items():
        if isinstance(value, dict):
            changes[name] = _build(getattr(section, name), value)
    return replace(section, **changes)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Every section and key is optional (defaults apply) but no unknown key is
    tolerated anywhere.
    """
    try:
        doc = read_json(path, "config")
    except (OSError, ValueError) as exc:  # a file that cannot be read, or does not parse
        raise ConfigError(str(exc)) from exc
    default = default_config()
    field_of = {keys: (field_path, from_json) for field_path, keys, from_json, _ in _LEAVES}
    changes = {}
    try:
        for keys, value in _json_leaves(doc, config_to_dict(default)):
            field_path, from_json = field_of[keys]
            value = _coerce(value, reduce(getattr, field_path, default), ".".join(keys))
            _put(changes, field_path, from_json(value))
        return _build(default, changes)
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def config_to_dict(config: RunConfig) -> dict:
    """Plain-dict view of a config in the same shape `load_config` accepts."""
    doc = {}
    for field_path, keys, _, to_json in _LEAVES:
        value = reduce(getattr, field_path, config)
        _put(doc, keys, list(value) if isinstance(value, tuple) else to_json(value))
    return doc


def config_sha256(config: RunConfig) -> str:
    return sha256_json(config_to_dict(config))
