import json
import math
import re
import tracemalloc
from dataclasses import fields
from functools import reduce

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pendulum_lab import cli
from pendulum_lab.anfis import Stage1Config
from pendulum_lab.config import (_LEAVES, ConfigError, config_sha256, config_to_dict,
                                 default_config, load_config)
from pendulum_lab.pipeline import check_metrics_span
from pendulum_lab.scenarios import ImpulseSpec


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


def leaves(doc, path=()):
    """(key path, value) for every non-object value of a config document."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,), value


def nested(path, value):
    """The document that sets only ``path`` to ``value``."""
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return doc


DEFAULT_LEAVES = list(leaves(config_to_dict(default_config())))
SECTIONS = [(), ("physical",), ("sim",), ("sim", "initial_state"), ("lqr",), ("pi",), ("pid",),
            ("anfis",), ("anfis", "stage1"), ("scenarios",), ("scenarios", "impulse"),
            ("scenarios", "noise"), ("scenarios", "metrics")]


def leaf_field(field_path):
    """The dataclass field behind the config field path ``field_path``."""
    section = reduce(getattr, field_path[:-1], default_config())
    return next(f for f in fields(section) if f.name == field_path[-1])


# JSON key path -> (field path, field, to JSON) of every leaf a config file can set
LEAF_FIELDS = {keys: (field_path, leaf_field(field_path), to_json)
               for field_path, keys, _, to_json in _LEAVES}
# the leaves that declare a domain of their own
DOMAINS = {keys: leaf for keys, leaf in LEAF_FIELDS.items() if "domain" in leaf[1].metadata}


def within(domain, default):
    """Values inside ``domain``: integers from its lower bound to ten times the default
    (a count far past that outgrows the stage-1 rows), or any finite float between its
    bounds."""
    if domain.get("integer"):
        return st.integers(domain["ge"], max(2, 10 * default))
    return st.floats(domain.get("gt", domain.get("ge")), domain.get("lt", domain.get("le")),
                     exclude_min="gt" in domain, exclude_max="lt" in domain,
                     allow_nan=False, allow_infinity=False)


def leaf_values(path, default):
    """Values for the leaf at ``path``: a key with a domain draws from inside it, in its
    JSON form; the others (the horizons, the start state and the repeat magnitudes,
    which checks across keys cover) draw around their default, valid or not: lists of
    its length and floats across two decades."""
    if path in DOMAINS:
        _, f, to_json = DOMAINS[path]
        domain = f.metadata["domain"]
        if isinstance(default, list):
            return st.lists(within(domain, None), min_size=len(default), max_size=len(default))
        return within(domain, default).map(to_json)
    if isinstance(default, list):
        return st.lists(st.floats(-1e3, 1e3), min_size=len(default), max_size=len(default))
    if default == 0.0:
        return st.floats(-1.0, 1.0)
    low, high = sorted((default / 10, default * 10))
    return st.floats(low, high)


# documents that set any subset of the leaf keys
DOCS = st.fixed_dictionaries({}, optional={path: leaf_values(path, value)
                                           for path, value in DEFAULT_LEAVES})


def bound_cases():
    """(JSON key path, bound key) of every bound a declared domain sets."""
    for keys, (_, f, _) in DOMAINS.items():
        for key in ("gt", "ge", "lt", "le"):
            if key in f.metadata["domain"]:
                yield pytest.param(keys, key, id=f"{'.'.join(keys)}-{key}")


def document(values):
    """The document that sets each key path of ``values`` to its value."""
    doc = {}
    for path, value in values.items():
        section = doc
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return doc


class TestLoadConfig:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example({("scenarios", "metrics", "settle_band_deg"): 2.3})
    @example({("sim", "initial_state", "theta_dev"): 0.1})
    @given(values=DOCS)
    def test_round_trip(self, tmp_path, values):
        try:
            config = load_config(write_config(tmp_path / "drawn.json", document(values)))
        except ConfigError:
            assume(False)
        again = load_config(write_config(tmp_path / "again.json", config_to_dict(config)))
        assert again == config

    def test_default_round_trip(self, tmp_path):
        path = write_config(tmp_path / "default.json", config_to_dict(default_config()))
        assert load_config(path) == default_config()

    def test_default_hash_is_stable(self):
        # manifests record this hash; a change to it means every recorded run changed meaning
        assert config_sha256(default_config()).startswith("1d632fdf")

    @pytest.mark.parametrize("path, value", DEFAULT_LEAVES,
                             ids=[".".join(path) for path, _ in DEFAULT_LEAVES])
    def test_each_default_leaf_loads_alone(self, tmp_path, path, value):
        assert load_config(write_config(tmp_path / "one.json", nested(path, value))) \
            == default_config()

    @pytest.mark.parametrize("section", SECTIONS, ids=[".".join(s) or "root" for s in SECTIONS])
    def test_unknown_key_rejected_in_every_section(self, tmp_path, section):
        doc = nested(section + ("no_such_key",), 1.0)
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path / "bad.json", doc))

    # dataclass fields that a config file cannot set, or can set only under another name
    @pytest.mark.parametrize("path", [
        ("pi", "kd"), ("pi", "filter_n"), ("sim", "initial_state", "t"),
        ("sim", "initial_state", "theta"), ("scenarios", "metrics", "settle_band"),
        ("scenarios", "metrics", "rise_low"), ("scenarios", "metrics", "rise_high"),
        ("scenarios", "impulse_repeat_magnitudes"), ("scenarios", "noise_horizon"),
        ("scenarios", "bands"),
    ], ids=".".join)
    def test_hidden_field_rejected(self, tmp_path, path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path / "bad.json", nested(path, 0.1)))

    @pytest.mark.parametrize("section", SECTIONS, ids=[".".join(s) or "root" for s in SECTIONS])
    @pytest.mark.parametrize("value", [[], 3.0, "x"], ids=["list", "number", "string"])
    def test_non_object_section_rejected(self, tmp_path, section, value):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "bad.json", nested(section, value)))

    def test_q_diag_needs_four_entries(self, tmp_path):
        path = write_config(tmp_path / "bad.json", {"lqr": {"q_diag": [1.0, 0.0, 1.0]}})
        with pytest.raises(ConfigError, match="4 entries"):
            load_config(path)

    def test_section_is_checked_on_its_final_values(self, tmp_path):
        # the horizon is only valid against the dt given beside it, not against the default dt
        path = write_config(tmp_path / "short.json", {"sim": {"horizon": 0.0005, "dt": 0.0001}})
        sim = load_config(path).sim
        assert (sim.horizon, sim.dt) == (0.0005, 0.0001)

    # the ids pytest gave these cases while sim.log_decimation was the first of them
    @pytest.mark.parametrize("section, key", [
        (("anfis",), "epochs"),
        (("anfis",), "train_count"),
        (("anfis",), "test_count"),
        (("anfis",), "seed"),
        (("scenarios", "noise"), "seed"),
    ], ids=["section1-epochs", "section2-train_count", "section3-test_count", "section4-seed",
            "section5-seed"])
    @pytest.mark.parametrize("value", [2.5, True, "2.5"])
    def test_non_integral_integer_rejected(self, tmp_path, section, key, value):
        doc = leaf = {}
        for name in section:
            leaf = leaf.setdefault(name, {})
        leaf[key] = value
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "bad.json", doc))

    @pytest.mark.parametrize("doc, message", [
        ({"lqr": {"r": True}}, "lqr.r must be a number, got True"),
        ({"sim": {"dt": "1e-3"}}, "sim.dt must be a number, got '1e-3'"),
        ({"physical": {"cart_mass": False}}, "physical.cart_mass must be a number"),
        ({"lqr": {"q_diag": [1200.0, 0.0, "100", 0.0]}}, "lqr.q_diag must be a number"),
        ({"lqr": {"q_diag": [1200.0, True, 100.0, 0.0]}}, "lqr.q_diag must be a number"),
        ({"lqr": {"q_diag": "1234"}}, "lqr.q_diag must be a list of numbers"),
        ({"anfis": {"seed": "2"}}, "anfis.seed must be a number"),
        ({"lqr": {"r": 10**400}}, "int too large to convert to float"),
    ], ids=["float-boolean", "float-string", "float-false", "tuple-string-entry",
            "tuple-boolean-entry", "tuple-as-string", "integer-string", "float-overflow"])
    def test_non_number_rejected(self, tmp_path, doc, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path / "bad.json", doc))

    def test_integral_float_accepted(self, tmp_path):
        path = write_config(tmp_path / "ok.json", {"anfis": {"epochs": 2.0}})
        assert load_config(path).anfis.epochs == 2

    def test_integer_beyond_float_range_kept(self, tmp_path):
        path = write_config(tmp_path / "big.json", {"anfis": {"seed": 10**400}})
        assert load_config(path).anfis.seed == 10**400


class TestDomains:
    def test_every_leaf_declares_a_domain_but_the_cross_checked_ones(self):
        # these 8 are held by checks across keys: each horizon against sim.dt, the start
        # box, and the repeat magnitudes through the impulse's declared magnitude
        assert sorted(set(LEAF_FIELDS) - set(DOMAINS)) == sorted([
            ("sim", "horizon"), ("anfis", "stage1", "horizon"), ("scenarios", "noise", "horizon"),
            ("sim", "initial_state", "x"), ("sim", "initial_state", "x_dot"),
            ("sim", "initial_state", "theta_dev"), ("sim", "initial_state", "theta_dot"),
            ("scenarios", "impulse", "repeat_magnitudes")])
        assert len(DOMAINS) == 33

    @pytest.mark.parametrize("keys, key", bound_cases())
    def test_every_bound_is_the_edge_of_what_loads(self, tmp_path, keys, key):
        # the nearest value outside fails, naming the field: an open bound itself, or the
        # next float (or integer) past a closed one, which loads when it is the only key set
        field_path, f, to_json = DOMAINS[keys]
        domain, many = f.metadata["domain"], isinstance(f.default, tuple)
        bound, away = domain[key], -1.0 if key in ("gt", "ge") else 1.0

        def doc(value):
            return nested(keys, [value] * len(f.default) if many else to_json(value))

        if key in ("gt", "lt"):
            outside = bound
        elif domain.get("integer"):
            outside = bound + int(away)
        else:
            outside = math.nextafter(bound, away * math.inf)
        with pytest.raises(ConfigError, match=re.escape(f"{f.name} must be ")):
            load_config(write_config(tmp_path / "outside.json", doc(outside)))
        if key in ("ge", "le"):
            loaded = reduce(getattr, field_path, load_config(write_config(tmp_path / "edge.json",
                                                                          doc(bound))))
            assert loaded == ((bound,) * len(f.default) if many else bound)

    @pytest.mark.parametrize("keys", [keys for keys, (_, f, _) in DOMAINS.items()
                                      if not f.metadata["domain"].get("integer")],
                             ids=".".join)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_float_domain_is_finite(self, tmp_path, keys, value):
        _, f, to_json = DOMAINS[keys]
        value = [value] * len(f.default) if isinstance(f.default, tuple) else to_json(value)
        with pytest.raises(ConfigError, match=re.escape(f"{f.name} must be ")):
            load_config(write_config(tmp_path / "bad.json", nested(keys, value)))

    def test_sections_built_in_code_are_checked(self):
        with pytest.raises(ValueError, match="magnitude must be finite, got inf"):
            ImpulseSpec(magnitude=math.inf)
        with pytest.raises(ValueError, match=re.escape("impulse_magnitudes must be finite, "
                                                       "got [nan]")):
            Stage1Config(impulse_magnitudes=(math.nan,))

    def test_a_fine_step_loads_without_its_grid(self, tmp_path):
        # a 1 us step over the 40 s default horizon is a grid of 40 million times
        path = write_config(tmp_path / "fine.json", {"sim": {"dt": 1e-6}})
        tracemalloc.start()
        try:
            check_metrics_span(load_config(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, peak


class TestCli:
    def test_non_integral_integer_exits_usage(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {"anfis": {"epochs": 2.5}})
        code = cli.main(["design-lqr", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE == 1
        assert "anfis.epochs must be an integer" in capsys.readouterr().err

    def test_train_reports_stop_epoch_outside_artifacts(self, tmp_path, capsys):
        short = {"anfis": {"train_count": 200, "test_count": 20,
                           "stage1": {"horizon": 3.0}}}
        args = ["--config", str(write_config(tmp_path / "short.json", short)),
                "--out", str(tmp_path / "out")]
        for command in ("design-lqr", "gen-data", "train"):
            assert cli.main([command, *args]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        stop_lines = [ln for ln in lines if ln.startswith(("stopped after epoch", "ran all"))]
        # the logged LQR law is affine, so the first solve already fits it to rounding
        assert stop_lines == ["stopped after epoch 0: train RMSE reached the rounding floor,"
                              " so a later epoch could only move it by rounding noise"]

        model = json.loads((tmp_path / "out" / cli.MODEL_FILE).read_text())
        assert "stop_epoch" not in model["metadata"]
        header = (tmp_path / "out" / "rmse_history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_rmse,test_rmse"
