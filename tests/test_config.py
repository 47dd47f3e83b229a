import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pendulum_lab import cli
from pendulum_lab.config import (ConfigError, config_sha256, config_to_dict, default_config,
                                 load_config)


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


def leaf_values(default):
    """Values for one leaf around its default: lists of its length, integers
    from 1 and floats across two decades, valid or not."""
    if isinstance(default, list):
        return st.lists(st.floats(-1e3, 1e3), min_size=len(default), max_size=len(default))
    if isinstance(default, int):
        return st.integers(1, max(2, 10 * default))
    if default == 0.0:
        return st.floats(-1.0, 1.0)
    low, high = sorted((default / 10, default * 10))
    return st.floats(low, high)


# documents that set any subset of the leaf keys
DOCS = st.fixed_dictionaries({}, optional={path: leaf_values(value)
                                           for path, value in DEFAULT_LEAVES})


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
        assert config_sha256(default_config()).startswith("78c5174f")

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

    @pytest.mark.parametrize("section, key", [
        (("sim",), "log_decimation"),
        (("anfis",), "epochs"),
        (("anfis",), "train_count"),
        (("anfis",), "test_count"),
        (("anfis",), "seed"),
        (("scenarios", "noise"), "seed"),
    ])
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
        path = write_config(tmp_path / "ok.json", {"sim": {"log_decimation": 2.0}})
        assert load_config(path).sim.log_decimation == 2

    def test_integer_beyond_float_range_kept(self, tmp_path):
        path = write_config(tmp_path / "big.json", {"anfis": {"seed": 10**400}})
        assert load_config(path).anfis.seed == 10**400


class TestCli:
    def test_non_integral_log_decimation_exits_usage(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json", {"sim": {"log_decimation": 2.5}})
        code = cli.main(["design-lqr", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_USAGE == 1
        assert "sim.log_decimation must be an integer" in capsys.readouterr().err

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
