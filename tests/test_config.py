import json

import pytest

from pendulum_lab import cli
from pendulum_lab.config import (ConfigError, config_sha256, config_to_dict, default_config,
                                 load_config)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


class TestLoadConfig:
    def test_default_round_trip(self, tmp_path):
        path = write_config(tmp_path / "default.json", config_to_dict(default_config()))
        assert load_config(path) == default_config()

    def test_default_hash_is_stable(self):
        # manifests record this hash; a change to it means every recorded run changed meaning
        assert config_sha256(default_config()).startswith("78c5174f")

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
        assert len(stop_lines) == 1

        model = json.loads((tmp_path / "out" / cli.MODEL_FILE).read_text())
        assert "stop_epoch" not in model["metadata"]
        header = (tmp_path / "out" / "rmse_history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_rmse,test_rmse"
