"""End-to-end checks through `cli.main`: a short benchmark golden and the exit codes."""

import copy
import hashlib
import json

import pytest

from pendulum_lab import cli

# Short horizons and a 200-row dataset keep `benchmark --auto` to a few seconds while still
# running every stage, both impulse magnitudes and the noise cell for PI, PID and TS-LA.
SHORT_BENCHMARK = {
    "sim": {"horizon": 12.0},
    "anfis": {"train_count": 200, "test_count": 20, "stage1": {"horizon": 3.0}},
    "scenarios": {"impulse": {"onset": 1.0, "repeat_magnitudes": [10.0, 60.0]},
                  "noise": {"horizon": 12.0}},
}

# every artifact of the short run; the manifests are left out, as they hold the config's path
GOLDEN_SHA256 = {
    "lqr_design.json": "04bf712e38d7e8b777a5bcf7d30ca99624d3cc370bb7d695c01b4134379218ee",
    "dataset.csv": "0a1845a535585e4ecdc1293829a2e31e4dab680f6f78e254569a89772a5620ab",
    "dataset_split.json": "72874af59ea8c259f1c56a7f5c4493498fe0816b784950d86a6b96be7bf765e1",
    "anfis_model.json": "384d22010784c0118203ab71c7a36d55c4d89aef989f3df0698662a71f04f67c",
    "rmse_history.csv": "23ce04801e7f7eeecd128ca8cde8c608f17cdf353bac594db86c99c0708e5423",
    "benchmark.csv": "a6399dcc90cd7c295d9fd2a0b98237bfe278e740912b92c19e1ccc19d129fd86",
    "benchmark.txt": "42da2a259aecc5960db5bda6d57b8ce5910e13341f67ce84171dfa5d97ce4696",
}

DERIVE_SHA256 = {
    "derive_report.json": "fc80b87ca6237bb8f7794c97290dfb1e00852fa94a95243567aec9e47b8f300f",
    "poles.csv": "d5528a77304b098189dc32e49cf2bc7ee39b344c56926fd318a396f1c1c947c7",
    "root_locus.csv": "e966226765c80129a49e0d122b5718d9d38e799fc707c2fc2a934f9a4e1ae3de",
    "derive_manifest.json": "3c023a9137ba649fdd8911bfbf30145669b7deec35f866d2de48538a874f2c0a",
}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


def sha256_of(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_short_benchmark_golden(tmp_path):
    config = write_config(tmp_path / "short.json", SHORT_BENCHMARK)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert sha256_of(out, GOLDEN_SHA256) == GOLDEN_SHA256


def test_default_derive_golden(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["derive", "--out", str(out)]) == cli.EXIT_OK
    assert sha256_of(out, DERIVE_SHA256) == DERIVE_SHA256


def _design_lqr_default(tmp_path):
    return cli.main(["design-lqr", "--out", str(tmp_path / "out")])


def _unknown_config_key(tmp_path):
    config = write_config(tmp_path / "bad.json", {"sim": {"no_such_key": 1}})
    return cli.main(["design-lqr", "--config", str(config), "--out", str(tmp_path / "out")])


def _benchmark_with(doc):
    def run(tmp_path):
        config = write_config(tmp_path / "config.json", doc)
        return cli.main(["benchmark", "--auto", "--config", str(config),
                         "--out", str(tmp_path / "out")])
    return run


def _benchmark_without_artifacts(tmp_path):
    return cli.main(["benchmark", "--out", str(tmp_path / "empty")])


def _train_on_too_few_rows(tmp_path):
    config = write_config(tmp_path / "tiny.json", {"anfis": {"train_count": 10}})
    args = ["--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(["design-lqr", *args]) == cli.EXIT_OK
    assert cli.main(["gen-data", *args]) == cli.EXIT_OK
    return cli.main(["train", *args])


def _tsla_with_three_inputs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    mf = {"kind": "gbell", "a": 1.0, "b": 2.0, "c": 0.0}
    doc = {"premises": [[mf], [mf], [mf]], "consequents": [[0.0, 0.0, 0.0, 0.0]],
           "input_ranges": [[-1.0, 1.0]] * 3, "metadata": {}}
    (out / cli.MODEL_FILE).write_text(json.dumps(doc))
    return cli.main(["simulate", "--controller", "tsla", "--scenario", "impulse",
                     "--out", str(out)])


def _truncate(path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def _tsla_with_truncated_model(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    mf = {"kind": "gbell", "a": 1.0, "b": 2.0, "c": 0.0}
    doc = {"premises": [[mf]] * 4, "consequents": [[0.0] * 5],
           "input_ranges": [[-1.0, 1.0]] * 4, "metadata": {}}
    (out / cli.MODEL_FILE).write_text(json.dumps(doc))
    _truncate(out / cli.MODEL_FILE)
    return cli.main(["simulate", "--controller", "tsla", "--scenario", "impulse",
                     "--out", str(out)])


def _tsla_with_non_object_model(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / cli.MODEL_FILE).write_text("[1, 2]\n")
    return cli.main(["simulate", "--controller", "tsla", "--scenario", "impulse",
                     "--out", str(out)])


def _tsla_with_wrongly_typed_model(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    doc = {"premises": 3, "consequents": [], "input_ranges": [], "metadata": {}}
    (out / cli.MODEL_FILE).write_text(json.dumps(doc))
    return cli.main(["simulate", "--controller", "tsla", "--scenario", "impulse",
                     "--out", str(out)])


def _benchmark_on_model_with(mf_changes, section_changes):
    """`benchmark` on a 4-input, one-rule model file whose first membership function
    takes ``mf_changes`` and whose sections take ``section_changes``."""
    def run(tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        mf = {"kind": "gbell", "a": 1.0, "b": 2.0, "c": 0.0}
        doc = {"premises": [[{**mf, **mf_changes}]] + [[mf]] * 3, "consequents": [[0.0] * 5],
               "input_ranges": [[-1.0, 1.0]] * 4, "metadata": {}, **section_changes}
        (out / cli.MODEL_FILE).write_text(json.dumps(doc))
        return cli.main(["benchmark", "--out", str(out)])
    return run


def _design_lqr_with(doc):
    def run(tmp_path):
        config = write_config(tmp_path / "config.json", doc)
        return cli.main(["design-lqr", "--config", str(config), "--out", str(tmp_path / "out")])
    return run


def _train_on_empty_dataset(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["design-lqr", "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["gen-data", "--out", str(out)]) == cli.EXIT_OK
    (out / cli.DATASET_FILE).write_text("")
    return cli.main(["train", "--out", str(out)])


def _gen_data_on_truncated_design(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["design-lqr", "--out", str(out)]) == cli.EXIT_OK
    _truncate(out / cli.DESIGN_FILE)
    return cli.main(["gen-data", "--out", str(out)])


# each stderr fragment must appear; no fragments means stderr stays empty
@pytest.mark.parametrize("run, code, stderr", [
    (_design_lqr_default, cli.EXIT_OK, ()),
    (_unknown_config_key, cli.EXIT_USAGE, ("config error",)),
    (_benchmark_with({"anfis": {"train_count": -5}}), cli.EXIT_USAGE,
     ("config error", "train_count must be >= 1, got -5")),
    (_benchmark_with({"anfis": {"test_count": 0}}), cli.EXIT_USAGE,
     ("config error", "test_count must be >= 1, got 0")),
    (_benchmark_with({"anfis": {"epochs": 0}}), cli.EXIT_USAGE,
     ("config error", "epochs must be >= 1")),
    (_benchmark_with({"anfis": {"learning_rate": -1}}), cli.EXIT_USAGE,
     ("config error", "learning_rate must be > 0")),
    (_benchmark_without_artifacts, cli.EXIT_USAGE, ("missing artifact",)),
    (_train_on_too_few_rows, cli.EXIT_NUMERICAL,
     ("dataset too small: 10 training rows for 80 consequent parameters",)),
    (_tsla_with_three_inputs, cli.EXIT_USAGE,
     ("bad artifact: ", "anfis_model.json: TS-LA model must take the 4 deviation inputs, got 3")),
    (_tsla_with_truncated_model, cli.EXIT_USAGE, ("bad artifact: malformed model file",)),
    (_tsla_with_non_object_model, cli.EXIT_USAGE,
     ("bad artifact: malformed model file", "not a JSON object")),
    (_tsla_with_wrongly_typed_model, cli.EXIT_USAGE,
     ("bad artifact: malformed model file", "'int' object is not iterable")),
    (_benchmark_on_model_with({"a": True}, {}), cli.EXIT_USAGE,
     ("bad artifact: malformed model file", "expected a number, got True")),
    (_benchmark_on_model_with({}, {"metadata": [1, 2]}), cli.EXIT_USAGE,
     ("bad artifact: malformed model file", "metadata must be a JSON object")),
    (_train_on_empty_dataset, cli.EXIT_USAGE, ("bad artifact: ", "unexpected dataset header None")),
    (_gen_data_on_truncated_design, cli.EXIT_USAGE, ("bad artifact: ", "lqr_design.json: ")),
    (_design_lqr_with({"lqr": {"r": True}, "sim": {"dt": "1e-3"}}), cli.EXIT_USAGE,
     ("config error", "must be a number")),
], ids=["ok", "unknown-config-key", "negative-train-count", "zero-test-count", "zero-epochs",
        "negative-learning-rate", "benchmark-without-artifacts", "train-too-few-rows",
        "tsla-three-inputs", "tsla-truncated-model", "tsla-non-object-model",
        "tsla-wrongly-typed-model", "benchmark-on-boolean-width", "benchmark-on-list-metadata",
        "train-on-empty-dataset", "gen-data-truncated-design",
        "float-key-as-boolean-and-string"])
def test_exit_codes(tmp_path, capsys, run, code, stderr):
    assert run(tmp_path) == code
    err = capsys.readouterr().err
    for fragment in stderr:
        assert fragment in err
    if not stderr:
        assert err == ""


def test_diverged_cells_exit_3(tmp_path, capsys):
    # a 1e5 N knock topples every controller; the 10 N cells and the noise cells still recover.
    # The two impulse cells of a controller share their run up to the onset, so this also
    # checks that each branch carries its own divergence flag.
    doc = copy.deepcopy(SHORT_BENCHMARK)
    doc["scenarios"]["impulse"]["repeat_magnitudes"] = [10.0, 1e5]
    config = write_config(tmp_path / "knock.json", doc)
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED_CELLS
    lines = capsys.readouterr().out.splitlines()
    assert "diverged cells: PI/impulse@100000, PID/impulse@100000, TS-LA/impulse@100000" in lines
    cells = [line for line in lines if line.startswith("diverged cells: ")][0]
    assert not [c for c in cells.split(": ")[1].split(", ") if c.endswith("@10")]
