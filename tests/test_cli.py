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

GOLDEN_SHA256 = {
    "benchmark.csv": "cfed0c66beb4666f26278c6136c7ab42240eaf01c1dfce6bb6bcba7ee2d2aeea",
    "benchmark.txt": "9910e56934eccb46c9791b4d2f7a4489423c46edaa73a58307ef7266f3f06c33",
}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


def test_short_benchmark_golden(tmp_path):
    config = write_config(tmp_path / "short.json", SHORT_BENCHMARK)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_OK
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


def _design_lqr_default(tmp_path):
    return cli.main(["design-lqr", "--out", str(tmp_path / "out")])


def _unknown_config_key(tmp_path):
    config = write_config(tmp_path / "bad.json", {"sim": {"no_such_key": 1}})
    return cli.main(["design-lqr", "--config", str(config), "--out", str(tmp_path / "out")])


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


def _gen_data_on_truncated_design(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["design-lqr", "--out", str(out)]) == cli.EXIT_OK
    _truncate(out / cli.DESIGN_FILE)
    return cli.main(["gen-data", "--out", str(out)])


# each stderr fragment must appear; no fragments means stderr stays empty
@pytest.mark.parametrize("run, code, stderr", [
    (_design_lqr_default, cli.EXIT_OK, ()),
    (_unknown_config_key, cli.EXIT_USAGE, ("config error",)),
    (_benchmark_without_artifacts, cli.EXIT_USAGE, ("missing artifact",)),
    (_train_on_too_few_rows, cli.EXIT_NUMERICAL,
     ("dataset too small: 10 training rows for 80 consequent parameters",)),
    (_tsla_with_three_inputs, cli.EXIT_USAGE,
     ("bad artifact: ", "anfis_model.json: TS-LA model must take the 4 deviation inputs, got 3")),
    (_tsla_with_truncated_model, cli.EXIT_USAGE, ("bad artifact: malformed model file",)),
    (_gen_data_on_truncated_design, cli.EXIT_USAGE, ("bad artifact: ", "lqr_design.json: ")),
], ids=["ok", "unknown-config-key", "benchmark-without-artifacts", "train-too-few-rows",
        "tsla-three-inputs", "tsla-truncated-model", "gen-data-truncated-design"])
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
