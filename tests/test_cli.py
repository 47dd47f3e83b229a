"""End-to-end checks through `cli.main`: a short benchmark golden and the exit codes."""

import copy
import csv
import hashlib
import json
import math

import pytest

from pendulum_lab import cli, simulate

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
    "benchmark.csv": "4f41352cd295490a79e057f10935e3de15921d6987235910db13713e9e622580",
    "benchmark.txt": "48da8a4bbda01c5ddf31de6bd8d4baaa9ebb580d358700c74981a893eb4f587c",
}

DERIVE_SHA256 = {
    "derive_report.json": "fc80b87ca6237bb8f7794c97290dfb1e00852fa94a95243567aec9e47b8f300f",
    "poles.csv": "d5528a77304b098189dc32e49cf2bc7ee39b344c56926fd318a396f1c1c947c7",
    "root_locus.csv": "e966226765c80129a49e0d122b5718d9d38e799fc707c2fc2a934f9a4e1ae3de",
    "derive_manifest.json": "b5435a337b2fa6c7419f9c1b8d37855f7658cdb107c66047aeede922420782eb",
}


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return path


def sha256_of(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_short_benchmark_golden(tmp_path, capsys):
    config = write_config(tmp_path / "short.json", SHORT_BENCHMARK)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    # PI's linear loop is unstable, and PID cannot catch the 60 N knock
    assert code == cli.EXIT_DIVERGED_CELLS
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "fell cells: PI/impulse@10, PI/impulse@60, PI/noise, PID/impulse@60"
    assert sha256_of(out, GOLDEN_SHA256) == GOLDEN_SHA256


def test_benchmark_auto_parses_the_config_once(tmp_path, monkeypatch):
    # the stages that --auto runs take the config that main parsed
    loads, load = [], cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda path: loads.append(path) or load(path))
    config = write_config(tmp_path / "short.json", SHORT_BENCHMARK)
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_DIVERGED_CELLS
    assert loads == [config]


# `simulate` logs whose bits no BLAS kernel sets: PID under the short config, whose
# rows before the onset repeat, and open loop under the default one, which rests for
# 20 s, is knocked and falls
@pytest.mark.parametrize("controller, doc, digest", [
    ("pid", SHORT_BENCHMARK, "61ca7cc1043a67bb4a3df5db38bb89032b501e6c9e11af9922355385011bdca0"),
    ("none", {}, "3e1ce6646564e12edb3de2674675803b353d716fea361909ed3c825e1dff3f80"),
], ids=["pid-short", "none-default"])
def test_simulate_impulse_golden(tmp_path, capsys, controller, doc, digest):
    config = write_config(tmp_path / "config.json", doc)
    code = cli.main(["simulate", "--controller", controller, "--scenario", "impulse",
                     "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    name = f"timeseries_{controller}_impulse.csv"
    assert sha256_of(tmp_path, [name]) == {name: digest}


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


def _derive_with_missing_config(tmp_path):
    code = cli.main(["derive", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    return code


def _train_on_too_few_rows(tmp_path):
    """`train` on a split file cut to 10 training rows: a config cannot ask for so few, so
    the split is cut after `gen-data`."""
    out = tmp_path / "out"
    assert cli.main(["design-lqr", "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["gen-data", "--out", str(out)]) == cli.EXIT_OK
    split = json.loads((out / cli.SPLIT_FILE).read_text())
    split["train_indices"] = split["train_indices"][:10]
    (out / cli.SPLIT_FILE).write_text(json.dumps(split))
    return cli.main(["train", "--out", str(out)])


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


def _gen_data_with(doc):
    """`gen-data` under ``doc`` on the default design."""
    def run(tmp_path):
        out = tmp_path / "out"
        assert cli.main(["design-lqr", "--out", str(out)]) == cli.EXIT_OK
        config = write_config(tmp_path / "config.json", doc)
        return cli.main(["gen-data", "--config", str(config), "--out", str(out)])
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


def _benchmark_rejected_with(doc):
    """`benchmark --auto` under ``doc``, which the config load rejects before any stage,
    so --out stays empty."""
    def run(tmp_path):
        code = _benchmark_with(doc)(tmp_path)
        assert list((tmp_path / "out").glob("*")) == []
        return code
    return run


def _simulate_rejected_with(doc):
    """`simulate --controller pid --scenario noise` under ``doc``, which the config load
    rejects before the run, so --out stays empty."""
    def run(tmp_path):
        config = write_config(tmp_path / "config.json", doc)
        code = cli.main(["simulate", "--controller", "pid", "--scenario", "noise",
                         "--config", str(config), "--out", str(tmp_path / "out")])
        assert list((tmp_path / "out").glob("*")) == []
        return code
    return run


def _rejected_seed_flag(*argv):
    """The command ``argv`` with ``--seed -1``, which the config load rejects before any
    stage, so --out stays empty."""
    def run(tmp_path):
        code = cli.main([*argv, "--seed", "-1", "--out", str(tmp_path / "out")])
        assert list((tmp_path / "out").glob("*")) == []
        return code
    return run


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
    (_benchmark_without_artifacts, cli.EXIT_USAGE,
     ("missing artifact: ", "anfis_model.json (run the earlier pipeline stages or pass --auto)")),
    (_derive_with_missing_config, cli.EXIT_USAGE,
     ("config error: ", "No such file or directory", "nope.json")),
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
    (_design_lqr_with({"lqr": {"r": 0.0}}), cli.EXIT_USAGE,
     ("config error", "lqr.r must be > 0, got 0.0")),
    (_design_lqr_with({"lqr": {"r": float("inf")}}), cli.EXIT_USAGE,
     ("config error", "lqr.r must be > 0, got inf")),
    (_design_lqr_with({"lqr": {"q_diag": [1200.0, -1.0, 100.0, 0.0]}}), cli.EXIT_USAGE,
     ("config error", "lqr.q_diag entries must be >= 0")),
    (_gen_data_with({"anfis": {"stage1": {"horizon": 0.0005}}}), cli.EXIT_USAGE,
     ("config error", "anfis.stage1.horizon must be >= sim.dt (0.001), got 0.0005")),
    (_gen_data_with({"anfis": {"stage1": {"impulse_onset": -1.0}}}), cli.EXIT_USAGE,
     ("config error", "anfis.stage1.impulse_onset must be >= 0, got -1.0")),
    (_gen_data_with({"anfis": {"stage1": {"initial_theta_devs": [], "impulse_magnitudes": []}}}),
     cli.EXIT_USAGE, ("config error", "anfis.stage1 needs at least one run")),
    (_gen_data_with({"anfis": {"stage1": {"impulse_magnitudes": [math.inf]}}}), cli.EXIT_USAGE,
     ("config error", "anfis.stage1.impulse_magnitudes must be finite, got [inf]")),
    (_benchmark_rejected_with({"scenarios": {"impulse": {"repeat_magnitudes": [math.inf]}}}),
     cli.EXIT_USAGE,
     ("config error", "scenarios.impulse.repeat_magnitudes: magnitude must be finite, got inf")),
    (_benchmark_rejected_with({"anfis": {"train_count": 60, "test_count": 1}}), cli.EXIT_USAGE,
     ("config error", "anfis.train_count must be >= 80, the model's consequent parameters, "
      "got 60")),
    (_gen_data_with({"anfis": {"train_count": 200000}}), cli.EXIT_USAGE,
     ("config error", "anfis.train_count + anfis.test_count is 200091, but stage 1 logs "
      "108009 rows: 9 runs of 12001")),
    (_benchmark_rejected_with({"scenarios": {"noise": {"seed": -1}}}), cli.EXIT_USAGE,
     ("config error", "seed must be a non-negative integer, got -1")),
    (_simulate_rejected_with({"scenarios": {"noise": {"seed": -1}}}), cli.EXIT_USAGE,
     ("config error", "seed must be a non-negative integer, got -1")),
    (_benchmark_rejected_with({"anfis": {"seed": -1}}), cli.EXIT_USAGE,
     ("config error", "anfis.seed must be a non-negative integer, got -1")),
    (_rejected_seed_flag("simulate", "--controller", "pid", "--scenario", "noise"),
     cli.EXIT_USAGE, ("config error: --seed: ", "seed must be a non-negative integer, got -1")),
    (_rejected_seed_flag("benchmark", "--auto"), cli.EXIT_USAGE,
     ("config error: --seed: ", "seed must be a non-negative integer, got -1")),
    (_benchmark_rejected_with({"anfis": {"stage1": {"initial_theta_devs": [math.nan]}}}),
     cli.EXIT_USAGE,
     ("config error", "anfis.stage1.initial_theta_devs must be finite, got [nan]")),
    (_benchmark_rejected_with({"scenarios": {"metrics": {"drift_slope": -1.0}}}),
     cli.EXIT_USAGE, ("config error", "drift_slope must be finite and >= 0, got -1.0")),
    (_benchmark_rejected_with({"scenarios": {"metrics": {"drift_slope": math.nan}}}),
     cli.EXIT_USAGE, ("config error", "drift_slope must be finite and >= 0, got nan")),
    (_benchmark_rejected_with({"scenarios": {"metrics": {"settle_band_deg": math.inf}}}),
     cli.EXIT_USAGE, ("config error", "settle_band must be finite and > 0, got inf")),
    (_benchmark_rejected_with({"anfis": {"learning_rate": math.inf}}), cli.EXIT_USAGE,
     ("config error", "anfis.learning_rate must be > 0, got inf")),
    (_benchmark_rejected_with({"sim": {"initial_state": {"x": 2e6}}}), cli.EXIT_USAGE,
     ("config error", "initial_state must have |x|, |x_dot| and |theta_dot| <= 1e+06",
      "x=2000000.0")),
    (_benchmark_rejected_with({"sim": {"initial_state": {"theta_dev": 2.0}}}), cli.EXIT_USAGE,
     ("config error", "initial_state must have ", "|theta - pi| <= pi/2")),
    (_simulate_rejected_with({"sim": {"initial_state": {"theta_dev": 2.0}}}), cli.EXIT_USAGE,
     ("config error", "initial_state must have ", "|theta - pi| <= pi/2")),
    (_benchmark_rejected_with({"anfis": {"stage1": {"initial_theta_devs": [2.0]}}}),
     cli.EXIT_USAGE, ("config error", "anfis.stage1.initial_theta_devs must be within +-pi/2, "
                      "got [2.0]")),
    (_benchmark_rejected_with({"sim": {"log_decimation": 3}}), cli.EXIT_USAGE,
     ("config error", "unknown keys in sim: ['log_decimation']")),
], ids=["ok", "unknown-config-key", "negative-train-count", "zero-test-count", "zero-epochs",
        "negative-learning-rate", "benchmark-without-artifacts", "derive-missing-config",
        "train-too-few-rows",
        "tsla-three-inputs", "tsla-truncated-model", "tsla-non-object-model",
        "tsla-wrongly-typed-model", "benchmark-on-boolean-width", "benchmark-on-list-metadata",
        "train-on-empty-dataset", "gen-data-truncated-design",
        "float-key-as-boolean-and-string", "zero-lqr-r", "infinite-lqr-r",
        "negative-q-diag-entry", "stage1-horizon-below-dt", "negative-stage1-onset",
        "stage1-without-runs", "infinite-stage1-magnitude", "infinite-repeat-magnitude",
        "train-count-below-consequents", "dataset-beyond-stage1-rows",
        "benchmark-negative-noise-seed", "simulate-negative-noise-seed",
        "benchmark-negative-anfis-seed", "simulate-negative-seed-flag",
        "benchmark-negative-seed-flag", "nan-stage1-theta-dev", "negative-drift-slope",
        "nan-drift-slope", "infinite-settle-band", "infinite-learning-rate",
        "start-past-divergence-box", "start-past-horizontal", "simulate-start-past-horizontal",
        "stage1-start-past-horizontal", "removed-log-decimation"])
def test_exit_codes(tmp_path, capsys, run, code, stderr):
    assert run(tmp_path) == code
    err = capsys.readouterr().err
    for fragment in stderr:
        assert fragment in err
    if not stderr:
        assert err == ""


def _knock_benchmark(tmp_path):
    """`benchmark --auto` with a 1e5 N knock next to the 10 N one: the exit code and the
    rows of benchmark.csv."""
    doc = copy.deepcopy(SHORT_BENCHMARK)
    doc["scenarios"]["impulse"]["repeat_magnitudes"] = [10.0, 1e5]
    config = write_config(tmp_path / "knock.json", doc)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    with open(out / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, rows


def test_diverged_cells_exit_3(tmp_path, capsys, monkeypatch):
    # the knock throws every cart past 50 m/s before its pendulum falls; the 10 N and noise
    # cells stay inside that limit.  The two impulse cells of a controller share their run up
    # to the onset, so this also checks that each branch carries its own outcome.
    monkeypatch.setattr(simulate, "DIVERGENCE_LIMIT", 50.0)
    code, rows = _knock_benchmark(tmp_path)
    assert code == cli.EXIT_DIVERGED_CELLS
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "fell cells: PI/impulse@10, PI/noise",
        "diverged cells: PI/impulse@100000, PID/impulse@100000, TS-LA/impulse@100000"]
    outcomes = {(r["controller"], r["magnitude"]): r["outcome"] for r in rows
                if r["scenario"] == "impulse"}
    assert outcomes == {(name, m): "diverged" if m == "100000.0" else
                        "fell" if name == "PI" else "settled"
                        for name in ("PI", "PID", "TS-LA") for m in ("10.0", "100000.0")}


def test_fallen_cells_exit_3(tmp_path, capsys):
    # at the real limit the same knock topples every pendulum, which then counts as a fall
    code, rows = _knock_benchmark(tmp_path)
    assert code == cli.EXIT_DIVERGED_CELLS
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("fell cells: PI/impulse@10, PI/impulse@100000, PI/noise, "
                         "PID/impulse@100000, TS-LA/impulse@100000")
    fell = [r for r in rows if r["outcome"] == "fell" and r["scenario"] != "impulse-mean"]
    assert len(fell) == 5
    assert all(float(r["peak_theta_deg"]) > 90.0 and r["settling_s"] == "inf" for r in fell)


def test_simulate_reports_a_fall(tmp_path, capsys):
    # PI falls 3.31 s into the default noise run, and the log ends at the fallen state
    code = cli.main(["simulate", "--controller", "pi", "--scenario", "noise",
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"3312 rows logged to {tmp_path / 'timeseries_pi_noise.csv'}",
        "pendulum fell at t = 3.31 s"]


@pytest.mark.parametrize("doc, scenario, rows, last_line", [
    ({"scenarios": {"noise": {"horizon": 5.0}}}, "noise", 5001,
     "no metrics: the log ends at t = 5.00 s, before onset + 10 s = 10 s"),
    # each run ends exactly at its onset + 10 s, which is enough
    ({"scenarios": {"noise": {"horizon": 10.0}}}, "noise", 10001, "settling "),
    ({"sim": {"horizon": 11.0}, "scenarios": {"impulse": {"onset": 1.0}}}, "impulse", 11001,
     "settling "),
], ids=["noise-5s", "noise-10s", "impulse-onset-1s-11s"])
def test_simulate_on_a_short_horizon(tmp_path, capsys, doc, scenario, rows, last_line):
    config = write_config(tmp_path / "short.json", doc)
    code = cli.main(["simulate", "--controller", "pid", "--scenario", scenario,
                     "--config", str(config), "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith(last_line)
    lines = (tmp_path / f"timeseries_pid_{scenario}.csv").read_text().splitlines()
    assert len(lines) == 1 + rows


def test_benchmark_runs_to_exactly_onset_plus_10s(tmp_path, capsys):
    doc = copy.deepcopy(SHORT_BENCHMARK)
    doc["sim"]["horizon"] = 11.0
    doc["scenarios"]["noise"]["horizon"] = 10.0
    config = write_config(tmp_path / "edge.json", doc)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_DIVERGED_CELLS
    assert capsys.readouterr().err == ""
    with open(out / "benchmark.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 3 * 4


@pytest.mark.parametrize("doc, stderr", [
    ({"scenarios": {"noise": {"horizon": 5.0}}},
     ("scenarios.noise.horizon 5.0 logs the benchmark's runs to t = 5.0 s",)),
    ({"sim": {"horizon": 29.999}}, ("sim.horizon 29.999 ", "onset 20.0 + 10 s")),
], ids=["noise-5s", "impulse-onset-20s-29.999s"])
def test_benchmark_rejects_a_short_horizon_before_any_stage(tmp_path, capsys, doc, stderr):
    config = write_config(tmp_path / "short.json", doc)
    out = tmp_path / "out"
    code = cli.main(["benchmark", "--auto", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    for fragment in ("config error: ", *stderr):
        assert fragment in captured.err
    assert not out.exists()
