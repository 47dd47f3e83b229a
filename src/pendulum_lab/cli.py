"""Command-line entry point.

Subcommands follow the two-stage workflow in order:

    derive      linear model, transfer functions, poles, controllability
    design-lqr  solve the Riccati equation, save the gain
    gen-data    log stage-1 LQR runs, subsample the training dataset
    train       fit the fuzzy controller, save model + RMSE history
    simulate    one closed-loop run of a chosen controller and scenario
    benchmark   PI vs PID vs TS-LA comparison table

Every command reads one JSON config (defaults apply when omitted), writes
its artifacts plus a manifest (config hash, seed, version) into --out, and
reruns byte-identically given the same config and seed.  Exit codes: 0
success; 1 usage or config error, or an artifact in --out that is missing
or malformed (a design, dataset, split or model file that does not parse,
or a TS-LA model without the 4 deviation inputs); 2 numerical failure; 3 a
benchmark that ran, but with a cell whose pendulum fell (|theta - pi| past
pi/2) or whose run diverged.  PI's linear loop is unstable, so its cells
fall by construction and the default `benchmark --auto` exits 3.  A
`simulate` run that falls or diverges still exits 0, as does one logged to
less than the disturbance's onset + 10 s, which the metrics need: it prints
why there are no metrics in their place.  `benchmark` rejects such a
horizon as a config error (exit 1) before any stage, `--auto` ones too.
Every command so rejects a dataset larger than the stage-1 runs log when
they stay up, and a value outside its key's domain (say, a training set
smaller than the model's 80 consequent parameters).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .anfis import Dataset, load_model, save_model
from .artifacts import read_json, write_json
from .config import ConfigError, RunConfig, config_sha256, default_config, load_config
from .controllers import AnfisController, CareError, LqrController, LqrDesign, PidController
from .pipeline import (benchmark_from_config, build_dataset, check_metrics_span,
                       design_from_config, stage1_runs, train_from_config)
from .plant import controllability, linearize, poles, root_locus_sweep, transfer_functions, \
    write_locus_csv, write_poles_csv
from .scenarios import METRICS_SPAN, compute_metrics
from .simulate import run_closed_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_DIVERGED_CELLS = 3  # a cell fell or diverged

DESIGN_FILE = "lqr_design.json"
DATASET_FILE = "dataset.csv"
SPLIT_FILE = "dataset_split.json"
MODEL_FILE = "anfis_model.json"


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pendulum-lab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override every stochastic seed in the config")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")

    common(sub.add_parser("derive", help="linear model, poles, controllability"))
    common(sub.add_parser("design-lqr", help="solve the Riccati equation and save the gain"))
    common(sub.add_parser("gen-data", help="collect stage-1 LQR logs into a dataset"))
    common(sub.add_parser("train", help="train the fuzzy controller on the dataset"))

    p_sim = sub.add_parser("simulate", help="one closed-loop run")
    common(p_sim)
    p_sim.add_argument("--controller", required=True,
                       choices=["none", "lqr", "pi", "pid", "tsla"])
    p_sim.add_argument("--scenario", required=True, choices=["impulse", "noise"])

    p_bench = sub.add_parser("benchmark", help="PI vs PID vs TS-LA comparison")
    common(p_bench)
    p_bench.add_argument("--auto", action="store_true",
                         help="build any missing design/dataset/model first")
    return parser


def _load(args) -> RunConfig:
    config = load_config(args.config) if args.config else default_config()
    try:
        return config if args.seed is None else config.with_seed(args.seed)
    except ValueError as exc:  # a seed that a section rejects, as a config load would
        raise ConfigError(f"--seed: {exc}") from exc


def _manifest(out: Path, command: str, config: RunConfig, args, outputs: list[str]) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "config_sha256": config_sha256(config),
        "config_path": str(args.config) if args.config else None,
        "seed_override": args.seed,
        "effective_seeds": {"anfis": config.anfis.seed, "noise": config.scenarios.noise.seed},
        "outputs": sorted(outputs),
    }
    write_json(out / f"{command}_manifest.json", doc)


class ArtifactError(Exception):
    """An artifact in --out exists but cannot be used."""


def _load_artifact(path: Path, load):
    """``load(path)``, with its ValueError or KeyError reported as a bad artifact."""
    try:
        return load(path)
    except (ValueError, KeyError) as exc:
        detail = str(exc)
        raise ArtifactError(detail if str(path) in detail else f"{path}: {detail}") from exc


def _tsla_controller(out: Path) -> AnfisController:
    return _load_artifact(out / MODEL_FILE, lambda path: AnfisController(load_model(path)))


def cmd_derive(args, config: RunConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    ss = linearize(config.physical)
    cart_tf, pend_tf = transfer_functions(config.physical)
    pend_poles = poles(pend_tf)
    cart_poles = poles(cart_tf)
    co = controllability(ss)

    with np.printoptions(precision=6, suppress=True):
        print("A =\n", ss.A)
        print("B =\n", ss.B.ravel())
        print("pendulum TF num/den:", pend_tf.numerator, pend_tf.denominator)
        print("cart TF num/den:", cart_tf.numerator, cart_tf.denominator)
        print("pendulum poles:", np.round(pend_poles, 6))
        print("cart poles:", np.round(cart_poles, 6))
        print(f"controllability rank: {co.rank}   det: {co.det:.6g}")

    report = {
        "A": ss.A.tolist(),
        "B": ss.B.tolist(),
        "cart_tf": {"num": list(cart_tf.numerator), "den": list(cart_tf.denominator)},
        "pendulum_tf": {"num": list(pend_tf.numerator), "den": list(pend_tf.denominator)},
        "pendulum_poles": [[p.real, p.imag] for p in pend_poles],
        "cart_poles": [[p.real, p.imag] for p in cart_poles],
        "controllability": {"rank": co.rank, "det": co.det, "matrix": co.matrix.tolist()},
    }
    write_json(out / "derive_report.json", report)

    labelled = [("pendulum", complex(p)) for p in pend_poles]
    labelled += [("cart", complex(p)) for p in cart_poles]
    write_poles_csv(out / "poles.csv", labelled)
    gains = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 31)])
    write_locus_csv(out / "root_locus.csv", root_locus_sweep(pend_tf, gains))

    _manifest(out, "derive", config, args,
              ["derive_report.json", "poles.csv", "root_locus.csv"])
    return EXIT_OK


def cmd_design_lqr(args, config: RunConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    ss = linearize(config.physical)
    design = design_from_config(config)
    design.to_json(out / DESIGN_FILE)

    eig = design.closed_loop_eigenvalues(ss)
    print("K =", np.round(design.K.ravel(), 6))
    print(f"Riccati residual: {design.riccati_residual(ss):.3e}")
    print("closed-loop eigenvalues:", np.round(eig, 4))
    _manifest(out, "design-lqr", config, args, [DESIGN_FILE])
    return EXIT_OK


def cmd_gen_data(args, config: RunConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    design = _load_artifact(out / DESIGN_FILE, LqrDesign.from_json)

    dataset = build_dataset(config, design)
    dataset.to_csv(out / DATASET_FILE)
    write_json(out / SPLIT_FILE, dataset.split_manifest())
    print(f"dataset: {len(dataset.train_indices)} train / {len(dataset.test_indices)} test rows")
    _manifest(out, "gen-data", config, args, [DATASET_FILE, SPLIT_FILE])
    return EXIT_OK


def cmd_train(args, config: RunConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    split = _load_artifact(out / SPLIT_FILE, lambda path: read_json(
        path, "split", ("train_indices", "test_indices")))
    dataset = _load_artifact(out / DATASET_FILE, lambda path: Dataset.from_csv(path, split))

    model, history = train_from_config(config, dataset)
    save_model(model, out / MODEL_FILE)
    history.to_csv(out / "rmse_history.csv")
    meta = model.metadata
    print(f"epochs: {meta['epochs']}  final train RMSE: {meta['rmse']['train']:.3e}"
          f"  test RMSE: {meta['rmse']['test']:.3e}"
          f"  ({meta['rmse_pct_of_range']:.4g}% of output range)")
    if history.stop_epoch is None:
        print(f"ran all {len(history.train_rmse)} epochs")
    elif "rounding_floor" in history.flags:
        print(f"stopped after epoch {history.stop_epoch}: train RMSE reached the rounding"
              " floor, so a later epoch could only move it by rounding noise")
    else:
        print(f"stopped after epoch {history.stop_epoch}: its premise step stalled,"
              " so every later epoch would repeat it")
    if history.flags:
        print("flags:", ", ".join(history.flags))
    _manifest(out, "train", config, args, [MODEL_FILE, "rmse_history.csv"])
    return EXIT_OK


def _controller_for(name: str, config: RunConfig, out: Path):
    if name == "none":
        return None
    if name == "lqr":
        return LqrController(_load_artifact(out / DESIGN_FILE, LqrDesign.from_json))
    if name == "pi":
        return PidController(config.pi)
    if name == "pid":
        return PidController(config.pid)
    if name == "tsla":
        return _tsla_controller(out)
    raise ValueError(f"unknown controller {name!r}")


def cmd_simulate(args, config: RunConfig) -> int:
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    controller = _controller_for(args.controller, config, out)

    sim_cfg, spec, onset = config.scenarios.run(args.scenario, config.sim)
    series = run_closed_loop(sim_cfg, controller, spec, config.physical)
    name = f"timeseries_{args.controller}_{args.scenario}.csv"
    series.to_csv(out / name)
    print(f"{len(series)} rows logged to {out / name}")
    if series.outcome == "diverged":
        print("run diverged before the horizon")
    elif series.outcome == "fell":
        print(f"pendulum fell at t = {series.t[-1]:.2f} s")
    elif series.t[-1] < onset + METRICS_SPAN:
        print(f"no metrics: the log ends at t = {series.t[-1]:.2f} s, before onset + "
              f"{METRICS_SPAN:g} s = {onset + METRICS_SPAN:g} s")
    else:
        m = compute_metrics(series, onset, config.scenarios.bands)
        print(f"settling {m.settling_time:.4g} s, peak theta dev "
              f"{np.degrees(m.peak_theta_dev):.4g} deg, final x {series.x[-1]:.4g} m")
    _manifest(out, "simulate", config, args, [name])
    return EXIT_OK


def cmd_benchmark(args, config: RunConfig) -> int:
    check_metrics_span(config)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)

    if args.auto:
        if not (out / DESIGN_FILE).exists():
            cmd_design_lqr(args, config)
        if not (out / DATASET_FILE).exists() or not (out / SPLIT_FILE).exists():
            cmd_gen_data(args, config)
        if not (out / MODEL_FILE).exists():
            cmd_train(args, config)
    model = _tsla_controller(out).model

    table = benchmark_from_config(config, model)
    table.to_csv(out / "benchmark.csv")
    text = table.to_text()
    with open(out / "benchmark.txt", "w") as fh:
        fh.write(text)
    print(text, end="")
    _manifest(out, "benchmark", config, args, ["benchmark.csv", "benchmark.txt"])

    code = EXIT_OK
    for outcome in ("fell", "diverged"):
        names = [_cell_name(c) for c in table.cells if c.outcome == outcome]
        if names:
            print(f"{outcome} cells:", ", ".join(names))
            code = EXIT_DIVERGED_CELLS
    return code


def _cell_name(cell) -> str:
    """``controller/scenario``, plus ``@magnitude`` for an impulse cell (``PI/impulse@10``)."""
    if cell.magnitude is None:
        return f"{cell.controller}/{cell.scenario}"
    return f"{cell.controller}/{cell.scenario}@{cell.magnitude!r}".removesuffix(".0")


_COMMANDS = {
    "derive": cmd_derive,
    "design-lqr": cmd_design_lqr,
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, _load(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing artifact: {exc.filename} (run the earlier pipeline stages or pass "
              "--auto)", file=sys.stderr)
        return EXIT_USAGE
    except ArtifactError as exc:
        print(f"bad artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, CareError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
