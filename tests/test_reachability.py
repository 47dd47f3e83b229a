"""Every function in `pendulum_lab` is reached by a command, or is named below with the
reason it stays.

A fresh interpreter profiles, from the package import on, `derive`, a short
`benchmark --auto` and the 10 `simulate` runs, each with ``--config`` and ``--seed``,
then one `design-lqr` at ``lqr.r = 0.01``.  Whether the default design makes a
Newton-Kleinman sweep depends on the BLAS kernel (none under OpenBLAS's Haswell and Zen
kernels); this one makes one under each kernel tried, so `_solve_lyapunov` is reached.
A function defined in the package that no call reaches must be on the allowlist, and
every allowlisted function must still be unreached: a name either earns its place
through a command or is kept, with its reason, as a reference that a check names.
"""

import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pendulum_lab
from test_cli import SHORT_BENCHMARK

PACKAGE = Path(pendulum_lab.__file__).resolve().parent

NOT_AFFINE = "training steps the premises only on a target that is not affine"
DRAW_PROBE = ("the commands read each spec's `forces` grid; perfbench draws forces one t at "
              "a time through it, and the grid tests hold `forces` to it bit for bit")
ALLOWLIST = {
    "anfis.anfis_infer": "the reference of the compiled TS-LA law; perfbench calls it",
    "anfis.AnfisModel.law": "the compiled single-sample law; `anfis_infer` calls it",
    "anfis.premise_gradients": NOT_AFFINE + "; perfbench times it",
    "anfis._premise_step": NOT_AFFINE,
    "controllers._step": "every controller's `step`; perfbench times one controller step "
                         "through it",
    "controllers._command": "every controller's `command`; the closed loop inlines the law "
                            "in its place, and `step` calls it",
    "simulate._law_command": "compiles `command` from the `law_source` the closed loop "
                             "inlines",
    "plant.PlantState.deviation": "perfbench builds its probe inputs with it",
    "scenarios.make_disturbance": DRAW_PROBE,
    "scenarios._NoiseStream.__init__": DRAW_PROBE,
    "scenarios._NoiseStream.__call__": DRAW_PROBE,
    "plant.derivative_fn": "the bitwise reference of the RK4 lines; perfbench probes it",
    "plant.derivative_fn.<locals>.accel": "the bitwise reference of the RK4 lines",
    "simulate.rk4_step": "perfbench times one RK4 step through it",
    "cli._Parser.error": "error path: a usage error",
    "controllers.CareError.__init__": "error path: a Riccati solve that fails",
    "simulate.Controller.command": "the protocol's stub; controllers implement it",
}

PROFILE = r"""
import json, sys
from pathlib import Path

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

sys.setprofile(profile)
from pendulum_lab import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
package = Path(cli.__file__).resolve().parent
reached = sorted(f"{Path(f).stem}.{q}" for f, q in called
                 if Path(f).resolve().parent == package)
Path(sys.argv[2]).write_text(json.dumps({"codes": codes, "reached": reached}))
"""


def defined_functions() -> set[str]:
    """``module.qualname`` of every def in the package, as ``co_qualname`` spells it."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem + ".")
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_unreached_functions_are_the_allowlist(tmp_path):
    config = copy.deepcopy(SHORT_BENCHMARK)
    config["sim"]["initial_state"] = {"theta_dev": 0.0}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    common = ["--config", str(config_path), "--seed", "7", "--out", str(tmp_path / "out")]
    runs = [["derive", *common], ["benchmark", "--auto", *common]]
    runs += [["simulate", "--controller", controller, "--scenario", scenario, *common]
             for controller in ("none", "lqr", "pi", "pid", "tsla")
             for scenario in ("impulse", "noise")]
    cheap_control = tmp_path / "cheap_control.json"
    cheap_control.write_text(json.dumps({"lqr": {"r": 0.01}}))
    runs += [["design-lqr", "--config", str(cheap_control), "--out", str(tmp_path / "r")]]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    report = tmp_path / "reached.json"
    subprocess.run([sys.executable, "-c", PROFILE, json.dumps(runs), str(report)],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    result = json.loads(report.read_text())

    # PI falls in every benchmark cell, so `benchmark` exits 3
    assert result["codes"] == [0, 3] + [0] * (len(runs) - 2)
    unreached = defined_functions() - set(result["reached"])
    assert sorted(unreached - ALLOWLIST.keys()) == [], "delete, or allowlist with a reason"
    assert sorted(ALLOWLIST.keys() - unreached) == [], "reached now: drop from the allowlist"
