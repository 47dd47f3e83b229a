"""Package-wide checks: every name that a `pendulum_lab` module exports in its ``__all__``
exists, the dataclasses that hold arrays compare and hash by identity, every third-party
module the package imports is a declared dependency, and the package imports cold without
the modules that only writing a log needs."""

import ast
import copy
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pendulum_lab
from pendulum_lab.anfis import AnfisModel, Dataset
from pendulum_lab.controllers import design_lqr
from pendulum_lab.plant import PhysicalParams, linearize
from pendulum_lab.simulate import TimeSeries

PACKAGE = Path(pendulum_lab.__file__).resolve().parent
MODULES = ["pendulum_lab"] + [f"pendulum_lab.{info.name}"
                              for info in pkgutil.iter_modules(pendulum_lab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


ARRAY_DATACLASSES = {
    "AnfisModel": lambda: AnfisModel(a=np.ones((4, 1)), b=np.full((4, 1), 2.0),
                                     c=np.zeros((4, 1)), consequents=np.zeros((1, 5)),
                                     input_ranges=np.tile([-1.0, 1.0], (4, 1))),
    "Dataset": lambda: Dataset(rows=np.arange(20.0), train_indices=[0, 1], test_indices=[3]),
    "LqrDesign": lambda: design_lqr(linearize(PhysicalParams()),
                                    np.diag([1200.0, 0.0, 100.0, 0.0]), 1.0),
    "LinearStateSpace": lambda: linearize(PhysicalParams()),
    "TimeSeries": lambda: TimeSeries(*(np.arange(3.0) for _ in range(7))),
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES.keys())
def test_array_dataclasses_compare_by_identity(make):
    a = make()
    b = copy.deepcopy(a)  # equal content in distinct arrays: a field-wise == would raise
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2  # hashable, by identity


def imported_top_levels(path: Path) -> set[str]:
    """The top-level name of every absolute import in ``path``, function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_declared():
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req)[0].lower().replace("-", "_")
                for req in requirements}
    imported = set().union(*map(imported_top_levels, PACKAGE.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"pendulum_lab"}
    assert third_party >= {"numpy", "orjson"}  # the walk finds the lazy import too
    assert sorted(third_party - declared) == []


def test_import_leaves_orjson_unloaded():
    # only `TimeSeries.to_csv` needs orjson; the set-up of the commands that write no
    # log (design-lqr, gen-data, train, benchmark) keeps its cold-import time
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, pendulum_lab; print('orjson' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "False"
