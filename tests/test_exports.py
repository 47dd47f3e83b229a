"""Package-wide checks: every name that a `pendulum_lab` module exports in its ``__all__``
exists, and every name it imports is used or exported; the dataclasses that hold arrays
compare and hash by identity and freeze copies of the caller's arrays; every third-party
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
from pendulum_lab.controllers import LqrDesign, design_lqr
from pendulum_lab.plant import LinearStateSpace, PhysicalParams, linearize
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


# the keyword arguments of each dataclass that freezes arrays, as a caller's own arrays
FROZEN_INPUTS = {
    AnfisModel: lambda: dict(a=np.ones((4, 1)), b=np.full((4, 1), 2.0), c=np.zeros((4, 1)),
                             consequents=np.zeros((1, 5)),
                             input_ranges=np.tile([-1.0, 1.0], (4, 1))),
    Dataset: lambda: dict(rows=np.zeros((3, 5)), train_indices=np.array([0, 1]),
                          test_indices=np.array([2])),
    LqrDesign: lambda: dict(Q=np.eye(4), R=1.0, S=np.eye(4), K=np.ones((1, 4))),
    LinearStateSpace: lambda: dict(A=np.eye(4), B=np.ones((4, 1))),
}


@pytest.mark.parametrize("cls", FROZEN_INPUTS, ids=lambda cls: cls.__name__)
def test_array_dataclasses_freeze_a_copy(cls):
    kwargs = FROZEN_INPUTS[cls]()
    obj = cls(**kwargs)
    arrays = {name: arr for name, arr in kwargs.items() if isinstance(arr, np.ndarray)}
    held = {name: getattr(obj, name).copy() for name in arrays}
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        assert not getattr(obj, name).flags.writeable, name
        arr += 1
        assert np.array_equal(getattr(obj, name), held[name]), name


def unused_imports(path: Path) -> list[str]:
    """The names that ``path`` imports but neither uses nor lists in its ``__all__``."""
    tree = ast.parse(path.read_text())
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path) == []


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
