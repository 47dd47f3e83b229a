"""Package-wide checks: every name that a `pendulum_lab` module exports in its ``__all__``
exists, and the dataclasses that hold arrays compare and hash by identity."""

import copy
import importlib
import pkgutil

import numpy as np
import pytest

import pendulum_lab
from pendulum_lab.anfis import AnfisModel, Dataset
from pendulum_lab.controllers import design_lqr
from pendulum_lab.plant import PhysicalParams, linearize
from pendulum_lab.simulate import TimeSeries

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
