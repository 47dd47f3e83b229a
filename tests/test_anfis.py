import gc
import json
import math
import re
import tracemalloc
import weakref
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pendulum_lab import anfis
from pendulum_lab.anfis import (AnfisConfig, AnfisModel, Dataset, _design_matrix, _infer_batch,
                                _rule_products, anfis_infer, generate_dataset, initial_model,
                                Stage1Config, load_model, premise_gradients, save_model,
                                train_hybrid)
from pendulum_lab.plant import UPRIGHT_THETA, PlantState
from pendulum_lab.simulate import FALL_ANGLE, SimConfig, TimeSeries


def grid_model(grid, consequents, input_ranges=None):
    """A model from its premise grid: one (a, b, c) triple per membership function,
    shaped (n_inputs, mfs_per_input, 3)."""
    a, b, c = np.moveaxis(np.asarray(grid, dtype=float), -1, 0)
    if input_ranges is None:
        input_ranges = np.tile([-1.0, 1.0], (a.shape[0], 1))
    return AnfisModel(a=a, b=b, c=c, consequents=consequents, input_ranges=input_ranges)


def toy_model(n_inputs=2, n_mfs=2, seed=0):
    rng = np.random.default_rng(seed)
    grid = [[(rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0))
             for _ in range(n_mfs)] for _ in range(n_inputs)]
    return grid_model(grid, rng.normal(size=(n_mfs**n_inputs, n_inputs + 1)))


def strengths(model, z):
    """Layer 2: the rule strengths, as training computes them."""
    return _rule_products(model, model.memberships(z))


def normalized(model, Z):
    """Layer 3 as training computes it: the constant columns of `_design_matrix`,
    whose column block for rule j is wbar_j * (z, 1)."""
    n = model.n_inputs
    return _design_matrix(model, np.atleast_2d(np.asarray(Z, dtype=float)))[:, n::n + 1]


def affine_dataset(K, n_rows=591, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 4))
    y = X @ (-np.asarray(K))
    rows = np.column_stack([X, y])
    order = rng.permutation(n_rows)
    return Dataset(rows=rows, train_indices=np.sort(order[:500]), test_indices=np.sort(order[500:]))


def series_from_rows(rows):
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[0]
    return TimeSeries(
        t=np.arange(n) * 1e-3,
        x=rows[:, 0],
        x_dot=rows[:, 1],
        theta=rows[:, 2] + math.pi,
        theta_dot=rows[:, 3],
        u=rows[:, 4],
        d=np.zeros(n),
    )


def reference_bell(z, a, b, c):
    """One membership as the compiled law computes it: a power too large for a float is 0.0."""
    d = (z - c) / a
    try:
        return 1.0 / (1.0 + (d * d) ** b)
    except OverflowError:
        return 0.0


def left_sum(terms):
    # the left fold from 0.0 that `sum()` computes on CPython 3.11, with which every
    # artifact was made; 3.12 moved `sum()` to compensated summation
    return reduce(add, terms, 0.0)


def reference_infer(model, inputs):
    """The per-rule loop that `AnfisModel.law` unrolls: its bitwise reference."""
    z = [float(v) for v in inputs]
    if len(z) != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} inputs, got {len(z)}")
    w = [1.0]
    for zk, a_k, b_k, c_k in zip(z, model.a.tolist(), model.b.tolist(), model.c.tolist()):
        mu = [reference_bell(zk, a, b, c) for a, b, c in zip(a_k, b_k, c_k)]
        w = [wj * m for wj in w for m in mu]
    total = left_sum(w)
    if not (total > 0.0):
        raise ValueError("firing strengths sum to zero; input too far outside all rules")
    rows = model.consequents.tolist()
    out = left_sum(wj * row[-1] for wj, row in zip(w, rows))
    for k, zk in enumerate(z):
        out += zk * left_sum(wj * row[k] for wj, row in zip(w, rows))
    return out / total


class TestMembershipFunction:
    """Layer 1, the generalized bell, as `AnfisModel.memberships` computes it."""

    @staticmethod
    def bell(z, a=0.7, b=2.0, c=1.3):
        return float(grid_model([[(a, b, c)]], [[0.0, 0.0]]).memberships([z])[0, 0])

    def test_peak_is_exactly_one(self):
        assert self.bell(1.3) == 1.0

    @given(z=st.floats(-1e6, 1e6))
    def test_values_in_unit_interval(self, z):
        assert 0.0 < self.bell(z) <= 1.0

    @given(dz=st.floats(0.0, 1e3))
    def test_symmetric_about_center(self, dz):
        assert self.bell(1.3 + dz) == pytest.approx(self.bell(1.3 - dz), rel=1e-12)

    def test_agrees_with_the_law_arithmetic_to_rounding(self):
        # numpy's power need not be the C library's pow that the compiled law calls
        rng = np.random.default_rng(23)
        draws = np.column_stack([rng.uniform(0.01, 5.0, 20_000), rng.uniform(0.5, 4.0, 20_000),
                                 rng.uniform(-3.0, 3.0, 20_000), rng.uniform(-10.0, 10.0, 20_000)])
        a, b, c, z = draws.T
        # one input per draw, each with a single membership function
        model = AnfisModel(a=a[:, None], b=b[:, None], c=c[:, None],
                           consequents=np.zeros(draws.shape[0] + 1),
                           input_ranges=np.tile([-1.0, 1.0], (draws.shape[0], 1)))
        expected = [reference_bell(*row) for row in zip(z.tolist(), a.tolist(), b.tolist(),
                                                        c.tolist())]
        assert_allclose(model.memberships(z)[:, 0], expected, rtol=1e-14, atol=0)

    def test_overflowing_power_is_zero(self):
        assert self.bell(1.0, a=1e-100, b=2.0, c=0.0) == 0.0

    @pytest.mark.parametrize("kwargs", [{"a": 0.0}, {"b": 0.0}, {"c": math.nan}])
    def test_validation(self, kwargs):
        base = {"a": 1.0, "b": 2.0, "c": 0.0}
        with pytest.raises(ValueError):
            grid_model([[tuple({**base, **kwargs}.values())]], [[0.0, 0.0]])

    @pytest.mark.parametrize("shapes", [((2, 2), (2, 2), (2, 3)), ((0, 2),) * 3, ((4,),) * 3],
                             ids=["ragged", "empty", "flat"])
    def test_premise_grid_must_be_rectangular_and_non_empty(self, shapes):
        a, b, c = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match="rectangular, non-empty grid"):
            AnfisModel(a=a, b=b, c=c, consequents=np.zeros(20), input_ranges=np.zeros(8))


class TestFiringStrengths:
    def test_grid_point_fires_its_rule_fully(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=1)
        # input at the centers of MF index 1 for every input -> rule (1,1,1,1)
        w = strengths(model, model.c[:, 1])
        assert w[-1] == pytest.approx(1.0, rel=1e-12)  # lexicographic last rule
        assert np.all(w > 0.0)

    def test_all_positive_for_any_finite_input(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=2)
        w = strengths(model, np.array([1e5, -1e5, 3.0, -42.0]))
        assert np.all(w > 0.0)

    def test_two_input_single_mf_product(self):
        model = grid_model([[(1.0, 2.0, 0.2)], [(0.5, 1.0, -0.4)]], np.zeros((1, 3)))
        w = strengths(model, np.array([0.9, 0.1]))
        assert w.shape == (1,)
        expected = reference_bell(0.9, 1.0, 2.0, 0.2) * reference_bell(0.1, 0.5, 1.0, -0.4)
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_lexicographic_rule_order(self):
        model = toy_model(n_inputs=2, n_mfs=2, seed=3)
        z = np.array([0.3, -0.7])
        mu = model.memberships(z)
        expected = [mu[0][0] * mu[1][0], mu[0][0] * mu[1][1], mu[0][1] * mu[1][0], mu[0][1] * mu[1][1]]
        assert_allclose(strengths(model, z), expected, rtol=1e-12)

    def test_input_shape_checked(self):
        with pytest.raises(ValueError, match="expected 2 inputs"):
            anfis_infer(toy_model(), np.zeros(3))


class TestNormalize:
    def test_uniform(self):
        # identical membership functions give every rule the same strength
        model = grid_model([[(1.0, 2.0, 0.3)] * 2] * 4, np.zeros(80))
        assert_allclose(normalized(model, np.full(4, 0.3)), np.full((1, 16), 1.0 / 16.0), rtol=0)
        Z = np.random.default_rng(4).uniform(-2.0, 2.0, (5, 4))
        assert_allclose(normalized(model, Z), np.full((5, 16), 1.0 / 16.0), rtol=1e-15)

    def test_dominant_strength(self):
        model = grid_model([[(0.05, 2.0, -1.0), (0.05, 2.0, 1.0)]] * 4, np.zeros(80))
        # the centers of rule 3, MF indices (0, 0, 1, 1)
        assert normalized(model, [-1.0, -1.0, 1.0, 1.0])[0, 3] == pytest.approx(1.0, abs=2e-5)

    def test_matches_exhaustive_recomputation(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=4)
        z = np.random.default_rng(4).uniform(-1.5, 1.5, size=4)
        w = strengths(model, z)
        total = 0.0
        for v in w:
            total += v
        assert_allclose(normalized(model, z)[0], [v / total for v in w], rtol=1e-12)

    @given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_sums_to_one(self, z):
        assert abs(normalized(toy_model(n_inputs=4, n_mfs=2, seed=4), z).sum() - 1.0) <= 1e-12

    def test_rejects_zero_sum(self):
        # so far outside every rule that every membership is 0.0
        with pytest.raises(ValueError, match="sum to zero"):
            _infer_batch(toy_model(n_inputs=4, n_mfs=2, seed=4), np.full((1, 4), 1e200))


class TestInference:
    def test_single_rule_is_pure_affine(self):
        model = grid_model([[(0.1, 3.0, 5.0)]] * 2, np.array([[2.0, -3.0, 0.25]]))
        for z in ([0.0, 0.0], [100.0, -7.0], [5.0, 5.0]):
            assert anfis_infer(model, np.array(z)) == pytest.approx(
                2.0 * z[0] - 3.0 * z[1] + 0.25, rel=1e-12)

    def test_identical_consequents_collapse(self):
        row = np.array([1.5, -0.5, 2.0, 0.75])
        model = replace(toy_model(n_inputs=3, n_mfs=2, seed=5), consequents=np.tile(row, (8, 1)))
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.uniform(-3.0, 3.0, size=3)
            assert anfis_infer(model, z) == pytest.approx(float(row[:3] @ z + row[3]), rel=1e-10)

    def test_permutation_consistency(self):
        model = toy_model(n_inputs=2, n_mfs=2, seed=7)
        z = np.array([0.4, -0.9])
        w = strengths(model, z)
        f = model.consequents[:, :2] @ z + model.consequents[:, 2]
        perm = np.array([3, 1, 0, 2])
        direct = float(w / w.sum() @ f)
        permuted = float(w[perm] / w[perm].sum() @ f[perm])
        assert anfis_infer(model, z) == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(permuted, rel=1e-12)


@st.composite
def models_and_inputs(draw):
    """A model with 1-4 inputs and 1-3 MFs per input, and one input vector."""
    n_inputs = draw(st.integers(1, 4))
    n_mfs = draw(st.integers(1, 3))
    mf = st.tuples(st.floats(0.1, 5.0), st.floats(0.5, 4.0), st.floats(-3.0, 3.0))
    grid = [[draw(mf) for _ in range(n_mfs)] for _ in range(n_inputs)]
    n_params = n_mfs**n_inputs * (n_inputs + 1)
    coef = draw(st.lists(st.floats(-100.0, 100.0), min_size=n_params, max_size=n_params))
    model = grid_model(grid, np.array(coef))
    z = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n_inputs, max_size=n_inputs)))
    return model, z


class TestScalarInference:
    """`anfis_infer` (Python floats) against the numpy batch path, `_infer_batch`."""

    @settings(max_examples=300, deadline=None)
    @given(models_and_inputs())
    def test_matches_numpy_layers(self, case):
        model, z = case
        C = model.consequents
        reference = float(_infer_batch(model, z[None])[0])
        # the two paths sum in different orders: allow 1e-12 of the largest
        # rule's term magnitudes, far above rounding and far below any misrouted rule
        tol = 1e-12 * (1.0 + float(np.max(np.abs(C[:, :-1] * z).sum(axis=1) + np.abs(C[:, -1]))))
        assert abs(anfis_infer(model, z) - reference) <= tol

    def test_sequence_types_agree_bitwise(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=20)
        rng = np.random.default_rng(21)
        for _ in range(20):
            z = rng.uniform(-2.0, 2.0, size=4)
            value = anfis_infer(model, z)
            assert anfis_infer(model, tuple(z.tolist())) == value
            assert anfis_infer(model, z.tolist()) == value

    @pytest.mark.parametrize("z", [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5],
                                   [math.nan, 0.0, 0.0, 0.0], [1e200] * 4],
                             ids=["too-short", "too-long", "nan", "far-outside"])
    def test_rejects(self, z):
        with pytest.raises(ValueError):
            anfis_infer(toy_model(n_inputs=4, n_mfs=2, seed=22), z)

    def test_overflowing_membership_is_zero(self):
        # at z = 1 the narrow MF's ((z - c) / a)^2 is 1e200, and raising it to b = 2 overflows
        narrow, wide = (1e-100, 2.0, 0.0), (1.0, 2.0, 0.0)
        model = grid_model([[narrow, wide]], np.array([[1.0, 5.0], [2.0, -1.0]]))
        assert anfis_infer(model, [1.0]) == 2.0 * 1.0 - 1.0  # the wide MF's rule alone
        alone = grid_model([[narrow]], np.array([[1.0, 5.0]]))
        with pytest.raises(ValueError):
            anfis_infer(alone, [1.0])


@st.composite
def law_cases(draw):
    """A model with 1-4 inputs and 1-3 MFs, and one input out to +-1e3.  Widths reach
    down to 1e-200, so some powers overflow and some squares are inf."""
    n_inputs = draw(st.integers(1, 4))
    n_mfs = draw(st.integers(1, 3))
    width = st.one_of(st.floats(0.1, 5.0), st.floats(1e-200, 1e-30))
    mf = st.tuples(width, st.floats(0.5, 4.0), st.floats(-3.0, 3.0))
    grid = [[draw(mf) for _ in range(n_mfs)] for _ in range(n_inputs)]
    n_params = n_mfs**n_inputs * (n_inputs + 1)
    coef = draw(st.lists(st.floats(-100.0, 100.0), min_size=n_params, max_size=n_params))
    model = grid_model(grid, np.array(coef))
    z = draw(st.lists(st.floats(-1e3, 1e3), min_size=n_inputs, max_size=n_inputs))
    return model, z


class TestCompiledLaw:
    """`AnfisModel.law` against the reference loop, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(law_cases())
    def test_matches_reference_loop_bitwise(self, case):
        model, z = case
        try:
            expected = reference_infer(model, z)
        except ValueError:
            with pytest.raises(ValueError, match="sum to zero"):
                anfis_infer(model, z)
            return
        assert anfis_infer(model, z).hex() == expected.hex()

    def test_signed_zero_consequents(self):
        model = grid_model([[(1.0, 2.0, 0.0)]], np.array([[-0.0, -0.0]]))
        for z in (0.5, -0.5, 0.0):
            assert anfis_infer(model, [z]).hex() == reference_infer(model, [z]).hex()

    def test_large_grid_compiles_and_matches(self):
        # 4096 rules: one expression per sum would be too deep for the compiler
        model = toy_model(n_inputs=12, n_mfs=2, seed=24)
        rng = np.random.default_rng(25)
        for z in rng.uniform(-2.0, 2.0, size=(3, 12)).tolist():
            assert model.law(*z).hex() == reference_infer(model, z).hex()

    def test_law_freed_with_its_model(self):
        # by reference counting alone: a cycle would keep every law until a full collection
        model = toy_model(n_inputs=4, n_mfs=2, seed=27)
        law = weakref.ref(model.law)
        gc.disable()
        try:
            del model
            assert law() is None
        finally:
            gc.enable()

    def test_training_compiles_no_law(self, monkeypatch):
        sources = []
        law_source = anfis._law_source

        def counting(model, *names):
            sources.append(model)
            return law_source(model, *names)

        monkeypatch.setattr(anfis, "_law_source", counting)
        ds = affine_dataset(np.array([-34.64, -20.73, 67.03, 13.09]))
        model, _ = train_hybrid(ds, AnfisConfig(epochs=3))
        assert sources == []
        assert "law" not in model.__dict__
        first = anfis_infer(model, ds.test_X[0])
        law = model.__dict__["law"]
        assert anfis_infer(model, ds.test_X[0]) == first
        assert model.__dict__["law"] is law
        assert sources == [model]


class TestPremiseGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_model(n_inputs=2, n_mfs=2, seed=seed)
        X = rng.uniform(-1.5, 1.5, size=(24, 2))
        y = rng.normal(size=24)

        def sse(m):
            return sum((anfis_infer(m, x) - t) ** 2 for x, t in zip(X, y))

        grads = premise_gradients(model, X, y)
        step = 1e-6
        for which, grad in zip("abc", grads):
            for k in range(2):
                for m in range(2):
                    def perturbed(delta):
                        grid = getattr(model, which).copy()
                        grid[k, m] += delta
                        return replace(model, **{which: grid})

                    fd = (sse(perturbed(step)) - sse(perturbed(-step))) / (2 * step)
                    assert grad[k, m] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_at_center_singularities(self):
        # sample exactly on a center: gradients stay finite
        model = toy_model(n_inputs=2, n_mfs=2, seed=3)
        X = np.array([[model.c[0, 0], model.c[1, 1]]])
        grads = premise_gradients(model, X, np.array([0.3]))
        for g in grads:
            assert np.all(np.isfinite(g))


class TestTrainHybrid:
    def test_constant_target_fits_first_pass(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(-1, 1, size=(600, 4)), np.full(600, 2.5)])
        ds = Dataset(rows=rows, train_indices=np.arange(500), test_indices=np.arange(500, 591))
        model, history = train_hybrid(ds, AnfisConfig(epochs=1))
        assert history.train_rmse[0] <= 1e-9

    def test_state_feedback_target_exact_fit(self):
        K = np.array([-34.64, -20.73, 67.03, 13.09])
        ds = affine_dataset(K)
        # oracle: the uniform-consequent model reproduces the affine law outright
        reference = replace(initial_model(ds.train_X),
                            consequents=np.tile(np.concatenate([-K, [0.0]]), (16, 1)))
        direct_err = max(abs(anfis_infer(reference, x) - t) for x, t in zip(ds.train_X[:50], ds.train_y[:50]))
        assert direct_err <= 1e-12

        model, history = train_hybrid(ds, AnfisConfig(epochs=1))
        assert history.train_rmse[0] <= 1e-6
        assert history.test_rmse[0] <= 1e-5

    def test_history_monotone_nonincreasing(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(591, 4))
        y = np.tanh(X @ np.array([1.0, -2.0, 0.5, 1.5])) + 0.3 * X[:, 0] * X[:, 2]
        ds = Dataset(rows=np.column_stack([X, y]), train_indices=np.arange(500),
                     test_indices=np.arange(500, 591))
        model, history = train_hybrid(ds, AnfisConfig(epochs=8))
        diffs = np.diff(history.train_rmse)
        assert np.all(diffs <= 1e-12 * (1.0 + history.train_rmse[:-1]))

    def test_lse_is_optimal_for_frozen_premises(self):
        # the solve minimises SSE + lambda |theta - tile(g)|^2, the ridge toward the global
        # affine fit g; bumping any consequent raises that objective
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(591, 4))
        y = np.sin(X @ np.array([2.0, 1.0, -1.0, 0.5]))
        ds = Dataset(rows=np.column_stack([X, y]), train_indices=np.arange(500),
                     test_indices=np.arange(500, 591))
        model, _ = train_hybrid(ds, AnfisConfig(epochs=1))

        phi = _design_matrix(model, ds.train_X)
        lam = anfis.RIDGE_SHARE * float(np.sum(phi**2)) / phi.shape[1]
        Xe = np.column_stack([ds.train_X, np.ones(500)])
        g = np.linalg.lstsq(Xe, ds.train_y, rcond=None)[0]

        def objective(consequents):
            bumped = replace(model, consequents=consequents)
            sse = float(np.sum((_infer_batch(bumped, ds.train_X) - ds.train_y) ** 2))
            return sse + lam * float(np.sum((consequents - g) ** 2))

        base = objective(model.consequents)
        worse = 0
        for j, col in ((0, 0), (7, 2), (15, 4), (3, 1)):
            for delta in (1e-3, -1e-3):
                cons = model.consequents.copy()
                cons[j, col] += delta
                value = objective(cons)
                assert value >= base - 1e-9 * (1.0 + base)
                worse += value > base
        assert worse > 0

    @pytest.mark.parametrize("intercept", [0.0, 0.75])
    def test_affine_target_gives_every_rule_the_global_fit(self, intercept):
        K = np.array([-34.64, -20.73, 67.03, 13.09])
        ds = affine_dataset(K)
        ds = Dataset(rows=np.column_stack([ds.rows[:, :4], ds.rows[:, 4] + intercept]),
                     train_indices=ds.train_indices, test_indices=ds.test_indices)
        model, history = train_hybrid(ds, AnfisConfig(epochs=50))
        g = np.concatenate([-K, [intercept]])
        assert_allclose(model.consequents, np.tile(g, (16, 1)), rtol=0, atol=1e-12)
        assert len(history.train_rmse) == 1
        assert history.flags[-1] == "rounding_floor"

    def test_rejects_undersized_dataset(self):
        rng = np.random.default_rng(11)
        rows = np.column_stack([rng.uniform(-1, 1, size=(70, 4)), rng.normal(size=70)])
        ds = Dataset(rows=rows, train_indices=np.arange(60), test_indices=np.arange(60, 70))
        with pytest.raises(ValueError, match="too small"):
            train_hybrid(ds, AnfisConfig(epochs=1))

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            AnfisConfig(epochs=0)
        with pytest.raises(ValueError):
            AnfisConfig(learning_rate=0.0)
        # a section built in code names its field; the config loader names the key
        for seed in (-1, 1.5, None):
            with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
                AnfisConfig(seed=seed)
        # a value that is no integer breaks an integer key's kind, not its bound
        for key, value in (("epochs", 1.5), ("test_count", 2.5), ("train_count", True)):
            with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
                AnfisConfig(**{key: value})

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    def test_stage1_starts_short_of_the_horizontal(self, sign):
        # an offset on the horizontal gives a stage-1 start that SimConfig takes
        edge = sign * FALL_ANGLE
        Stage1Config(initial_theta_devs=(edge,))
        SimConfig(initial_state=PlantState(theta=UPRIGHT_THETA + edge))
        with pytest.raises(ValueError, match="initial_theta_devs must be >= -1.57"):
            Stage1Config(initial_theta_devs=(math.nextafter(edge, sign * math.inf),))


@pytest.fixture(scope="module")
def stage1_logs():
    from pendulum_lab.config import default_config
    from pendulum_lab.pipeline import design_from_config, stage1_runs

    config = default_config()
    return stage1_runs(config, design_from_config(config))


def counted_lstsq(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


def tanh_dataset(seed):
    """A smooth non-linear target, which no affine law fits and no fit reaches to rounding."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(591, 4))
    y = np.tanh(X @ np.array([1.0, -2.0, 0.5, 1.5])) + 0.3 * X[:, 0] * X[:, 2]
    return Dataset(rows=np.column_stack([X, y]), train_indices=np.arange(500),
                   test_indices=np.arange(500, 591))


def assert_same_fit(model, capped):
    assert np.array_equal(model.consequents, capped.consequents)
    for name in "abc":
        assert np.array_equal(getattr(model, name), getattr(capped, name))


def assert_history_held(model, history, last_epoch, epochs):
    """The history holds the epochs up to ``last_epoch`` and no more, the model's
    metadata the last of them."""
    assert history.train_rmse.shape == history.test_rmse.shape == (last_epoch + 1,)
    assert model.metadata["epochs"] == epochs
    assert model.metadata["rmse"] == {"train": float(history.train_rmse[-1]),
                                      "test": float(history.test_rmse[-1])}
    assert history.flags == model.metadata["flags"]


class TestEarlyStop:
    """Training stops at the rounding floor or at a stalled premise step, one
    solve per epoch run; the result must be the one the full epoch loop would give."""

    # steps too long for their few halvings: each accepted step lowers the train RMSE by
    # more than 1e-5 of itself, and the stalled one raises it by more than 2e-4 at every
    # halving, so the stall does not hang on rounding
    @pytest.mark.parametrize("seed, learning_rate, max_halvings, stall_epoch",
                             [(9, 100.0, 3, 0), (2, 180.0, 4, 25)],
                             ids=["seed9-stall0", "seed2-stall25"])
    def test_stall_matches_fit_capped_at_stall_epoch(self, monkeypatch, seed, learning_rate,
                                                     max_halvings, stall_epoch):
        ds = tanh_dataset(seed)
        monkeypatch.setattr(anfis, "MAX_HALVINGS", max_halvings)
        config = AnfisConfig(epochs=40, learning_rate=learning_rate)
        calls = counted_lstsq(monkeypatch)
        model, history = train_hybrid(ds, config)
        assert len(history.train_rmse) == stall_epoch + 1
        assert history.flags[-1] == "premise_step_stalled"
        assert len(calls) == stall_epoch + 1

        capped, capped_history = train_hybrid(ds, replace(config, epochs=stall_epoch + 1))
        assert len(capped_history.train_rmse) == stall_epoch + 1
        assert not {"rounding_floor", "premise_step_stalled"} & set(capped_history.flags)
        assert_same_fit(model, capped)
        # the capped fit ends before it can take, and stall on, that last premise step
        assert model.metadata["flags"] == capped.metadata["flags"] + ["premise_step_stalled"]
        k = stall_epoch + 1
        assert np.array_equal(history.train_rmse[:k], capped_history.train_rmse)
        assert np.array_equal(history.test_rmse[:k], capped_history.test_rmse)
        assert_history_held(model, history, stall_epoch, 40)

    def test_fit_without_stall_runs_every_epoch(self, monkeypatch):
        calls = counted_lstsq(monkeypatch)
        model, history = train_hybrid(tanh_dataset(9), AnfisConfig(epochs=20))
        assert history.train_rmse.shape == history.test_rmse.shape == (20,)
        assert history.flags == []
        assert len(calls) == 20
        assert np.all(np.diff(history.train_rmse) < 0.0)

    # the rank flag is that of phi itself: the ridge rows make the solved system full rank
    @pytest.mark.parametrize("rows, flags", [
        (200, ["rank_deficient_lse", "rounding_floor"]),
        (500, ["rank_deficient_lse", "rounding_floor"]),
        (2500, ["rounding_floor"]),
    ], ids=["200", "500", "2500"])
    def test_logged_lqr_law_stops_at_rounding_floor(self, stage1_logs, monkeypatch, rows, flags):
        calls = counted_lstsq(monkeypatch)
        for seed in range(10):
            ds = generate_dataset(stage1_logs, train_count=rows, test_count=91, seed=seed)
            calls.clear()
            model, history = train_hybrid(ds, AnfisConfig(epochs=50))
            assert (len(history.train_rmse), len(calls)) == (1, 1), seed
            assert history.flags == flags
            assert history.train_rmse[0] <= 1e-12 * np.sqrt(np.mean(np.square(ds.train_y)))
            assert_history_held(model, history, 0, 50)

            capped, _ = train_hybrid(ds, AnfisConfig(epochs=1))
            assert_same_fit(model, capped)


def pooled_dataset(runs, *, train_count, test_count, seed):
    """`generate_dataset` as first written, the reference for its bits: every logged row
    is stacked into one pool, and the drawn rows are taken from it."""
    pools = []
    for run in runs:
        dev = run.theta_deviation()
        pools.append(np.column_stack([run.x, run.x_dot, dev, run.theta_dot, run.u]))
    if not pools:
        raise ValueError("no runs supplied")
    pool = np.vstack(pools)
    total = train_count + test_count
    if pool.shape[0] < total:
        raise ValueError(f"need at least {total} logged rows, got {pool.shape[0]}")
    if float(np.var(pool[:, 4])) <= 1e-24:
        raise ValueError("degenerate coverage: command signal has zero variance")

    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(pool.shape[0], size=total, replace=False))
    rows = pool[picked]
    order = rng.permutation(total)
    return Dataset(
        rows=rows,
        train_indices=np.sort(order[:train_count]),
        test_indices=np.sort(order[train_count:]),
    )


def assert_same_dataset(got, want):
    assert got.rows.tobytes() == want.rows.tobytes()
    assert np.array_equal(got.train_indices, want.train_indices)
    assert np.array_equal(got.test_indices, want.test_indices)


# the (training rows, seed) grid of the benchmark's refit workload, 91 test rows each
REFIT_GRID = [(500, s) for s in range(8)] + [(2500, s) for s in range(3)]


class TestGenerateDataset:
    @settings(max_examples=150, deadline=None)
    @given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=5), data=st.data(),
           seed=st.integers(0, 2**32 - 1), as_generator=st.booleans())
    def test_equals_pooled_reference(self, lengths, data, seed, as_generator):
        rng = np.random.default_rng(seed)
        logs = [series_from_rows(rng.normal(size=(n, 5))) for n in lengths]
        n_rows = sum(lengths)
        total = data.draw(st.one_of(st.just(n_rows), st.integers(1, n_rows)), label="total")
        train_count = data.draw(st.integers(1, total), label="train_count")
        kwargs = dict(train_count=train_count, test_count=total - train_count, seed=seed)

        def outcome(build, runs):
            try:
                return build(runs, **kwargs)
            except ValueError as exc:  # a 1-row pool has zero command variance
                return str(exc)

        got = outcome(generate_dataset, (log for log in logs) if as_generator else logs)
        want = outcome(pooled_dataset, logs)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_dataset(got, want)

    def test_refit_grid_equals_pooled_reference(self, stage1_logs):
        for rows, seed in REFIT_GRID:
            assert_same_dataset(
                generate_dataset(stage1_logs, train_count=rows, test_count=91, seed=seed),
                pooled_dataset(stage1_logs, train_count=rows, test_count=91, seed=seed))

    def test_peak_memory_below_pooled_table(self, stage1_logs):
        pooled_bytes = sum(len(run) for run in stage1_logs) * 5 * 8
        assert pooled_bytes == 108009 * 5 * 8
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for rows in (500, 2500):
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                generate_dataset(stage1_logs, train_count=rows, test_count=91, seed=0)
                assert tracemalloc.get_traced_memory()[1] - base < pooled_bytes, rows
        finally:
            if started:
                tracemalloc.stop()

    def test_one_constant_log_among_varying_ones(self):
        rng = np.random.default_rng(15)
        varying = np.column_stack([rng.uniform(-1, 1, size=(400, 4)), rng.normal(size=400)])
        logs = [series_from_rows(np.zeros((400, 5))), series_from_rows(varying)]
        ds = generate_dataset(logs, train_count=500, test_count=91, seed=1)
        assert ds.rows.shape == (591, 5)

    def test_exact_split_counts(self):
        rng = np.random.default_rng(12)
        rows = np.column_stack([rng.uniform(-1, 1, size=(2000, 4)), rng.normal(size=2000)])
        ds = generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=5)
        assert len(ds.train_indices) == 500
        assert len(ds.test_indices) == 91
        assert np.intersect1d(ds.train_indices, ds.test_indices).size == 0
        assert ds.rows.shape == (591, 5)

    def test_seed_determinism(self):
        rng = np.random.default_rng(13)
        rows = np.column_stack([rng.uniform(-1, 1, size=(1000, 4)), rng.normal(size=1000)])
        a = generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=99)
        b = generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=99)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_rejects_degenerate_zero_variance(self):
        rows = np.zeros((1000, 5))
        with pytest.raises(ValueError, match="zero variance"):
            generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=0)

    def test_rejects_insufficient_rows(self):
        rng = np.random.default_rng(14)
        rows = np.column_stack([rng.uniform(-1, 1, size=(100, 4)), rng.normal(size=100)])
        with pytest.raises(ValueError, match="at least"):
            generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=0)


class TestPersistence:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = toy_model(n_inputs=4, n_mfs=2, seed=15)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_inference_zero_ulp(self, tmp_path):
        model = toy_model(n_inputs=4, n_mfs=2, seed=16)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        rng = np.random.default_rng(17)
        for _ in range(20):
            z = rng.uniform(-2.0, 2.0, size=4)
            assert anfis_infer(model, z) == anfis_infer(back, z)

    @pytest.mark.parametrize("doctor", [
        lambda doc: doc["premises"][0][0].update(a=True),
        lambda doc: doc["premises"][1][0].update(c="0.5"),
        lambda doc: doc["premises"][2][1].update(kind="triangle"),
        lambda doc: doc["premises"][3].pop(),
        lambda doc: doc["consequents"][2].__setitem__(0, None),
        lambda doc: doc.update(metadata=[1, 2]),
    ], ids=["boolean-width", "string-center", "other-kind", "ragged-grid", "null-consequent",
            "list-metadata"])
    def test_rejects_doctored_file(self, tmp_path, doctor):
        path = tmp_path / "model.json"
        save_model(toy_model(n_inputs=4, n_mfs=2, seed=28), path)
        doc = json.loads(path.read_text())
        doctor(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"malformed model file {path}: ")):
            load_model(path)

    def test_truncated_file_reports_position(self, tmp_path):
        model = toy_model(seed=18)
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_text(path.read_text()[: 40])
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)

    def test_missing_section_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"premises": [], "consequents": []}))
        with pytest.raises(ValueError, match="input_ranges"):
            load_model(path)

    def test_dataset_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        rows = np.column_stack([rng.uniform(-1, 1, size=(700, 4)), rng.normal(size=700)])
        ds = generate_dataset([series_from_rows(rows)], train_count=500, test_count=91, seed=3)
        path = tmp_path / "dataset.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,x_dot,theta_dev,theta_dot,u"
        back = Dataset.from_csv(path, ds.split_manifest())
        assert np.array_equal(back.rows, ds.rows)
        assert np.array_equal(back.train_indices, ds.train_indices)
