import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pendulum_lab.anfis import (AnfisModel, Dataset, MembershipFunction, TrainConfig,
                                _infer_batch, anfis_infer, firing_strengths, generate_dataset,
                                initial_model, load_model, normalize, premise_gradients,
                                save_model, train_hybrid)
from pendulum_lab.simulate import TimeSeries


def toy_model(n_inputs=2, n_mfs=2, seed=0):
    rng = np.random.default_rng(seed)
    premises = tuple(
        tuple(
            MembershipFunction(a=float(rng.uniform(0.5, 2.0)),
                               b=float(rng.uniform(1.0, 3.0)),
                               c=float(rng.uniform(-1.0, 1.0)))
            for _ in range(n_mfs)
        )
        for _ in range(n_inputs)
    )
    consequents = rng.normal(size=(n_mfs**n_inputs, n_inputs + 1))
    ranges = np.tile([-1.0, 1.0], (n_inputs, 1))
    return AnfisModel(premises=premises, consequents=consequents, input_ranges=ranges)


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


class TestMembershipFunction:
    def test_peak_is_exactly_one(self):
        mf = MembershipFunction(a=0.7, b=2.0, c=1.3)
        assert mf(1.3) == 1.0

    @given(z=st.floats(-1e6, 1e6))
    def test_values_in_unit_interval(self, z):
        mf = MembershipFunction(a=0.7, b=2.0, c=1.3)
        assert 0.0 < mf(z) <= 1.0

    @given(dz=st.floats(0.0, 1e3))
    def test_symmetric_about_center(self, dz):
        mf = MembershipFunction(a=0.7, b=2.0, c=1.3)
        assert mf(1.3 + dz) == pytest.approx(mf(1.3 - dz), rel=1e-12)

    @pytest.mark.parametrize("kwargs", [{"a": 0.0}, {"b": 0.0}, {"c": math.nan}])
    def test_validation(self, kwargs):
        base = {"a": 1.0, "b": 2.0, "c": 0.0}
        with pytest.raises(ValueError):
            MembershipFunction(**{**base, **kwargs})


class TestFiringStrengths:
    def test_grid_point_fires_its_rule_fully(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=1)
        # input at the centers of MF index 1 for every input -> rule (1,1,1,1)
        z = np.array([model.premises[k][1].c for k in range(4)])
        w = firing_strengths(model, z)
        assert w[-1] == pytest.approx(1.0, rel=1e-12)  # lexicographic last rule
        assert np.all(w > 0.0)

    def test_all_positive_for_any_finite_input(self):
        model = toy_model(n_inputs=4, n_mfs=2, seed=2)
        w = firing_strengths(model, np.array([1e5, -1e5, 3.0, -42.0]))
        assert np.all(w > 0.0)

    def test_two_input_single_mf_product(self):
        mf1 = MembershipFunction(a=1.0, b=2.0, c=0.2)
        mf2 = MembershipFunction(a=0.5, b=1.0, c=-0.4)
        model = AnfisModel(
            premises=((mf1,), (mf2,)),
            consequents=np.zeros((1, 3)),
            input_ranges=np.tile([-1.0, 1.0], (2, 1)),
        )
        z = np.array([0.9, 0.1])
        w = firing_strengths(model, z)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(mf1(0.9) * mf2(0.1), rel=1e-12)

    def test_lexicographic_rule_order(self):
        model = toy_model(n_inputs=2, n_mfs=2, seed=3)
        z = np.array([0.3, -0.7])
        mu = [[model.premises[k][m](z[k]) for m in range(2)] for k in range(2)]
        expected = [mu[0][0] * mu[1][0], mu[0][0] * mu[1][1], mu[0][1] * mu[1][0], mu[0][1] * mu[1][1]]
        assert_allclose(firing_strengths(model, z), expected, rtol=1e-12)

    def test_input_shape_checked(self):
        with pytest.raises(ValueError):
            firing_strengths(toy_model(), np.zeros(3))


class TestNormalize:
    def test_uniform(self):
        assert_allclose(normalize(np.ones(16)), np.full(16, 1.0 / 16.0), rtol=0)

    def test_dominant_strength(self):
        w = np.full(16, 1e-6)
        w[3] = 1.0
        assert normalize(w)[3] == pytest.approx(1.0, abs=2e-5)

    def test_matches_exhaustive_recomputation(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.01, 5.0, size=16)
        total = 0.0
        for v in w:
            total += v
        assert_allclose(normalize(w), [v / total for v in w], rtol=1e-12)

    @given(st.lists(st.floats(1e-12, 1e6), min_size=2, max_size=32))
    @settings(max_examples=100)
    def test_sums_to_one(self, w):
        assert abs(normalize(np.array(w)).sum() - 1.0) <= 1e-12

    def test_rejects_zero_sum(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(4))


class TestInference:
    def test_single_rule_is_pure_affine(self):
        mf = MembershipFunction(a=0.1, b=3.0, c=5.0)
        model = AnfisModel(
            premises=((mf,), (mf,)),
            consequents=np.array([[2.0, -3.0, 0.25]]),
            input_ranges=np.tile([-1.0, 1.0], (2, 1)),
        )
        for z in ([0.0, 0.0], [100.0, -7.0], [5.0, 5.0]):
            assert anfis_infer(model, np.array(z)) == pytest.approx(
                2.0 * z[0] - 3.0 * z[1] + 0.25, rel=1e-12)

    def test_identical_consequents_collapse(self):
        model = toy_model(n_inputs=3, n_mfs=2, seed=5)
        row = np.array([1.5, -0.5, 2.0, 0.75])
        model = AnfisModel(premises=model.premises,
                           consequents=np.tile(row, (8, 1)),
                           input_ranges=model.input_ranges)
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.uniform(-3.0, 3.0, size=3)
            assert anfis_infer(model, z) == pytest.approx(float(row[:3] @ z + row[3]), rel=1e-10)

    def test_permutation_consistency(self):
        model = toy_model(n_inputs=2, n_mfs=2, seed=7)
        z = np.array([0.4, -0.9])
        w = firing_strengths(model, z)
        f = model.consequents[:, :2] @ z + model.consequents[:, 2]
        perm = np.array([3, 1, 0, 2])
        direct = float(normalize(w) @ f)
        permuted = float(normalize(w[perm]) @ f[perm])
        assert anfis_infer(model, z) == pytest.approx(direct, rel=1e-12)
        assert direct == pytest.approx(permuted, rel=1e-12)


@st.composite
def models_and_inputs(draw):
    """A model with 1-4 inputs and 1-3 MFs per input, and one input vector."""
    n_inputs = draw(st.integers(1, 4))
    n_mfs = draw(st.integers(1, 3))
    mf = st.builds(MembershipFunction, a=st.floats(0.1, 5.0), b=st.floats(0.5, 4.0),
                   c=st.floats(-3.0, 3.0))
    premises = tuple(tuple(draw(mf) for _ in range(n_mfs)) for _ in range(n_inputs))
    n_params = n_mfs**n_inputs * (n_inputs + 1)
    coef = draw(st.lists(st.floats(-100.0, 100.0), min_size=n_params, max_size=n_params))
    model = AnfisModel(premises=premises, consequents=np.array(coef),
                       input_ranges=np.tile([-1.0, 1.0], (n_inputs, 1)))
    z = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n_inputs, max_size=n_inputs)))
    return model, z


class TestScalarInference:
    """`anfis_infer` (Python floats) against the numpy layers and `_infer_batch`."""

    @settings(max_examples=300, deadline=None)
    @given(models_and_inputs())
    def test_matches_numpy_layers(self, case):
        model, z = case
        C = model.consequents
        rule_out = C[:, :-1] @ z + C[:, -1]
        reference = float(normalize(firing_strengths(model, z)) @ rule_out)
        # the two paths sum in different orders: allow 1e-12 of the largest
        # rule's term magnitudes, far above rounding and far below any misrouted rule
        tol = 1e-12 * (1.0 + float(np.max(np.abs(C[:, :-1] * z).sum(axis=1) + np.abs(C[:, -1]))))
        value = anfis_infer(model, z)
        assert abs(value - reference) <= tol
        assert abs(value - float(_infer_batch(model, z[None])[0])) <= tol

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
        narrow = MembershipFunction(a=1e-100, b=2.0, c=0.0)
        wide = MembershipFunction(a=1.0, b=2.0, c=0.0)
        ranges = np.array([[-1.0, 1.0]])
        model = AnfisModel(premises=((narrow, wide),),
                           consequents=np.array([[1.0, 5.0], [2.0, -1.0]]), input_ranges=ranges)
        assert anfis_infer(model, [1.0]) == 2.0 * 1.0 - 1.0  # the wide MF's rule alone
        alone = AnfisModel(premises=((narrow,),), consequents=np.array([[1.0, 5.0]]),
                           input_ranges=ranges)
        with pytest.raises(ValueError):
            anfis_infer(alone, [1.0])


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
                        prem = [list(mfs) for mfs in model.premises]
                        mf = prem[k][m]
                        vals = {"a": mf.a, "b": mf.b, "c": mf.c}
                        vals[which] += delta
                        prem[k][m] = MembershipFunction(**vals)
                        return AnfisModel(premises=tuple(tuple(p) for p in prem),
                                          consequents=model.consequents,
                                          input_ranges=model.input_ranges)

                    fd = (sse(perturbed(step)) - sse(perturbed(-step))) / (2 * step)
                    assert grad[k, m] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_zero_at_center_singularities(self):
        # sample exactly on a center: gradients stay finite
        model = toy_model(n_inputs=2, n_mfs=2, seed=3)
        X = np.array([[model.premises[0][0].c, model.premises[1][1].c]])
        grads = premise_gradients(model, X, np.array([0.3]))
        for g in grads:
            assert np.all(np.isfinite(g))


class TestTrainHybrid:
    def test_constant_target_fits_first_pass(self):
        rng = np.random.default_rng(8)
        rows = np.column_stack([rng.uniform(-1, 1, size=(600, 4)), np.full(600, 2.5)])
        ds = Dataset(rows=rows, train_indices=np.arange(500), test_indices=np.arange(500, 591))
        model, history = train_hybrid(ds, TrainConfig(epochs=1))
        assert history.train_rmse[0] <= 1e-9

    def test_state_feedback_target_exact_fit(self):
        K = np.array([-34.64, -20.73, 67.03, 13.09])
        ds = affine_dataset(K)
        # oracle: the uniform-consequent model reproduces the affine law outright
        reference = initial_model(ds.train_X)
        reference = AnfisModel(
            premises=reference.premises,
            consequents=np.tile(np.concatenate([-K, [0.0]]), (16, 1)),
            input_ranges=reference.input_ranges,
        )
        direct_err = max(abs(anfis_infer(reference, x) - t) for x, t in zip(ds.train_X[:50], ds.train_y[:50]))
        assert direct_err <= 1e-12

        model, history = train_hybrid(ds, TrainConfig(epochs=1))
        assert history.train_rmse[0] <= 1e-6
        assert history.test_rmse[0] <= 1e-5

    def test_history_monotone_nonincreasing(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(591, 4))
        y = np.tanh(X @ np.array([1.0, -2.0, 0.5, 1.5])) + 0.3 * X[:, 0] * X[:, 2]
        ds = Dataset(rows=np.column_stack([X, y]), train_indices=np.arange(500),
                     test_indices=np.arange(500, 591))
        model, history = train_hybrid(ds, TrainConfig(epochs=8))
        diffs = np.diff(history.train_rmse)
        assert np.all(diffs <= 1e-12 * (1.0 + history.train_rmse[:-1]))

    def test_lse_is_optimal_for_frozen_premises(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(591, 4))
        y = np.sin(X @ np.array([2.0, 1.0, -1.0, 0.5]))
        ds = Dataset(rows=np.column_stack([X, y]), train_indices=np.arange(500),
                     test_indices=np.arange(500, 591))
        model, _ = train_hybrid(ds, TrainConfig(epochs=1))

        base_sse = float(np.sum((_infer_batch(model, ds.train_X) - ds.train_y) ** 2))
        worse = 0
        for j, col in ((0, 0), (7, 2), (15, 4), (3, 1)):
            for delta in (1e-3, -1e-3):
                cons = model.consequents.copy()
                cons[j, col] += delta
                bumped = AnfisModel(premises=model.premises, consequents=cons,
                                    input_ranges=model.input_ranges)
                sse = float(np.sum((_infer_batch(bumped, ds.train_X) - ds.train_y) ** 2))
                assert sse >= base_sse - 1e-9 * (1.0 + base_sse)
                worse += sse > base_sse
        assert worse > 0

    def test_rejects_undersized_dataset(self):
        rng = np.random.default_rng(11)
        rows = np.column_stack([rng.uniform(-1, 1, size=(70, 4)), rng.normal(size=70)])
        ds = Dataset(rows=rows, train_indices=np.arange(60), test_indices=np.arange(60, 70))
        with pytest.raises(ValueError, match="too small"):
            train_hybrid(ds, TrainConfig(epochs=1))

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


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


class TestEarlyStop:
    """A stalled premise step leaves the premises unchanged, so training stops
    there; the result must be the one the full epoch loop would give."""

    @pytest.mark.parametrize("seed, stall_epoch", [(1, 1), (7, 4)])
    def test_stop_matches_fit_capped_at_stall_epoch(self, stage1_logs, monkeypatch,
                                                    seed, stall_epoch):
        ds = generate_dataset(stage1_logs, train_count=500, test_count=91, seed=seed)
        calls = counted_lstsq(monkeypatch)
        model, history = train_hybrid(ds, TrainConfig(epochs=50))
        assert history.stop_epoch == stall_epoch
        assert len(calls) == stall_epoch + 1

        capped, capped_history = train_hybrid(ds, TrainConfig(epochs=stall_epoch + 1))
        assert capped_history.stop_epoch is None
        assert np.array_equal(model.consequents, capped.consequents)
        for name in ("_a", "_b", "_c"):
            assert np.array_equal(getattr(model, name), getattr(capped, name))
        # the capped fit ends before it can take, and stall on, that last premise step
        assert model.metadata["flags"] == capped.metadata["flags"] + ["premise_step_stalled"]
        assert history.flags == model.metadata["flags"]
        k = stall_epoch + 1
        assert np.array_equal(history.train_rmse[:k], capped_history.train_rmse)
        assert np.array_equal(history.test_rmse[:k], capped_history.test_rmse)

        assert history.train_rmse.shape == history.test_rmse.shape == (50,)
        assert np.all(history.train_rmse[stall_epoch:] == history.train_rmse[stall_epoch])
        assert np.all(history.test_rmse[stall_epoch:] == history.test_rmse[stall_epoch])
        assert model.metadata["epochs"] == 50
        assert model.metadata["rmse"] == {"train": float(history.train_rmse[stall_epoch]),
                                          "test": float(history.test_rmse[stall_epoch])}

    def test_fit_without_stall_runs_every_epoch(self, stage1_logs, monkeypatch):
        ds = generate_dataset(stage1_logs, train_count=500, test_count=91, seed=0)
        calls = counted_lstsq(monkeypatch)
        model, history = train_hybrid(ds, TrainConfig(epochs=50))
        assert history.stop_epoch is None
        assert "premise_step_stalled" not in history.flags
        assert len(calls) == 50


class TestGenerateDataset:
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
        a = generate_dataset([series_from_rows(rows)], seed=99)
        b = generate_dataset([series_from_rows(rows)], seed=99)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    def test_rejects_degenerate_zero_variance(self):
        rows = np.zeros((1000, 5))
        with pytest.raises(ValueError, match="zero variance"):
            generate_dataset([series_from_rows(rows)])

    def test_rejects_insufficient_rows(self):
        rng = np.random.default_rng(14)
        rows = np.column_stack([rng.uniform(-1, 1, size=(100, 4)), rng.normal(size=100)])
        with pytest.raises(ValueError, match="at least"):
            generate_dataset([series_from_rows(rows)])


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
        ds = generate_dataset([series_from_rows(rows)], seed=3)
        path = tmp_path / "dataset.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == "x,x_dot,theta_dev,theta_dot,u"
        back = Dataset.from_csv(path, ds.split_manifest())
        assert np.array_equal(back.rows, ds.rows)
        assert np.array_equal(back.train_indices, ds.train_indices)
