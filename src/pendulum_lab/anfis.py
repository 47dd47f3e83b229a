"""First-order Takagi-Sugeno neuro-fuzzy system with hybrid training.

The rule base is a full grid partition: every combination of one membership
function per input forms a rule (lexicographic order of MF indices), and each
rule carries an affine consequent.  The five-layer forward pass is

    layer 1  membership degrees   mu = gbell(z)
    layer 2  firing strengths     w_j = prod_k mu_{k, rule_j(k)}
    layer 3  normalization        wbar_j = w_j / sum w
    layer 4  weighted consequents wbar_j (theta_j . z + theta_j0)
    layer 5  sum                  Z = sum_j wbar_j (theta_j . z + theta_j0)

A single sample (the controller's path, one call per simulation step) is
evaluated by `anfis_infer` over plain Python floats, from float copies of the
premise and consequent parameters that each model builds once: at 16 rules,
a dozen tiny numpy calls would cost more than the arithmetic.  Batches (the
training path) go through numpy in `_infer_batch`, `_design_matrix` and
`premise_gradients`; the two paths agree to rounding.

Training follows Jang's hybrid scheme: per epoch, the consequents are solved
exactly by linear least squares with the premises frozen, then the premise
parameters take one gradient-descent step (step halved on error increase).
Because any global affine map is representable exactly (set every consequent
to the same row), fitting a linear state-feedback law drives the residual to
machine noise on the very first least-squares pass.  A premise step whose
every halving is rejected leaves the premises unchanged, so each later epoch
would solve the same least squares and stall again: training stops there,
and the history repeats that epoch's errors up to the epoch cap.

Models are immutable once constructed; training works on private arrays and
returns a fresh model.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "MembershipFunction",
    "AnfisModel",
    "Dataset",
    "TrainConfig",
    "TrainingHistory",
    "firing_strengths",
    "normalize",
    "anfis_infer",
    "premise_gradients",
    "train_hybrid",
    "initial_model",
    "generate_dataset",
    "save_model",
    "load_model",
]

DATASET_HEADER = ["x", "x_dot", "theta_dev", "theta_dot", "u"]


@dataclass(frozen=True)
class MembershipFunction:
    """Generalized bell 1 / (1 + ((z - c) / a)^(2b)): peak 1 at the center c,
    strictly positive and symmetric, width a and shoulder sharpness b."""

    a: float
    b: float
    c: float
    kind: str = "gbell"

    def __post_init__(self) -> None:
        if self.kind != "gbell":
            raise ValueError(f"unsupported membership kind {self.kind!r}")
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError(f"width a must be > 0, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"shape b must be > 0, got {self.b!r}")
        if not math.isfinite(self.c):
            raise ValueError(f"center c must be finite, got {self.c!r}")

    def __call__(self, z: float) -> float:
        with np.errstate(over="ignore"):
            return float(1.0 / (1.0 + abs((z - self.c) / self.a) ** (2.0 * self.b)))


def _bell(z, a, b, c):
    # z: (n, k) broadcast against per-input MF parameter arrays (k, m)
    with np.errstate(over="ignore"):
        t = np.square((z[..., None] - c) / a)
        return 1.0 / (1.0 + t**b)


@dataclass(frozen=True)
class AnfisModel:
    """Premise grid, consequent matrix and the training input ranges.

    ``premises[k][m]`` is the m-th membership function of input k.
    ``consequents`` has one row per rule: the input coefficients followed by
    the constant term.  ``input_ranges[k]`` is the (min, max) seen in
    training, kept for reproducibility and hull checks.
    """

    premises: tuple[tuple[MembershipFunction, ...], ...]
    consequents: np.ndarray
    input_ranges: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        grid = tuple(tuple(mfs) for mfs in self.premises)
        if not grid or not all(len(mfs) == len(grid[0]) and mfs for mfs in grid):
            raise ValueError("premises must be a rectangular, non-empty grid")
        object.__setattr__(self, "premises", grid)

        n_inputs, n_mfs = len(grid), len(grid[0])
        n_rules = n_mfs**n_inputs
        cons = np.asarray(self.consequents, dtype=float).reshape(n_rules, n_inputs + 1)
        if not np.all(np.isfinite(cons)):
            raise ValueError("non-finite consequent row")
        cons.setflags(write=False)
        object.__setattr__(self, "consequents", cons)

        ranges = np.asarray(self.input_ranges, dtype=float).reshape(n_inputs, 2)
        ranges.setflags(write=False)
        object.__setattr__(self, "input_ranges", ranges)

        for name, attr in (("a", "a"), ("b", "b"), ("c", "c")):
            arr = np.array([[getattr(mf, attr) for mf in mfs] for mfs in grid])
            arr.setflags(write=False)
            object.__setattr__(self, f"_{name}", arr)
        # rule j -> MF index per input, lexicographic in the MF indices
        index = np.array(list(itertools.product(range(n_mfs), repeat=n_inputs)), dtype=int)
        index.setflags(write=False)
        object.__setattr__(self, "_rule_index", index)
        # float copies for anfis_infer: (a, b, c) per MF of each input, and the
        # consequents by column (input coefficients, then the constant terms)
        object.__setattr__(self, "_mf_floats", tuple(
            tuple(zip(a, b, c)) for a, b, c in zip(
                self._a.tolist(), self._b.tolist(), self._c.tolist())))
        object.__setattr__(self, "_coef_columns", tuple(map(tuple, cons[:, :-1].T.tolist())))
        object.__setattr__(self, "_offsets", tuple(cons[:, -1].tolist()))

    @property
    def n_inputs(self) -> int:
        return len(self.premises)

    @property
    def mfs_per_input(self) -> int:
        return len(self.premises[0])

    @property
    def n_rules(self) -> int:
        return self.consequents.shape[0]

    def memberships(self, inputs: np.ndarray) -> np.ndarray:
        """Membership degrees, shape (..., n_inputs, mfs_per_input)."""
        z = np.asarray(inputs, dtype=float)
        return _bell(z, self._a, self._b, self._c)


def _rule_products(model: AnfisModel, mu: np.ndarray) -> np.ndarray:
    idx = model._rule_index  # (n_rules, n_inputs)
    cols = np.arange(model.n_inputs)
    return mu[..., cols, idx].prod(axis=-1)


def firing_strengths(model: AnfisModel, inputs: Sequence[float]) -> np.ndarray:
    """Layer-2 rule strengths: per rule, the product of its selected
    membership values.  Strictly positive for finite inputs."""
    z = np.asarray(inputs, dtype=float)
    if z.shape != (model.n_inputs,):
        raise ValueError(f"expected {model.n_inputs} inputs, got shape {z.shape}")
    return _rule_products(model, model.memberships(z))


def normalize(w: np.ndarray) -> np.ndarray:
    """Layer 3: scale strengths to sum to one."""
    w = np.asarray(w, dtype=float)
    total = w.sum()
    if not (total > 0.0):
        raise ValueError("firing strengths sum to zero; input too far outside all rules")
    return w / total


def _consequent_outputs(model: AnfisModel, z: np.ndarray) -> np.ndarray:
    return z @ model.consequents[:, :-1].T + model.consequents[:, -1]


def anfis_infer(model: AnfisModel, inputs: Sequence[float]) -> float:
    """Layers 1-5 for one sample, in Python floats.

    The bells are 1 / (1 + (((z - c) / a)^2)^b); a power too large for a
    float is a membership of 0.0, as numpy's overflow to inf gives.  Rule
    strengths are successive products in rule order (last input fastest),
    and the output is sum_j w_j (theta_j . z + theta_j0) / sum_j w_j,
    accumulated column by column.  This is the single-sample path;
    `_infer_batch` evaluates the same model over a batch in numpy for
    training, and the two agree to rounding.
    """
    z = [float(v) for v in inputs]
    if len(z) != len(model._mf_floats):
        raise ValueError(f"expected {len(model._mf_floats)} inputs, got {len(z)}")
    w = [1.0]
    for zk, mfs in zip(z, model._mf_floats):
        mu = []
        for a, b, c in mfs:
            d = (zk - c) / a
            try:
                mu.append(1.0 / (1.0 + (d * d) ** b))
            except OverflowError:
                mu.append(0.0)
        w = [wj * m for wj in w for m in mu]
    total = sum(w)
    if not (total > 0.0):
        raise ValueError("firing strengths sum to zero; input too far outside all rules")
    out = sum(map(mul, w, model._offsets))
    for zk, column in zip(z, model._coef_columns):
        out += zk * sum(map(mul, w, column))
    return out / total


def _infer_batch(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    w = _rule_products(model, model.memberships(X))
    totals = w.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("firing strengths sum to zero for some sample")
    return ((w / totals) * _consequent_outputs(model, X)).sum(axis=1)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class Dataset:
    """(x, x_dot, theta_dev, theta_dot, u) rows with a disjoint train/test split."""

    rows: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float).reshape(-1, 5)
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite dataset entry")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        train = np.asarray(self.train_indices, dtype=int)
        test = np.asarray(self.test_indices, dtype=int)
        all_idx = np.concatenate([train, test])
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= rows.shape[0]):
            raise ValueError("split index out of range")
        if np.intersect1d(train, test).size:
            raise ValueError("train and test indices overlap")
        train.setflags(write=False)
        test.setflags(write=False)
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)

    @property
    def train_X(self) -> np.ndarray:
        return self.rows[self.train_indices, :4]

    @property
    def train_y(self) -> np.ndarray:
        return self.rows[self.train_indices, 4]

    @property
    def test_X(self) -> np.ndarray:
        return self.rows[self.test_indices, :4]

    @property
    def test_y(self) -> np.ndarray:
        return self.rows[self.test_indices, 4]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(DATASET_HEADER)
            for row in self.rows:
                writer.writerow([repr(float(v)) for v in row])

    def split_manifest(self) -> dict:
        return {
            "train_indices": self.train_indices.tolist(),
            "test_indices": self.test_indices.tolist(),
        }

    @classmethod
    def from_csv(cls, path, split: dict) -> "Dataset":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != DATASET_HEADER:
                raise ValueError(f"unexpected dataset header {header!r}")
            rows = np.array([[float(v) for v in row] for row in reader])
        return cls(
            rows=rows,
            train_indices=np.array(split["train_indices"], dtype=int),
            test_indices=np.array(split["test_indices"], dtype=int),
        )


def generate_dataset(runs, train_count: int = 500, test_count: int = 91, seed: int = 0) -> Dataset:
    """Subsample logged (state, command) pairs into an exact train/test split.

    ``runs`` is any iterable of TimeSeries-like logs.  Rows are drawn
    uniformly without replacement and the split assignment is also seeded, so
    a given seed always yields the same dataset.  Logs with (near-)zero
    command variance are rejected: they cannot constrain the consequents.
    """
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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 0.01
    mfs_per_input: int = 2
    shape_b: float = 2.0
    max_halvings: int = 20

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.learning_rate > 0.0):
            raise ValueError("learning_rate must be > 0")
        if self.mfs_per_input < 1:
            raise ValueError("mfs_per_input must be >= 1")


@dataclass
class TrainingHistory:
    """Per-epoch RMSE on the two splits, plus any anomaly flags raised.

    ``stop_epoch`` is the epoch whose premise step stalled, after which
    training stopped, or None when every epoch up to the cap ran.
    """

    train_rmse: np.ndarray
    test_rmse: np.ndarray
    flags: list[str]
    stop_epoch: Optional[int] = None

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_rmse", "test_rmse"])
            for i, (tr, te) in enumerate(zip(self.train_rmse, self.test_rmse)):
                writer.writerow([i, repr(float(tr)), repr(float(te))])


def initial_model(X: np.ndarray, mfs_per_input: int = 2, shape_b: float = 2.0) -> AnfisModel:
    """Grid-partition start: centers spread over each input's range, widths
    half the spacing between centers, all consequents zero."""
    X = np.asarray(X, dtype=float)
    n_inputs = X.shape[1]
    lo, hi = X.min(axis=0), X.max(axis=0)
    premises = []
    for k in range(n_inputs):
        span = max(hi[k] - lo[k], 1e-6)
        if mfs_per_input == 1:
            centers = [0.5 * (lo[k] + hi[k])]
            width = span / 2.0
        else:
            centers = np.linspace(lo[k], hi[k], mfs_per_input)
            width = span / (2.0 * (mfs_per_input - 1))
        premises.append(tuple(MembershipFunction(a=width, b=shape_b, c=float(c)) for c in centers))
    n_rules = mfs_per_input**n_inputs
    return AnfisModel(
        premises=tuple(premises),
        consequents=np.zeros((n_rules, n_inputs + 1)),
        input_ranges=np.column_stack([lo, hi]),
    )


def _design_matrix(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    w = _rule_products(model, model.memberships(X))
    wbar = w / w.sum(axis=1, keepdims=True)
    n = X.shape[0]
    Xe = np.concatenate([X, np.ones((n, 1))], axis=1)  # (n, p+1)
    # column block per rule: wbar_j * (z_1 .. z_p, 1)
    return (wbar[:, :, None] * Xe[:, None, :]).reshape(n, -1)


def premise_gradients(
    model: AnfisModel, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the sum of squared errors w.r.t. the premise parameter
    grids (a, b, c), backpropagated through all five layers."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = model.memberships(X)  # (n, k, m)
    w = _rule_products(model, mu)  # (n, j)
    totals = w.sum(axis=1, keepdims=True)
    wbar = w / totals
    F = _consequent_outputs(model, X)  # (n, j)
    Z = (wbar * F).sum(axis=1)
    r = Z - y

    # dSSE/dw_j = 2 r (F_j - Z) / sum(w); fold in w_j for the product rule
    G = (2.0 * r[:, None]) * (F - Z[:, None]) / totals * w  # (n, j)

    # scatter rule gradients onto the (input, mf) grid the rule selects
    k, m = model.n_inputs, model.mfs_per_input
    assign = np.zeros((model.n_rules, k, m))
    assign[np.arange(model.n_rules)[:, None], np.arange(k)[None, :], model._rule_index] = 1.0
    P = np.einsum("nj,jkm->nkm", G, assign)  # dSSE/dmu * mu

    a, b, c = model._a, model._b, model._c
    one_minus = 1.0 - mu
    diff = X[:, :, None] - c
    safe_diff = np.where(np.abs(diff) < 1e-300, 1.0, diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.where(diff == 0.0, 0.0, 2.0 * np.log(np.abs(safe_diff) / a))

    grad_a = (P * 2.0 * b * one_minus / a).sum(axis=0)
    grad_c = (P * np.where(diff == 0.0, 0.0, 2.0 * b * one_minus / safe_diff)).sum(axis=0)
    grad_b = (P * (-one_minus) * log_t).sum(axis=0)
    return grad_a, grad_b, grad_c


def _rebuild(model: AnfisModel, a, b, c, consequents, metadata=None) -> AnfisModel:
    premises = tuple(
        tuple(MembershipFunction(a=float(a[k, m]), b=float(b[k, m]), c=float(c[k, m]))
              for m in range(a.shape[1]))
        for k in range(a.shape[0])
    )
    return AnfisModel(
        premises=premises,
        consequents=consequents,
        input_ranges=model.input_ranges,
        metadata=metadata if metadata is not None else dict(model.metadata),
    )


def _rmse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(pred - target))))


def train_hybrid(
    dataset: Dataset, config: Optional[TrainConfig] = None
) -> tuple[AnfisModel, TrainingHistory]:
    """Hybrid least-squares / gradient-descent training.

    Each epoch solves the consequents exactly for the current premises
    (minimum-norm when rank-deficient, flagged), records train/test RMSE,
    then takes one premise gradient step, halving the step up to
    ``max_halvings`` times whenever it would increase the training error.
    A candidate is accepted when its training RMSE is at most the current
    one times (1 + 1e-12), so the recorded training RMSE never rises by more
    than that relative amount; at the rounding floor of a near-exact fit it
    can rise by about 1e-16 V.

    When every halving is rejected (flag ``premise_step_stalled``), the
    premises stay as they were.  The next epoch would then solve the same
    least squares on the same design matrix and stall again, bit for bit, so
    that state is a fixed point: training stops at the first stalled epoch,
    records it as ``stop_epoch`` and fills the rest of both RMSE histories
    with that epoch's values.  ``config.epochs`` is the cap; the returned
    model and history are those the full loop would produce.
    """
    if config is None:
        config = TrainConfig()
    epochs = config.epochs
    X, y = dataset.train_X, dataset.train_y
    Xt, yt = dataset.test_X, dataset.test_y
    model = initial_model(X, config.mfs_per_input, config.shape_b)
    n_params = model.n_rules * (model.n_inputs + 1)
    if X.shape[0] < n_params:
        raise ValueError(
            f"dataset too small: {X.shape[0]} training rows for {n_params} consequent parameters"
        )

    flags: list[str] = []
    stop_epoch = None
    train_hist = np.empty(epochs)
    test_hist = np.empty(epochs)
    a_floor = 1e-6 * max(1.0, float(np.max(model.input_ranges[:, 1] - model.input_ranges[:, 0])))

    for epoch in range(epochs):
        phi = _design_matrix(model, X)
        theta, _, rank, _ = np.linalg.lstsq(phi, y, rcond=None)
        if rank < n_params and "rank_deficient_lse" not in flags:
            flags.append("rank_deficient_lse")
        model = _rebuild(model, model._a, model._b, model._c,
                         theta.reshape(model.n_rules, model.n_inputs + 1))
        train_err = _rmse(phi @ theta, y)
        train_hist[epoch] = train_err
        test_hist[epoch] = _rmse(_infer_batch(model, Xt), yt) if Xt.shape[0] else math.nan

        if epoch == epochs - 1:
            break

        grad_a, grad_b, grad_c = premise_gradients(model, X, y)
        scale = 1.0 / X.shape[0]
        step = config.learning_rate
        accepted = None
        for _ in range(config.max_halvings + 1):
            a_new = np.maximum(model._a - step * scale * grad_a, a_floor)
            b_new = np.maximum(model._b - step * scale * grad_b, 0.5)
            c_new = model._c - step * scale * grad_c
            candidate = _rebuild(model, a_new, b_new, c_new, model.consequents)
            if _rmse(_infer_batch(candidate, X), y) <= train_err * (1.0 + 1e-12):
                accepted = candidate
                break
            step *= 0.5
        if accepted is None:
            flags.append("premise_step_stalled")
            stop_epoch = epoch
            train_hist[epoch + 1:] = train_err
            test_hist[epoch + 1:] = test_hist[epoch]
            break
        model = accepted

    y_span = float(y.max() - y.min())
    rmse_pct = 100.0 * train_hist[-1] / y_span if y_span > 0.0 else 0.0
    metadata = {
        "epochs": epochs,
        "rmse": {"train": float(train_hist[-1]), "test": float(test_hist[-1])},
        "rmse_pct_of_range": rmse_pct,
        "flags": list(flags),
    }
    model = _rebuild(model, model._a, model._b, model._c, model.consequents, metadata)
    return model, TrainingHistory(train_rmse=train_hist, test_rmse=test_hist, flags=flags,
                                  stop_epoch=stop_epoch)


# ---------------------------------------------------------------------------
# persistence


def save_model(model: AnfisModel, path) -> None:
    """Canonical JSON dump; floats round-trip exactly, reruns are byte-identical."""
    doc = {
        "premises": [
            [{"kind": mf.kind, "a": mf.a, "b": mf.b, "c": mf.c} for mf in mfs]
            for mfs in model.premises
        ],
        "consequents": model.consequents.tolist(),
        "input_ranges": model.input_ranges.tolist(),
        "metadata": model.metadata,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> AnfisModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed model file {path}: {exc}") from exc
    missing = {"premises", "consequents", "input_ranges", "metadata"} - doc.keys()
    if missing:
        raise ValueError(f"model file {path} missing sections: {sorted(missing)}")
    premises = tuple(
        tuple(MembershipFunction(a=mf["a"], b=mf["b"], c=mf["c"], kind=mf.get("kind", "gbell"))
              for mf in mfs)
        for mfs in doc["premises"]
    )
    return AnfisModel(
        premises=premises,
        consequents=np.array(doc["consequents"]),
        input_ranges=np.array(doc["input_ranges"]),
        metadata=doc["metadata"],
    )
