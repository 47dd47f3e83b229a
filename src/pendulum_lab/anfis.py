"""First-order Takagi-Sugeno neuro-fuzzy system with hybrid training.

The rule base is a full grid partition: every combination of one membership
function per input forms a rule (lexicographic order of MF indices), and each
rule carries an affine consequent.  The five-layer forward pass is

    layer 1  membership degrees   mu = gbell(z)
    layer 2  firing strengths     w_j = prod_k mu_{k, rule_j(k)}
    layer 3  normalization        wbar_j = w_j / sum w
    layer 4  weighted consequents wbar_j (theta_j . z + theta_j0)
    layer 5  sum                  Z = sum_j wbar_j (theta_j . z + theta_j0)

A single sample is evaluated by straight-line float code generated for the
model (`_law_source`), every premise and consequent value a literal: the
closed loop inlines it, and the model's `law` compiles it on first use.
Training, which builds hundreds of candidate models, compiles none.  At 16
rules a dozen tiny numpy calls would cost more than the arithmetic.
Batches (the training path) go through numpy in `_infer_batch`,
`_design_matrix` and `premise_gradients`; the two paths agree to rounding.

Training follows Jang's hybrid scheme (IEEE TSMC 1993): per epoch, the
consequents are solved by linear least squares with the premises frozen,
then the premise parameters take one gradient-descent step (step halved on
error increase).  The least squares is made well posed by a ridge toward
the global affine fit g of the targets, so rules the data barely excite keep
g instead of an arbitrary minimum-norm answer.  Any global affine map is
representable exactly (set every consequent to the same row), so a linear
state-feedback target is fitted to rounding by the very first solve, and
training stops there.  A premise step whose every halving is rejected
leaves the premises unchanged, so each later epoch would solve the same
least squares and stall again: training stops there as well.  The history
holds one row per epoch that ran.

The conclusion for this pipeline: the LQR teacher's logged law u = -K z is
exactly linear, so g = [-K, 0] to rounding and the well-posed TS-LA model
*is* the LQR law, every rule's consequent the same row.  The fuzzy layer
adds nothing on this data; it would only matter for a teacher whose law is
not affine.

The premises are three arrays a, b and c, each (n_inputs, mfs_per_input): the
width, shape and center of the bell of each input's membership functions.
They are the model's only store of the premises; the model file writes one
``{"kind": "gbell", "a", "b", "c"}`` object per membership function.

Models are immutable once constructed; training derives each new model with
`dataclasses.replace`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .artifacts import (_frozen, _number, bounded, check_domains, read_csv, read_json, write_csv,
                        write_json)
from .plant import UPRIGHT_THETA
from .simulate import FALL_ANGLE, _compiled

__all__ = [
    "AnfisConfig",
    "AnfisModel",
    "Dataset",
    "Stage1Config",
    "TrainingHistory",
    "anfis_infer",
    "premise_gradients",
    "train_hybrid",
    "initial_model",
    "generate_dataset",
    "save_model",
    "load_model",
]

DATASET_HEADER = ["x", "x_dot", "theta_dev", "theta_dot", "u"]


def _bell(z, a, b, c):
    # z: (n, k) broadcast against per-input MF parameter arrays (k, m)
    with np.errstate(over="ignore"):
        t = np.square((z[..., None] - c) / a)
        return 1.0 / (1.0 + t**b)


@dataclass(frozen=True, eq=False)
class AnfisModel:
    """Premise grid, consequent matrix and the training input ranges.

    ``a``, ``b`` and ``c`` are each (n_inputs, mfs_per_input): entry [k, m]
    is the width, shape and center of the generalized bell
    1 / (1 + ((z_k - c) / a)^(2b)) of the m-th membership function of input
    k, which peaks at 1 on its center.  ``consequents`` has one row per rule:
    the input coefficients followed by the constant term.
    ``input_ranges[k]`` is the (min, max) seen in training, kept for
    reproducibility and hull checks.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    consequents: np.ndarray
    input_ranges: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        a, b, c = (_frozen(getattr(self, name)) for name in "abc")
        if a.ndim != 2 or a.size == 0 or not a.shape == b.shape == c.shape:
            raise ValueError("premises a, b and c must be one rectangular, non-empty grid")
        if not (np.all(np.isfinite(a) & (a > 0.0)) and np.all(np.isfinite(b) & (b > 0.0))):
            raise ValueError("premise widths a and shapes b must be finite and > 0")
        if not np.all(np.isfinite(c)):
            raise ValueError("premise centers c must be finite")
        for name, arr in zip("abc", (a, b, c)):
            object.__setattr__(self, name, arr)

        n_inputs, n_mfs = a.shape
        cons = _frozen(self.consequents, shape=(n_mfs**n_inputs, n_inputs + 1))
        if not np.all(np.isfinite(cons)):
            raise ValueError("non-finite consequent row")
        object.__setattr__(self, "consequents", cons)
        object.__setattr__(self, "input_ranges", _frozen(self.input_ranges, shape=(n_inputs, 2)))
        # rule j -> MF index per input, lexicographic in the MF indices
        index = np.array(list(itertools.product(range(n_mfs), repeat=n_inputs)), dtype=int)
        index.setflags(write=False)
        object.__setattr__(self, "_rule_index", index)

    @property
    def n_inputs(self) -> int:
        return self.a.shape[0]

    @property
    def n_rules(self) -> int:
        return self.consequents.shape[0]

    def memberships(self, inputs: np.ndarray) -> np.ndarray:
        """Membership degrees, shape (..., n_inputs, mfs_per_input)."""
        z = np.asarray(inputs, dtype=float)
        return _bell(z, self.a, self.b, self.c)

    @cached_property
    def law(self):
        """Layers 1-5 for one sample, ``law(z0, ..., zn-1) -> float``, compiled
        from `_law_source` on first use and cached on the model."""
        inputs = [f"z{k}" for k in range(self.n_inputs)]
        body = _law_source(self, inputs, "out").replace("\n", "\n    ")
        return _compiled(f"def law({', '.join(inputs)}):\n    {body}\n    return out", "law", {},
                         type(self).__name__)


def _rule_products(model: AnfisModel, mu: np.ndarray) -> np.ndarray:
    idx = model._rule_index  # (n_rules, n_inputs)
    cols = np.arange(model.n_inputs)
    return mu[..., cols, idx].prod(axis=-1)


def _consequent_outputs(model: AnfisModel, z: np.ndarray) -> np.ndarray:
    return z @ model.consequents[:, :-1].T + model.consequents[:, -1]


def _law_source(model: AnfisModel, inputs: Sequence[str], result: str) -> str:
    """Python statements of the model's law, layers 1-5 unrolled over its rules,
    reading the floats named ``inputs`` and setting ``result``.

    Every parameter is written in as its ``repr``, which round-trips a finite
    float exactly (and the model holds no other kind).  Each input k gets one
    bell per membership function, 1 / (1 + (((z_k - c) / a)^2)^b), where a
    power too large for a float is a membership of 0.0, as numpy's overflow
    to inf gives.  Rule strengths are prefix products, level by level in rule
    order (last input fastest).  The output is
    (sum_j w_j theta_j0 + sum_k z_k sum_j w_j theta_jk) / sum_j w_j.  Each
    sum is a left fold from 0.0 in statements of 16 terms, ``s = s + t1 +
    t2 ...``: a single expression over thousands of terms is too deep for
    the compiler.  The statements also assign ``d``, ``m*``, ``p*``,
    ``total``, ``out`` and ``s``.
    """
    lines = []
    emit = lines.append

    mu = []
    for k, (z, *params) in enumerate(zip(inputs, model.a.tolist(), model.b.tolist(),
                                         model.c.tolist())):
        names = []
        for m, (a, b, c) in enumerate(zip(*params)):
            name = f"m{k}_{m}"
            emit(f"d = ({z} - {float(c)!r}) / {float(a)!r}")
            emit("try:")
            emit(f"    {name} = 1.0 / (1.0 + (d * d) ** {float(b)!r})")
            emit("except OverflowError:")
            emit(f"    {name} = 0.0")
            names.append(name)
        mu.append(names)

    w = mu[0]  # the first level's products 1.0 * mu are mu itself
    for k in range(1, len(mu)):
        level = [f"p{k}_{j}" for j in range(len(w) * len(mu[k]))]
        for name, (p, m) in zip(level, itertools.product(w, mu[k])):
            emit(f"{name} = {p} * {m}")
        w = level

    def fold(target, terms):
        for start in range(0, len(terms), 16):
            emit(f"{target} = {target if start else '0.0'} + {' + '.join(terms[start:start + 16])}")

    cons = model.consequents.tolist()
    fold("total", w)
    emit("if not total > 0.0:")
    emit("    raise ValueError("
         "'firing strengths sum to zero; input too far outside all rules')")
    fold("out", [f"{wj} * {row[-1]!r}" for wj, row in zip(w, cons)])
    for k, z in enumerate(inputs):
        fold("s", [f"{wj} * {row[k]!r}" for wj, row in zip(w, cons)])
        emit(f"out = out + {z} * s")
    emit(f"{result} = out / total")
    return "\n".join(lines)


def anfis_infer(model: AnfisModel, inputs: Sequence[float]) -> float:
    """Layers 1-5 for one sample: the inputs as floats, through `model.law`.

    This is the single-sample path; `_infer_batch` evaluates the same model
    over a batch in numpy for training, and the two agree to rounding.
    """
    z = [float(v) for v in inputs]
    if len(z) != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} inputs, got {len(z)}")
    return model.law(*z)


def _infer_batch(model: AnfisModel, X: np.ndarray) -> np.ndarray:
    w = _rule_products(model, model.memberships(X))
    totals = w.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        raise ValueError("firing strengths sum to zero for some sample")
    return ((w / totals) * _consequent_outputs(model, X)).sum(axis=1)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True, eq=False)
class Dataset:
    """(x, x_dot, theta_dev, theta_dot, u) rows with a disjoint train/test split."""

    rows: np.ndarray
    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self) -> None:
        rows = _frozen(self.rows, shape=(-1, 5))
        if not np.all(np.isfinite(rows)):
            raise ValueError("non-finite dataset entry")
        object.__setattr__(self, "rows", rows)
        train, test = _frozen(self.train_indices, int), _frozen(self.test_indices, int)
        all_idx = np.concatenate([train, test])
        if all_idx.size and (all_idx.min() < 0 or all_idx.max() >= rows.shape[0]):
            raise ValueError("split index out of range")
        if np.intersect1d(train, test).size:
            raise ValueError("train and test indices overlap")
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
        write_csv(path, DATASET_HEADER, ([repr(float(v)) for v in row] for row in self.rows))

    def split_manifest(self) -> dict:
        return {
            "train_indices": self.train_indices.tolist(),
            "test_indices": self.test_indices.tolist(),
        }

    @classmethod
    def from_csv(cls, path, split: dict) -> "Dataset":
        table = read_csv(path, DATASET_HEADER, "dataset")
        rows = np.array([[float(v) for v in row] for row in table])
        try:  # numpy would truncate 2.5 to 2 and take true as 1
            train, test = (np.array([_number(i, (int,)) for i in split[key]], dtype=int)
                           for key in ("train_indices", "test_indices"))
        except TypeError as exc:
            raise ValueError(f"malformed split: {exc}") from exc
        return cls(rows=rows, train_indices=train, test_indices=test)


def generate_dataset(runs, *, train_count: int, test_count: int, seed: int) -> Dataset:
    """Subsample logged (state, command) pairs into an exact train/test split.

    ``runs`` is any iterable of TimeSeries-like logs.  Their rows, in run
    order, are numbered as one sequence: ``train_count + test_count`` of
    these global indices are drawn uniformly without replacement and sorted,
    and a seeded permutation assigns them to the two splits, so a given seed
    always yields the same dataset.  Only the drawn rows are gathered, run by
    run, and theta - pi is taken on them; no table of every logged row is
    built.  The commands of all logs together must not have (near-)zero
    variance, as such rows cannot constrain the consequents; a single log
    may be constant.
    """
    logs = [(run.x, run.x_dot, run.theta, run.theta_dot, run.u) for run in runs]
    if not logs:
        raise ValueError("no runs supplied")
    commands = np.concatenate([log[4] for log in logs])
    n_rows, total = commands.size, train_count + test_count
    if n_rows < total:
        raise ValueError(f"need at least {total} logged rows, got {n_rows}")
    if float(np.var(commands)) <= 1e-24:
        raise ValueError("degenerate coverage: command signal has zero variance")

    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(n_rows, size=total, replace=False))
    rows = np.empty((total, 5))
    first = lo = 0  # the log's first global index, and its first row in ``rows``
    for x, x_dot, theta, theta_dot, u in logs:
        hi = int(np.searchsorted(picked, first + u.size))
        local = picked[lo:hi] - first
        rows[lo:hi] = np.column_stack([x[local], x_dot[local], theta[local] - UPRIGHT_THETA,
                                       theta_dot[local], u[local]])
        first, lo = first + u.size, hi
    order = rng.permutation(total)
    return Dataset(rows=rows, train_indices=np.sort(order[:train_count]),
                   test_indices=np.sort(order[train_count:]))


# the start model's grid: membership functions per input and their bell shape b
MFS_PER_INPUT = 2
SHAPE_B = 2.0
# a premise step is halved at most this many times before it counts as stalled
MAX_HALVINGS = 20
# consequent parameters of the start model on the dataset's 4 inputs: 2^4 rules x (4 + 1)
N_CONSEQUENTS = MFS_PER_INPUT ** (len(DATASET_HEADER) - 1) * len(DATASET_HEADER)


@dataclass(frozen=True)
class Stage1Config:
    """How the LQR data-collection runs are excited: a family of initial
    offsets from upright, each within +-`FALL_ANGLE`, plus impulse kicks,
    enough to cover the state region the deployed controller will visit."""

    initial_theta_devs: tuple[float, ...] = bounded((-0.2, -0.1, -0.05, 0.05, 0.1, 0.2),
                                                    ge=-FALL_ANGLE, le=FALL_ANGLE)
    impulse_magnitudes: tuple[float, ...] = bounded((10.0, 20.0, 30.0))
    impulse_onset: float = bounded(1.0, ge=0.0)
    horizon: float = 12.0

    def __post_init__(self) -> None:
        if not (self.initial_theta_devs or self.impulse_magnitudes):
            raise ValueError("anfis.stage1 needs at least one run: initial_theta_devs and "
                             "impulse_magnitudes are both empty")
        check_domains(self)


@dataclass(frozen=True)
class AnfisConfig:
    """Training settings (`train_hybrid` reads ``epochs`` and ``learning_rate``),
    the dataset's split sizes and seed, and the stage-1 runs it is drawn from."""

    epochs: int = bounded(50, integer=True, ge=1)
    learning_rate: float = bounded(0.01, gt=0.0)
    train_count: int = bounded(500, integer=True, ge=N_CONSEQUENTS)
    test_count: int = bounded(91, integer=True, ge=1)
    seed: int = bounded(7, integer=True, ge=0)
    stage1: Stage1Config = field(default_factory=Stage1Config)

    def __post_init__(self) -> None:
        check_domains(self)


@dataclass
class TrainingHistory:
    """RMSE on the two splits for each epoch that ran, plus any anomaly flags
    raised.  Training stopped after epoch ``len(train_rmse) - 1``; when that is
    before the cap, the last flag says why (``rounding_floor`` or
    ``premise_step_stalled``)."""

    train_rmse: np.ndarray
    test_rmse: np.ndarray
    flags: list[str]

    def to_csv(self, path) -> None:
        write_csv(path, ["epoch", "train_rmse", "test_rmse"],
                  ([i, repr(float(tr)), repr(float(te))]
                   for i, (tr, te) in enumerate(zip(self.train_rmse, self.test_rmse))))


def initial_model(X: np.ndarray) -> AnfisModel:
    """Grid-partition start: ``MFS_PER_INPUT`` centers spread over each input's
    range, widths half the spacing between centers, shapes ``SHAPE_B``, all
    consequents zero."""
    X = np.asarray(X, dtype=float)
    n_inputs = X.shape[1]
    lo, hi = X.min(axis=0), X.max(axis=0)
    width = np.maximum(hi - lo, 1e-6) / (2.0 * (MFS_PER_INPUT - 1))
    return AnfisModel(a=np.repeat(width[:, None], MFS_PER_INPUT, axis=1),
                      b=np.full((n_inputs, MFS_PER_INPUT), SHAPE_B),
                      c=np.linspace(lo, hi, MFS_PER_INPUT, axis=1),
                      consequents=np.zeros((MFS_PER_INPUT**n_inputs, n_inputs + 1)),
                      input_ranges=np.column_stack([lo, hi]))


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
    k, m = model.a.shape
    assign = np.zeros((model.n_rules, k, m))
    assign[np.arange(model.n_rules)[:, None], np.arange(k)[None, :], model._rule_index] = 1.0
    P = np.einsum("nj,jkm->nkm", G, assign)  # dSSE/dmu * mu

    a, b, c = model.a, model.b, model.c
    one_minus = 1.0 - mu
    diff = X[:, :, None] - c
    safe_diff = np.where(np.abs(diff) < 1e-300, 1.0, diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.where(diff == 0.0, 0.0, 2.0 * np.log(np.abs(safe_diff) / a))

    grad_a = (P * 2.0 * b * one_minus / a).sum(axis=0)
    grad_c = (P * np.where(diff == 0.0, 0.0, 2.0 * b * one_minus / safe_diff)).sum(axis=0)
    grad_b = (P * (-one_minus) * log_t).sum(axis=0)
    return grad_a, grad_b, grad_c


def _rmse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(pred - target))))


# train RMSE at or below this share of the targets' RMS is rounding, not fit error
ROUNDING_FLOOR_RTOL = 1e-12
# the ridge weight lambda as a share of the mean eigenvalue of phi^T phi
RIDGE_SHARE = 1e-3


def _global_fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g: the least-squares fit of y on [X, 1], one affine law for every rule."""
    return np.linalg.pinv(np.column_stack([X, np.ones(X.shape[0])])) @ y


def _solve_consequents(phi: np.ndarray, y: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """theta minimising |phi theta - y|^2 + lambda |theta - prior|^2, with
    lambda = RIDGE_SHARE * trace(phi^T phi) / p for phi's p columns.

    This is the least squares [phi; sqrt(lambda) I] theta = [y; sqrt(lambda) prior],
    solved for the step theta - prior: its right-hand side is the prior's
    residual, so a prior that already fits leaves only rounding to solve for.
    """
    p = phi.shape[1]
    lam = RIDGE_SHARE * float(np.sum(np.square(phi))) / p
    A = np.concatenate([phi, math.sqrt(lam) * np.eye(p)])
    b = np.concatenate([y - phi @ prior, np.zeros(p)])
    step, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return prior + step


def _premise_step(model: AnfisModel, X: np.ndarray, y: np.ndarray, train_err: float,
                  learning_rate: float, a_floor: float) -> Optional[AnfisModel]:
    """One gradient step on the premises, halved up to ``MAX_HALVINGS`` times
    until the training RMSE does not rise by more than 1e-12 of itself; None
    when every halving fails."""
    grad_a, grad_b, grad_c = premise_gradients(model, X, y)
    scale = 1.0 / X.shape[0]
    step = learning_rate
    for _ in range(MAX_HALVINGS + 1):
        candidate = replace(model, a=np.maximum(model.a - step * scale * grad_a, a_floor),
                            b=np.maximum(model.b - step * scale * grad_b, 0.5),
                            c=model.c - step * scale * grad_c)
        if _rmse(_infer_batch(candidate, X), y) <= train_err * (1.0 + 1e-12):
            return candidate
        step *= 0.5
    return None


def train_hybrid(dataset: Dataset, config: AnfisConfig) -> tuple[AnfisModel, TrainingHistory]:
    """Hybrid least-squares / gradient-descent training.

    Each epoch solves the consequents for the current premises, records
    train/test RMSE, then takes one premise gradient step (`_premise_step`),
    halving the step up to ``MAX_HALVINGS`` times whenever it would increase
    the training error.  A candidate is accepted when its training RMSE is
    at most the current one times (1 + 1e-12), so the recorded training RMSE
    never rises by more than that relative amount.

    The consequent solve is ridge regression toward the global affine fit g,
    the least squares of y on [X, 1]: theta minimises
    ``|phi theta - y|^2 + lambda |theta - tile(g)|^2`` (Hoerl & Kennard
    1970).  The plain least squares is rank-deficient on the default 500
    logged rows (flag ``rank_deficient_lse``, from the rank of phi itself),
    and its minimum-norm answer pulls the rules the rows barely excite
    toward zero, not toward the law the rows follow.  lambda is fixed by one
    rule, ``RIDGE_SHARE`` (1e-3) of the mean eigenvalue of phi^T phi,
    ``trace(phi^T phi) / p``: it follows the scale of the inputs and the
    number of rows, the directions the rows excite well are fitted almost
    unbiased, and the rest stay at g.  As the normalised strengths sum to
    one, tile(g) is the affine law g on every input, so the fit is never
    worse than g on the training rows.

    Training stops after the first solve whose train RMSE is at most
    ``ROUNDING_FLOOR_RTOL`` (1e-12) of the targets' RMS (flag
    ``rounding_floor``): the fit is exact to rounding, and a later epoch
    could only move it by rounding noise.  When every halving of a premise
    step is rejected (flag ``premise_step_stalled``), the premises stay as
    they were; the next epoch would then solve the same problem and stall
    again, bit for bit, so training stops there too.  ``config.epochs`` is
    the cap; the returned model is the one the full loop would produce, and
    the history has one row per epoch that ran.
    """
    epochs = config.epochs
    X, y = dataset.train_X, dataset.train_y
    Xt, yt = dataset.test_X, dataset.test_y
    model = initial_model(X)
    n_params = model.n_rules * (model.n_inputs + 1)
    if X.shape[0] < n_params:
        raise ValueError(
            f"dataset too small: {X.shape[0]} training rows for {n_params} consequent parameters"
        )

    flags: list[str] = []
    train_hist: list[float] = []
    test_hist: list[float] = []
    a_floor = 1e-6 * max(1.0, float(np.max(model.input_ranges[:, 1] - model.input_ranges[:, 0])))
    prior = np.tile(_global_fit(X, y), model.n_rules)
    rmse_floor = ROUNDING_FLOOR_RTOL * float(np.sqrt(np.mean(np.square(y))))

    for epoch in range(epochs):
        phi = _design_matrix(model, X)
        if "rank_deficient_lse" not in flags and np.linalg.matrix_rank(phi) < n_params:
            flags.append("rank_deficient_lse")
        theta = _solve_consequents(phi, y, prior)
        model = replace(model, consequents=theta)
        train_err = _rmse(phi @ theta, y)
        train_hist.append(train_err)
        test_hist.append(_rmse(_infer_batch(model, Xt), yt) if Xt.shape[0] else math.nan)

        if train_err <= rmse_floor:
            flags.append("rounding_floor")
            break
        if epoch == epochs - 1:
            break
        accepted = _premise_step(model, X, y, train_err, config.learning_rate, a_floor)
        if accepted is None:
            flags.append("premise_step_stalled")
            break
        model = accepted

    y_span = float(y.max() - y.min())
    rmse_pct = 100.0 * train_hist[-1] / y_span if y_span > 0.0 else 0.0
    metadata = {
        "epochs": epochs,
        "rmse": {"train": train_hist[-1], "test": test_hist[-1]},
        "rmse_pct_of_range": rmse_pct,
        "flags": list(flags),
    }
    model = replace(model, metadata=metadata)
    return model, TrainingHistory(train_rmse=np.array(train_hist), test_rmse=np.array(test_hist),
                                  flags=flags)


# ---------------------------------------------------------------------------
# persistence


def save_model(model: AnfisModel, path) -> None:
    """Canonical JSON dump; floats round-trip exactly, reruns are byte-identical."""
    doc = {
        "premises": [
            [{"kind": "gbell", "a": a, "b": b, "c": c} for a, b, c in zip(*params)]
            for params in zip(model.a.tolist(), model.b.tolist(), model.c.tolist())
        ],
        "consequents": model.consequents.tolist(),
        "input_ranges": model.input_ranges.tolist(),
        "metadata": model.metadata,
    }
    write_json(path, doc)


def load_model(path) -> AnfisModel:
    """The model `save_model` wrote.  Anything else is a ValueError that names
    the file: a file that does not parse, a section of the wrong JSON type, a
    membership kind other than "gbell", a premise, consequent or range entry
    that is not a number (``true`` included), or metadata that is not an
    object."""
    doc = read_json(path, "model", ("premises", "consequents", "input_ranges", "metadata"))
    try:
        premises = doc["premises"]
        kinds = [mf.get("kind", "gbell") for mfs in premises for mf in mfs]
        if any(kind != "gbell" for kind in kinds):
            raise ValueError(f"unsupported membership kind in {kinds!r}")
        a, b, c = ([[_number(mf[key]) for mf in mfs] for mfs in premises] for key in "abc")
        if not isinstance(doc["metadata"], dict):
            raise TypeError("metadata must be a JSON object")
        return AnfisModel(
            a=a, b=b, c=c,
            consequents=[[_number(v) for v in row] for row in doc["consequents"]],
            input_ranges=[[_number(v) for v in row] for row in doc["input_ranges"]],
            metadata=doc["metadata"],
        )
    except (TypeError, ValueError, KeyError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
