"""Disturbance sources, transient metrics and the PI / PID / TS-LA benchmark.

The two disturbance families mirror the experiment protocol: a rectangular
force impulse (a sharp knock on the cart) and band-limited white noise
(sample-and-hold Gaussian force, a crosswind stand-in).  Metrics are
extracted from logged runs; quantities that never converge, grow without
bound, or belong to a run that fell or diverged carry ``math.inf`` as an
explicit unbounded flag.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .artifacts import write_csv
from .plant import PhysicalParams
from .simulate import Controller, SimConfig, TimeSeries, run_closed_loop, run_closed_loops

__all__ = [
    "ImpulseSpec",
    "NoiseSpec",
    "MetricBands",
    "ScenarioConfig",
    "TransientMetrics",
    "make_disturbance",
    "compute_metrics",
    "BenchmarkCell",
    "BenchmarkTable",
    "run_benchmark",
]

UNBOUNDED = math.inf

# how long after its disturbance's onset a run must be logged for its metrics
METRICS_SPAN = 10.0

# the rise time runs from the first fall of |theta - pi| to 90 % of its
# post-onset peak to the first fall after that to 10 % of the peak
RISE_HIGH = 0.9
RISE_LOW = 0.1

BENCHMARK_HEADER = [
    "controller",
    "scenario",
    "magnitude",
    "settling_s",
    "rise_ms",
    "peak_theta_deg",
    "peak_xdot",
    "sse_theta",
    "sse_x",
    "outcome",
]

# a cell's outcome, from best to worst
OUTCOMES = ("settled", "unsettled", "fell", "diverged")


@dataclass(frozen=True)
class ImpulseSpec:
    """Rectangular force pulse: ``magnitude`` on [onset, onset + width)."""

    magnitude: float = 10.0
    onset: float = 20.0
    width: float = 0.05

    def __post_init__(self) -> None:
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise ValueError(f"width must be > 0, got {self.width!r}")
        if not (math.isfinite(self.onset) and self.onset >= 0.0):
            raise ValueError(f"onset must be >= 0, got {self.onset!r}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude!r}")

    def forces(self, times: np.ndarray) -> np.ndarray:
        """The force at each of ``times``: `make_disturbance`'s, bit for bit."""
        end = self.onset + self.width
        return np.where((self.onset <= times) & (times < end), self.magnitude, 0.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean Gaussian force held constant over ``sample_time`` intervals.

    ``power`` is the variance of the held samples; the seed fixes the
    realization completely.
    """

    power: float = 0.2
    sample_time: float = 0.01
    seed: int = 42

    def __post_init__(self) -> None:
        if not (math.isfinite(self.power) and self.power >= 0.0):
            raise ValueError(f"power must be >= 0, got {self.power!r}")
        if not (math.isfinite(self.sample_time) and self.sample_time > 0.0):
            raise ValueError(f"sample_time must be > 0, got {self.sample_time!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def forces(self, times: np.ndarray) -> np.ndarray:
        """The force at each of ``times``: `make_disturbance`'s, bit for bit."""
        k = (times / self.sample_time).astype(np.int64)
        if self.power == 0.0:
            return np.zeros(k.size)
        if k.min() < 0:
            raise ValueError(f"negative time {float(times[k.argmin()])!r}")
        draws = np.random.default_rng(self.seed).standard_normal(int(k.max()) + 1)
        return (draws * math.sqrt(self.power))[k]


class _NoiseStream:
    """Lazily extended sample-and-hold stream; the k-th held value is always
    the k-th draw of the seeded generator, independent of call pattern."""

    def __init__(self, spec: NoiseSpec):
        self.spec = spec
        self._rng = np.random.default_rng(spec.seed)
        self._samples = np.empty(0)

    def __call__(self, t: float) -> float:
        if self.spec.power == 0.0:
            return 0.0
        k = int(t / self.spec.sample_time)
        if k < 0:
            raise ValueError(f"negative time {t!r}")
        if k >= self._samples.size:
            grow = max(k + 1 - self._samples.size, 1024)
            fresh = self._rng.standard_normal(grow) * math.sqrt(self.spec.power)
            self._samples = np.concatenate([self._samples, fresh])
        return float(self._samples[k])


def make_disturbance(spec) -> Callable[[float], float]:
    """A fresh force source f(t) for one run: the reference of the spec's `forces`."""
    if isinstance(spec, ImpulseSpec):
        magnitude, onset, end = spec.magnitude, spec.onset, spec.onset + spec.width
        return lambda t: magnitude if onset <= t < end else 0.0
    if isinstance(spec, NoiseSpec):
        return _NoiseStream(spec)
    raise TypeError(f"unknown disturbance spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricBands:
    """Extraction thresholds; the settle band is on |theta - pi|."""

    settle_band: float = math.radians(0.5)
    tail_fraction: float = 0.1
    drift_slope: float = 1e-4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.settle_band) and self.settle_band > 0.0):
            raise ValueError(f"settle_band must be finite and > 0, got {self.settle_band!r}")
        if not (0.0 < self.tail_fraction < 1.0):
            raise ValueError("tail_fraction must be in (0, 1)")
        if not (math.isfinite(self.drift_slope) and self.drift_slope >= 0.0):
            raise ValueError(f"drift_slope must be finite and >= 0, got {self.drift_slope!r}")


@dataclass(frozen=True)
class TransientMetrics:
    """Disturbance-recovery summary; math.inf marks unbounded/never-converged."""

    settling_time: float
    rise_time: float
    peak_theta_dev: float
    peak_xdot: float
    sse_theta: float
    sse_x: float

    def as_row(self) -> tuple[float, ...]:
        return astuple(self)


_ALL_UNBOUNDED = TransientMetrics(*(UNBOUNDED,) * 6)


def _tail_sse(t: np.ndarray, signal: np.ndarray, bands: MetricBands) -> float:
    """Mean |signal| over the final window, or the unbounded flag when the
    window's linear drift exceeds the threshold (either sign: moving away
    from zero or sweeping through it both mean 'not settled')."""
    n_tail = max(2, int(round(bands.tail_fraction * t.size)))
    tail_t, tail_s = t[-n_tail:], np.abs(signal[-n_tail:])
    slope = np.polyfit(tail_t, tail_s, 1)[0] if np.ptp(tail_t) > 0 else 0.0
    if abs(slope) > bands.drift_slope:
        return UNBOUNDED
    return float(tail_s.mean())


def compute_metrics(
    series: TimeSeries, onset: float, bands: Optional[MetricBands] = None
) -> TransientMetrics:
    """Transient metrics of a logged run, measured from the disturbance onset.

    settling_time: time from onset to the last sample outside the settle
    band (unbounded if the run ends outside it).  rise_time: first crossing
    of `RISE_HIGH` of the post-onset peak deviation to the first crossing of
    `RISE_LOW`.  Peaks are maximal absolute deviations after onset, or over
    the last row of a run that fell before it.  Steady-state errors average
    the final window, carrying the unbounded flag on drift.  A diverged run
    flags every metric.  A run that fell flags all but the peaks, which it
    measures over its partial log.
    """
    bands = bands or MetricBands()
    if series.outcome == "diverged":
        return _ALL_UNBOUNDED
    if len(series) < 2 and series.outcome is None:
        raise ValueError("series too short for metrics")
    t = series.t
    dev = np.abs(series.theta_deviation())
    after = t >= min(onset, t[-1])
    dev_after = dev[after]
    peak = float(dev_after.max())
    peak_xdot = float(np.abs(series.x_dot[after]).max())
    if series.outcome == "fell":
        return TransientMetrics(UNBOUNDED, UNBOUNDED, peak, peak_xdot, UNBOUNDED, UNBOUNDED)
    if t[-1] < onset + METRICS_SPAN:
        raise ValueError(f"series must cover onset + {METRICS_SPAN:g} s (ends at {t[-1]:.3f})")

    outside = t[dev > bands.settle_band]
    outside = outside[outside >= onset]
    if outside.size == 0:
        settling = 0.0
    elif outside[-1] >= t[-1]:
        settling = UNBOUNDED
    else:
        settling = float(outside[-1] - onset)

    if peak == 0.0:
        rise = 0.0
    else:
        i_peak = int(dev_after.argmax())
        post = dev_after[i_peak:]
        t_post = t[after][i_peak:]
        below_hi = np.nonzero(post <= RISE_HIGH * peak)[0]
        rise = UNBOUNDED
        if below_hi.size:
            i_hi = below_hi[0]
            below_lo = np.nonzero(post[i_hi:] <= RISE_LOW * peak)[0]
            if below_lo.size:
                rise = float(t_post[i_hi + below_lo[0]] - t_post[i_hi])

    return TransientMetrics(
        settling_time=settling,
        rise_time=rise,
        peak_theta_dev=peak,
        peak_xdot=peak_xdot,
        sse_theta=_tail_sse(t, series.theta_deviation(), bands),
        sse_x=_tail_sse(t, series.x, bands),
    )


# ---------------------------------------------------------------------------
# benchmark


@dataclass(frozen=True)
class BenchmarkCell:
    """One run's metrics; ``outcome`` is one of `OUTCOMES` (settled: back in the
    settle band before the run ends)."""

    controller: str
    scenario: str
    magnitude: Optional[float]
    metrics: TransientMetrics
    outcome: str


@dataclass
class BenchmarkTable:
    """The benchmark's cells in run order.  `impulse_means` summarises them:
    per controller, the mean of each metric over its impulse cells, which
    `to_csv` appends to the cells' rows and `to_text` lays out beside the
    noise cells."""

    cells: list[BenchmarkCell]

    def impulse_means(self) -> list[BenchmarkCell]:
        """One ``impulse-mean`` cell per controller with impulse cells, in the
        order the controllers first appear: each metric's mean over those
        cells, and the worst of their outcomes."""
        impulse: dict[str, list[BenchmarkCell]] = {cell.controller: [] for cell in self.cells}
        for cell in self.cells:
            if cell.scenario == "impulse":
                impulse[cell.controller].append(cell)
        return [BenchmarkCell(name, "impulse-mean", None,
                              TransientMetrics(*(float(np.mean(column)) for column in
                                                 zip(*(c.metrics.as_row() for c in cells)))),
                              max((c.outcome for c in cells), key=OUTCOMES.index))
                for name, cells in impulse.items() if cells]

    def to_csv(self, path) -> None:
        write_csv(path, BENCHMARK_HEADER, map(self._csv_row, self.cells + self.impulse_means()))

    @staticmethod
    def _csv_row(cell: BenchmarkCell) -> list[str]:
        m = cell.metrics
        return [
            cell.controller,
            cell.scenario,
            "" if cell.magnitude is None else repr(float(cell.magnitude)),
            repr(float(m.settling_time)),
            repr(float(m.rise_time * 1e3)),
            repr(float(math.degrees(m.peak_theta_dev))),
            repr(float(m.peak_xdot)),
            repr(float(m.sse_theta)),
            repr(float(m.sse_x)),
            cell.outcome,
        ]

    def to_text(self) -> str:
        """Aligned comparison in the familiar rows-of-parameters layout: one
        column per cell of a section, an outcome row, then one row per metric."""
        out = io.StringIO()

        def line(label: str, values) -> None:
            out.write(f"{label:<26}" + "".join(f"{v:>12}" for v in values) + "\n")

        def section(title: str, outcome: str, cells: list[BenchmarkCell],
                    rows: list[tuple[str, str, float]]) -> None:
            out.write(title + "\n")
            line("Parameter", [c.controller for c in cells])
            line(outcome, [c.outcome for c in cells])
            for label, name, scale in rows:
                line(label, ["unbounded" if math.isinf(v) else f"{v * scale:.4g}"
                             for v in (getattr(c.metrics, name) for c in cells)])
            out.write("\n")

        deg = 180.0 / math.pi
        means = self.impulse_means()
        if means:
            section("Impulse disturbance (mean over magnitudes)", "Outcome (worst)", means, [
                ("Settling time (s)", "settling_time", 1.0),
                ("Deviation of theta (deg)", "peak_theta_dev", deg),
                ("Rise time (ms)", "rise_time", 1e3),
                ("Steady state error theta", "sse_theta", 1.0),
                ("Steady state error x", "sse_x", 1.0),
            ])
        noise = [c for c in self.cells if c.scenario == "noise"]
        if noise:
            section("White-noise disturbance", "Outcome", noise, [
                ("Max deviation theta (deg)", "peak_theta_dev", deg),
                ("Max deviation x_dot (m/s)", "peak_xdot", 1.0),
            ])
        return out.getvalue()


@dataclass(frozen=True)
class ScenarioConfig:
    """The benchmark's two scenarios: an impulse repeated once per magnitude,
    and a noise run with its own horizon; plus the metric bands."""

    impulse: ImpulseSpec = field(default_factory=ImpulseSpec)
    impulse_repeat_magnitudes: tuple[float, ...] = (10.0, 20.0, 30.0)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    noise_horizon: float = 30.0
    bands: MetricBands = field(default_factory=MetricBands)

    def __post_init__(self) -> None:
        try:
            self.impulses()
        except ValueError as exc:
            raise ValueError(f"scenarios.impulse.repeat_magnitudes: {exc}") from None

    def impulses(self) -> list[ImpulseSpec]:
        """The impulse at each repeat magnitude."""
        return [replace(self.impulse, magnitude=float(m)) for m in self.impulse_repeat_magnitudes]

    def run(self, kind: str, sim: SimConfig) -> tuple[SimConfig, ImpulseSpec | NoiseSpec, float]:
        """``(sim, disturbance spec, onset)`` of a run of scenario ``kind``: an
        impulse run takes ``sim`` and its metrics start at the impulse's onset;
        a noise run lasts ``noise_horizon`` and its metrics start at t = 0."""
        if kind == "impulse":
            return sim, self.impulse, self.impulse.onset
        if kind == "noise":
            return replace(sim, horizon=self.noise_horizon), self.noise, 0.0
        raise ValueError(f"unknown scenario {kind!r}")


def run_benchmark(params: PhysicalParams, controller_factories: dict[str, Callable[[], Controller]],
                  sim_config: SimConfig, scenarios: ScenarioConfig) -> BenchmarkTable:
    """Run every controller against every scenario and tabulate the metrics.

    The impulse scenario repeats once per magnitude (the table also reports
    the per-controller mean); the noise scenario runs once, for its own
    horizon (`ScenarioConfig.run`).  Each factory builds a controller in its
    initial state, and each run takes a new one.  One controller's impulse
    cells are one `run_closed_loops` family: they share a single run up to
    the onset, where their force grids first differ, and each branch then
    goes on with its own `copy.copy` of the controller, which gives the same
    log as a run of its own.  The noise cell gets a new controller.  A cell
    whose pendulum falls, or whose run diverges, is reported in-table.
    """
    impulses = scenarios.impulses()
    impulse_sim, _, impulse_onset = scenarios.run("impulse", sim_config)
    noise_sim, noise, noise_onset = scenarios.run("noise", sim_config)

    def cell(name, scenario, magnitude, series, onset) -> BenchmarkCell:
        metrics = compute_metrics(series, onset, scenarios.bands)
        outcome = series.outcome or (
            "settled" if math.isfinite(metrics.settling_time) else "unsettled")
        return BenchmarkCell(name, scenario, magnitude, metrics, outcome)

    cells = []
    for name, factory in controller_factories.items():
        family = run_closed_loops(impulse_sim, factory(), impulses, params)
        # strict: the family runs to its end here, so that nothing of it is
        # held through the noise cell
        for spec, series in zip(impulses, family, strict=True):
            cells.append(cell(name, "impulse", spec.magnitude, series, impulse_onset))
            del series  # the next branch is built while this one would be held
        series = run_closed_loop(noise_sim, factory(), noise, params)
        cells.append(cell(name, "noise", None, series, noise_onset))
    return BenchmarkTable(cells=cells)
