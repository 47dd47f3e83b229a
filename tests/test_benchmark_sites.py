"""The benchmark's tracer patches `pendulum_lab` attributes where they are called (its
import sites); each must exist there, or the benchmark fails at install.  The
benchmark's own tests (`perfbench/check_benchmark.py`) are too slow for the default
collection, so this guard runs here."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracing.SPAN_SITES
               + tracing.COUNT_SITES if attr not in owner.__dict__]
    assert missing == []
