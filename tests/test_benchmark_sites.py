"""The benchmark's tracer patches `pendulum_lab` attributes where they are called (its
import sites), and its probes and workloads call the program by dotted names; each must
exist, or the benchmark fails.  The benchmark's own tests (`perfbench/check_benchmark.py`)
are too slow for the default collection, so these guards run here."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [(owner.__name__, attr) for owner, attr, *_ in tracing.SPAN_SITES
               + tracing.COUNT_SITES if attr not in owner.__dict__]
    assert missing == []


def package_names(tree) -> dict[str, str]:
    """Local name -> dotted module or attribute path of each `pendulum_lab` import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name, alias.name) for alias in node.names
                         if alias.name.split(".")[0] == "pendulum_lab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pendulum_lab"):
            names.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                         for alias in node.names)
    return names


def dotted_uses(tree, names: dict[str, str]) -> set[tuple[str, ...]]:
    """Each attribute chain ``a.b.c`` whose root ``a`` is an imported `pendulum_lab` name,
    as the path from the package: ``("pendulum_lab", "scenarios", "make_disturbance")``.
    A call in the chain is kept as ``"()"``: ``controllers.PidController(gains).step``
    gives ``(..., "controllers", "PidController", "()", "step")``."""
    uses = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, (ast.Attribute, ast.Call)):
            if isinstance(node, ast.Call):
                chain.insert(0, "()")
                node = node.func
            else:
                chain.insert(0, node.attr)
                node = node.value
        if isinstance(node, ast.Name) and node.id in names:
            uses.add((*names[node.id].split("."), *chain))
    return uses


def resolves(path: tuple[str, ...]) -> bool:
    """Whether each name of ``path`` exists on what the names before it give.  A class's
    instance is looked up on the class; what another call returns is not followed."""
    target = importlib.import_module(path[0])
    for name in path[1:]:
        if name == "()":
            if not isinstance(target, type):
                return True
        elif not hasattr(target, name):
            return False
        else:
            target = getattr(target, name)
    return True


def test_every_name_perfbench_calls_exists():
    uses = set()
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        uses |= dotted_uses(tree, package_names(tree))
    # among them probe targets that no command runs, which a clean-up could delete
    assert {("pendulum_lab", "scenarios", "make_disturbance"),
            ("pendulum_lab", "simulate", "rk4_step"),
            ("pendulum_lab", "controllers", "PidController", "()", "step")} <= uses
    assert sorted(".".join(path) for path in uses if not resolves(path)) == []
