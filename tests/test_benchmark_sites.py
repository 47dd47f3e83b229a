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


def config_path(node, aliases: dict[str, tuple]):
    """The attribute path from the run config that the expression ``node`` reads, or
    None if it reads no config.  A config is ``self.config``, a ``default_config()``
    call, a name in ``aliases`` (name -> its path) or ``replace(<a config path>, ...)``,
    which keeps its argument's path: ``replace(self.config.sim, horizon=5.0).dt`` gives
    ``("sim", "dt")``."""
    names = []
    while isinstance(node, ast.Attribute):
        names.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        if node.id in aliases:
            return aliases[node.id] + tuple(names)
        if node.id == "self" and names[:1] == ["config"]:
            return tuple(names[1:])
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "default_config":
            return tuple(names)
        if isinstance(func, ast.Name) and func.id == "replace" and node.args:
            path = config_path(node.args[0], aliases)
            return None if path is None else path + tuple(names)
    return None


def scope_aliases(statements, aliases: dict[str, tuple]) -> dict[str, tuple]:
    """``aliases`` plus each name that ``statements`` assign a config path to, in source
    order (``sim = self.config.sim``; ``params, sim = cfg.physical, cfg.sim``)."""
    aliases = dict(aliases)
    assigns = [node for statement in statements for node in ast.walk(statement)
               if isinstance(node, ast.Assign) and len(node.targets) == 1]
    for node in sorted(assigns, key=lambda n: (n.lineno, n.col_offset)):
        target, value = node.targets[0], node.value
        pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                 and isinstance(value, ast.Tuple) else [(target, value)])
        for name, expr in pairs:
            if isinstance(name, ast.Name):
                path = config_path(expr, aliases)
                if path is None:
                    aliases.pop(name.id, None)
                else:
                    aliases[name.id] = path
    return aliases


def config_uses(tree) -> set[tuple[str, ...]]:
    """The config attribute paths that ``tree`` reads, each as the path from the run
    config, with ``path + (field,)`` for each ``replace(<a config path>, field=...)``.
    A function sees the module's aliases and its own."""
    module = scope_aliases([s for s in tree.body if isinstance(s, ast.Assign)], {})
    scopes = [(tree, module)] + [(node, scope_aliases(node.body, module))
                                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    uses = set()
    for scope, aliases in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute):
                path = config_path(node, aliases)
                if path:
                    uses.add(path)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "replace" and node.args):
                path = config_path(node.args[0], aliases)
                if path is not None:
                    uses |= {path + (kw.arg,) for kw in node.keywords}
    return uses


def on_config(config, path: tuple[str, ...]) -> bool:
    """Whether each name of ``path`` exists on what the names before it give in ``config``."""
    for name in path:
        if not hasattr(config, name):
            return False
        config = getattr(config, name)
    return True


def test_every_config_field_perfbench_reads_exists():
    uses = set()
    for source in sorted(PERFBENCH.glob("*.py")):
        uses |= config_uses(ast.parse(source.read_text()))
    # among them a knob that only the benchmark reads apart from its default, read through
    # an alias, and fields set by replace on a chain and on an alias
    assert {("sim", "actuator_gain"), ("scenarios", "impulse", "width"), ("anfis", "train_count"),
            ("scenarios", "impulse", "magnitude"), ("sim", "horizon")} <= uses
    config = importlib.import_module("pendulum_lab.config").default_config()
    assert sorted(".".join(path) for path in uses if not on_config(config, path)) == []
