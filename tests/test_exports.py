"""Every exported name, and every name the benchmark binds, resolves.

A deleted or renamed function must leave no stale ``__all__`` entry and
must not break the benchmark scripts, which bind names of the package.
The scripts are read as syntax trees, not imported or run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import nashroyalty

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
MODULES = ["nashroyalty"] + [
    f"nashroyalty.{info.name}" for info in pkgutil.iter_modules(nashroyalty.__path__)
]


def resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule, such as ``from nashroyalty import cli``
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def benchmark_bindings() -> set[tuple[str, str]]:
    """(module, name) pairs that the benchmark scripts take from the package.

    Names imported with ``from nashroyalty... import``, attributes read off
    an imported submodule (``posterior.FixedAlphaModel``), and the pairs
    listed in the ``SPANNED`` and ``COUNTED`` tables of the span recorder.
    """
    pairs = set()
    for path in sorted(BENCHMARKS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        submodules = {}  # local name -> module
        for node in ast.walk(tree):
            module = getattr(node, "module", None) or ""
            if isinstance(node, ast.ImportFrom) and module.startswith("nashroyalty"):
                for alias in node.names:
                    pairs.add((module, alias.name))
                    if module == "nashroyalty":
                        local = alias.asname or alias.name
                        submodules[local] = f"{module}.{alias.name}"
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) in ("SPANNED", "COUNTED")
                for target in node.targets
            ):
                pairs.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in submodules
            ):
                pairs.add((submodules[node.value.id], node.attr))
    return pairs


def test_every_exported_name_resolves():
    modules = [importlib.import_module(name) for name in MODULES]
    missing = [
        (module.__name__, name)
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_benchmark_binding_resolves():
    pairs = benchmark_bindings()
    # The scan must see the tables and the attribute reads it is meant for.
    assert {
        ("nashroyalty.bargaining", "theta_model"),
        ("nashroyalty.montecarlo", "summarize"),
        ("nashroyalty.posterior", "FixedAlphaModel"),
        ("nashroyalty.bargaining", "alpha_from_perceptions"),
    } <= pairs
    missing = sorted(pair for pair in pairs if not resolves(*pair))
    assert missing == []
