"""Every name the package exports, and every name the benchmark tracer
patches, must resolve.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``SITES`` list with ``getattr``/``setattr``, so a renamed or deleted function
breaks a traced benchmark run. ``SITES`` is read from the source without
importing the benchmark.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hamlq

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ["hamlq"] + [f"hamlq.{m.name}" for m in pkgutil.iter_modules(hamlq.__path__)]


def tracer_sites():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no SITES list in perfbench/tracing.py")


def test_tracer_sites_resolve():
    sites = tracer_sites()
    assert sites
    missing = [
        (mod, attr)
        for mod, attr, *_ in sites
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


@pytest.mark.parametrize("mod_name", MODULES)
def test_all_names_resolve(mod_name):
    mod = importlib.import_module(mod_name)
    names = getattr(mod, "__all__", [])
    assert [name for name in names if not hasattr(mod, name)] == []
    assert len(names) == len(set(names))
