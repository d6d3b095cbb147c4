"""The package's public names: the export list, and the functions the
benchmark traces.

``qdiscord.__all__`` is derived from the names the package's import block
binds, so the tests below pin that derivation: a public import left out
of the list, or a name in it that does not resolve, fails them.

``perfbench/tracer.py`` wraps library functions by name, listed in its
``TRACED`` tuple as ``"<module>.<function>"``. Reading that tuple here,
without importing the benchmark, makes a library change that deletes or
renames a traced function fail these tests instead of the traced
benchmark run, and the check follows any edit of the tuple.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

import qdiscord as qd

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> tuple:
    """The literal value of ``TRACED`` in the tracer's source."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TRACED tuple")


@pytest.mark.skipif(not TRACER.exists(), reason="the benchmark tracer is not in this checkout")
def test_every_traced_name_is_a_library_function():
    names = traced_names()
    assert names
    for name in names:
        module, attr = name.split(".")
        value = getattr(importlib.import_module(f"qdiscord.{module}"), attr, None)
        assert callable(value), f"{name} is traced but qdiscord.{module} has no function {attr}"


def test_every_export_resolves_once():
    assert len(qd.__all__) == len(set(qd.__all__))
    missing = [name for name in qd.__all__ if not hasattr(qd, name)]
    assert not missing


def test_export_list_is_every_public_name():
    public = {
        name for name, value in vars(qd).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(qd.__all__) - {"__version__"}


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from qdiscord import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(qd.__all__)
