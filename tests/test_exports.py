"""The package export list and the layers the benchmark tracer wraps.

The tracer in bench/tracing.py wraps only the plain functions that a module
lists in its ``__all__``, so trimming an export silently blanks a traced
layer; this file keeps both lists honest.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import uniscat

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
MODULES = (
    uniscat.born,
    uniscat.construct,
    uniscat.empower,
    uniscat.envelopes,
    uniscat.grids,
    uniscat.potentials,
    uniscat.xfermat,
)


def _layer_busy():
    """The LAYER_BUSY tuple of bench/run.py, read without importing it."""
    tree = ast.parse(BENCH_RUN.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_BUSY" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_BUSY in {BENCH_RUN}")


def test_package_exports_each_module_list_once():
    names = uniscat.__all__
    assert len(names) == len(set(names))
    owners = {name: module for module in MODULES for name in module.__all__}
    assert set(names) == set(owners)
    for name, module in owners.items():
        obj = getattr(module, name)
        assert getattr(uniscat, name) is obj, name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


def test_traced_layers_are_exported_functions():
    layers = _layer_busy()
    assert layers
    for layer in layers:
        short, *path = layer.split(".")
        module = importlib.import_module(f"uniscat.{short}")
        assert path[0] in module.__all__, layer
        if len(path) == 1:
            fn = getattr(module, path[0])
        else:
            fn = inspect.getattr_static(getattr(module, path[0]), path[1])
        assert inspect.isfunction(fn), layer
        assert fn.__module__ == module.__name__, layer
