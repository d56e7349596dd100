"""The package export list and the names the benchmark relies on.

The tracer in bench/tracing.py wraps only the plain functions that a module
lists in its ``__all__``, so trimming an export silently blanks a traced
layer; the benchmark's workloads and checks call the program through module
attributes, so removing one of those breaks the benchmark.  This file keeps
the export lists honest against both, and checks that no module keeps an
import it no longer uses and that every name README.md quotes still exists.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import uniscat
import uniscat.cli

SRC = Path(uniscat.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
BENCH_RUN = BENCH / "run.py"
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


def _bench_reads():
    """(module name, attribute) for every public attribute a file under
    bench/ reads from a uniscat module it imports, read without running it."""
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "uniscat":
                        aliases[a.asname or "uniscat"] = a.name if a.asname else "uniscat"
        for node in ast.walk(tree):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if not (chain and isinstance(base, ast.Name) and base.id in aliases):
                continue
            module = aliases[base.id]
            # uniscat.xfermat.extract_t reads extract_t from uniscat.xfermat
            while len(chain) > 1 and inspect.ismodule(
                getattr(importlib.import_module(module), chain[0], None)
            ):
                module = f"{module}.{chain.pop(0)}"
            if not chain[0].startswith("__"):
                reads.add((module, chain[0]))
    return reads


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


def test_benchmark_reads_only_exported_names():
    reads = _bench_reads()
    # the collector sees the workloads' calls into the transfer matrix
    assert ("uniscat.xfermat", "scattering_coeffs") in reads
    for module, name in sorted(reads):
        assert name in importlib.import_module(module).__all__, f"{module}.{name}"


def _unused_imports(tree):
    """Names a module's top-level imports bind that nothing in it reads
    (star and __future__ imports aside)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_top_level_import_is_used():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    unused = {p.name: _unused_imports(ast.parse(p.read_text())) for p in paths}
    assert not {name: names for name, names in unused.items() if names}


def _readme_names():
    """Every backticked span of README.md that reads as a Python name,
    dotted or not."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    return sorted({s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", s)})


def _report_keys(tmp_path):
    """Every key, nested ones included, of a small ``uniscat verify`` report."""
    out = tmp_path / "report.json"
    argv = ["verify", "--grid-n", "3", "--slices", "2", "--out", str(out)]
    assert uniscat.cli.main(argv) == 0
    keys, todo = set(), [json.loads(out.read_text())]
    while todo:
        blob = todo.pop()
        keys |= set(blob)
        todo += [v for v in blob.values() if isinstance(v, dict)]
    return keys


def test_every_name_the_readme_quotes_resolves(tmp_path):
    # a name resolves as an attribute path from uniscat or one of its
    # modules, an attribute or dataclass field of a class they define, a
    # command or option of the CLI, a key of the verify report, a test, a
    # path in the repository, or an importable module
    modules = [uniscat, uniscat.cli, *MODULES]
    members = set()
    for module in modules:
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                members |= set(vars(cls))
                if dataclasses.is_dataclass(cls):
                    members |= {f.name for f in dataclasses.fields(cls)}
    members |= set(uniscat.cli._COMMANDS) | set(uniscat.cli._OPTIONS)
    members |= _report_keys(tmp_path)
    members |= {
        node.name
        for path in (ROOT / "tests").glob("test_*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }

    def resolves(name):
        head, *rest = name.split(".")
        for root in modules:
            obj = root if head == root.__name__.split(".")[-1] else getattr(root, head, None)
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return (
            name in members
            or (ROOT / name).exists()
            or ("." not in name and importlib.util.find_spec(name) is not None)
        )

    names = _readme_names()
    assert "potential_from_samples" in names and "grids.omega" in names
    assert [name for name in names if not resolves(name)] == []
