"""The benchmark (bench/) calls tabsynth by name: through imports, through
module attributes such as `synthesis.generate`, and, in its tracer
(bench/spans.py), through the patch sites listed in PATCH_SITES. A refactor
that moves or renames one of those names breaks `bench/run.py` while every
other test stays green."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def test_every_trace_patch_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for sites in spans.PATCH_SITES.values()
        for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def _tabsynth_uses(tree):
    """(module, name) for every `from tabsynth... import name` in the tree,
    and for every attribute read off a name bound to a tabsynth module."""
    modules, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "tabsynth")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tabsynth":
            for alias in node.names:
                uses.append((node.module, alias.name))
                if inspect.ismodule(getattr(importlib.import_module(node.module), alias.name, None)):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            uses.append((modules[node.value.id], node.attr))
    return uses


def test_every_tabsynth_name_the_benchmark_uses_resolves():
    uses = [use for path in sorted(BENCH.glob("*.py")) for use in _tabsynth_uses(ast.parse(path.read_text()))]
    assert uses
    missing = [f"{module}.{name}" for module, name in uses
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
