"""The benchmark's tracer (bench/spans.py) wraps tabsynth functions at the
module attributes listed in PATCH_SITES. A refactor that moves or renames
one breaks `bench/run.py --trace 1` while every other test stays green."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
