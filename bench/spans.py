"""Spans around calls into the tabsynth layers, recorded from outside the package.

A Tracer replaces each public function below at the module attribute its
caller looks up (``model`` binds ``mlp_forward`` by ``from .nn import``, so
the wrapper goes on ``tabsynth.model.mlp_forward``; ``model`` reaches the
spline functions as ``sp.<name>``, so those go on ``tabsynth.spline``).
Each call becomes one span: iteration id, span id, parent span id, name,
start and end in nanoseconds. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# span name -> every (module, attribute) a caller resolves it through
PATCH_SITES = {
    "data.save_csv": [("tabsynth.data", "save_csv")],
    "data.load_csv": [("tabsynth.data", "load_csv")],
    "data.one_hot_matrix": [("tabsynth.model", "one_hot_matrix")],
    "data.standardize": [("tabsynth.metrics", "standardize")],
    "data.apply_scaling": [("tabsynth.metrics", "apply_scaling")],
    "nn.mlp_forward": [("tabsynth.model", "mlp_forward"), ("tabsynth.synthesis", "mlp_forward")],
    "nn.mlp_backward": [("tabsynth.model", "mlp_backward")],
    "nn.adam_step": [("tabsynth.model", "adam_step")],
    "spline.crps_loss_batch": [("tabsynth.spline", "crps_loss_batch")],
    "spline.crps_grad_from_alpha": [("tabsynth.spline", "crps_grad_from_alpha")],
    "spline.chain_slope_grads": [("tabsynth.spline", "chain_slope_grads")],
    "spline.spline_inverse_batch": [("tabsynth.spline", "spline_inverse_batch")],
    "spline.slopes_to_b": [("tabsynth.spline", "slopes_to_b")],
    "model.train": [("tabsynth.model", "train"), ("tabsynth.metrics", "train")],
    "model.elbo_grads": [("tabsynth.model", "elbo_grads")],
    "model.encode_batch": [("tabsynth.model", "encode_batch"), ("tabsynth.metrics", "encode_batch")],
    "synthesis.generate": [("tabsynth.synthesis", "generate"), ("tabsynth.metrics", "generate")],
    "synthesis.estimate_cdf": [("tabsynth.synthesis", "estimate_cdf")],
    "metrics.ks_statistic": [("tabsynth.metrics", "ks_statistic")],
    "metrics.wasserstein1": [("tabsynth.metrics", "wasserstein1")],
    "metrics.correlation_distance": [("tabsynth.metrics", "correlation_distance")],
    "metrics.dcr": [("tabsynth.metrics", "dcr")],
    "metrics.mlu": [("tabsynth.metrics", "mlu")],
    "metrics.vrate": [("tabsynth.metrics", "vrate")],
    "metrics.attribute_disclosure": [("tabsynth.metrics", "attribute_disclosure")],
    "metrics.build_report": [("tabsynth.metrics", "build_report")],
    "metrics.membership_inference": [("tabsynth.metrics", "membership_inference")],
    "checkpoint.load_checkpoint": [("tabsynth.checkpoint", "load_checkpoint")],
    "checkpoint.save_checkpoint": [("tabsynth.checkpoint", "save_checkpoint")],
    "serialize.json_text": [("tabsynth.checkpoint", "json_text")],
}

# total time per iteration (s) and call count per iteration
TIMED = [name for name in PATCH_SITES if name not in ("metrics.build_report",)]
COUNTED = ["nn.adam_step", "spline.crps_loss_batch", "spline.spline_inverse_batch",
           "metrics.attribute_disclosure"]
# span time minus the time its traced children cover
SELF_TIMED = ["model.elbo_grads", "synthesis.generate", "metrics.build_report"]
# measured in set-up, where the fixture checkpoint is written
SETUP_TIMED = ["checkpoint.save_checkpoint", "serialize.json_text"]


class Tracer:
    """Installs the wrappers while entered; `iteration` tags new spans."""

    def __init__(self):
        self.spans = []
        self.alloc_peaks = []  # (iteration, bytes) per generate call
        self.iteration = None
        self._stack = []
        self._next_id = 0
        self._saved = []

    def __enter__(self):
        for name, sites in PATCH_SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                wrapped = self._span(name, original)
                if name == "synthesis.generate":
                    wrapped = self._alloc_peak(wrapped)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.iteration, span_id, parent, name, start, end))
        return wrapper

    def _alloc_peak(self, fn):
        # tracemalloc runs only around generate, outside its span's clock
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peaks.append((self.iteration, tracemalloc.get_traced_memory()[1]))
                tracemalloc.stop()
        return wrapper

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("iteration\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def layer_metrics(tracer: Tracer, iterations, setups) -> dict:
    """Per-layer figures: medians over the given iteration ids of each
    iteration's total, except the set-up metrics (median over set-ups) and
    the step times (pooled over every step)."""
    names = {}
    child_ns = defaultdict(int)
    for _, span_id, parent, name, start, end in tracer.spans:
        names[span_id] = name
        child_ns[parent] += end - start

    wanted = set(iterations) | set(setups)
    total = defaultdict(lambda: defaultdict(int))  # iteration -> key -> ns or count
    steps_ms = []
    pending_grads = {}  # train span -> start of its open elbo_grads
    for it, span_id, parent, name, start, end in sorted(tracer.spans, key=lambda s: s[4]):
        if it not in wanted:
            continue
        acc = total[it]
        acc[name] += end - start
        acc[name + "#calls"] += 1
        if name in SELF_TIMED:
            acc[name + "#self"] += end - start - child_ns[span_id]
        parent_name = names.get(parent)
        if parent_name == "metrics.membership_inference" and name in ("model.train", "synthesis.generate"):
            acc["mia." + name] += end - start
        if parent_name == "synthesis.estimate_cdf" and name == "spline.spline_inverse_batch":
            acc["cdf_inverse#calls"] += 1
        if parent_name == "model.train":
            if name == "model.elbo_grads":
                pending_grads[parent] = start
            elif name == "nn.adam_step" and it in iterations:
                steps_ms.append((end - pending_grads.pop(parent)) / 1e6)

    def per_iteration(key, scale, ids=iterations):
        return float(np.median([total[it][key] for it in ids]) * scale) if ids else 0.0

    out = {}
    for name in TIMED:
        ids = setups if name in SETUP_TIMED else iterations
        out[name + "_s"] = per_iteration(name, 1e-9, ids)
    for name in COUNTED:
        out[name + "_calls"] = per_iteration(name + "#calls", 1.0)
    out["model.steps"] = per_iteration("model.elbo_grads#calls", 1.0)
    out["model.elbo_grads_self_s"] = per_iteration("model.elbo_grads#self", 1e-9)
    out["synthesis.generate_self_s"] = per_iteration("synthesis.generate#self", 1e-9)
    out["metrics.build_report_self_s"] = per_iteration("metrics.build_report#self", 1e-9)
    out["metrics.mia_train_s"] = per_iteration("mia.model.train", 1e-9)
    out["metrics.mia_generate_s"] = per_iteration("mia.synthesis.generate", 1e-9)
    cdf_calls = [total[it]["synthesis.estimate_cdf#calls"] for it in iterations]
    out["synthesis.cdf_inverse_calls"] = (
        float(np.median([total[it]["cdf_inverse#calls"] / c for it, c in zip(iterations, cdf_calls)]))
        if iterations and all(cdf_calls) else 0.0
    )
    out["model.step_ms_p50"] = float(np.percentile(steps_ms, 50)) if steps_ms else 0.0
    out["model.step_ms_p90"] = float(np.percentile(steps_ms, 90)) if steps_ms else 0.0
    peaks = [b for it, b in tracer.alloc_peaks if it in iterations]
    out["synthesis.generate_peak_mb"] = max(peaks) / 2**20 if peaks else 0.0
    return out
