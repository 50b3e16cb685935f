"""Checkpoint serialization: a versioned JSON document with decimal floats.

Floats are written as repr(float), the shortest text that parses back to
the same bits, so save -> load -> save reproduces the file exactly; older
files with 17-digit floats load to the same values. Weight shapes are
validated against the stored config on load. The file gives each numeric
column's decoder outputs adjacent rows, which model.head_order takes to
the order the model stores them in.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, fields
from functools import cache
from typing import get_type_hints

import numpy as np

from .data import ScalingStats, check_scaling_names, not_utf8, require_str, schema_from_doc
from .model import Checkpoint, LossBreakdown, TrainConfig, head_order, net_sizes
from .nn import Mlp
from .serialize import json_text

CHECKPOINT_FORMAT_VERSION = 2
ACTIVATIONS = ["relu", "identity"]  # the fixed two-layer networks: relu after the hidden layer only

# resolving annotations takes ~40 us, and the loss trace holds one entry per epoch
_field_types = cache(get_type_hints)


def _mlp_doc(net: Mlp, rows=slice(None)) -> dict:
    """The network's document, its output layer's rows taken in the order rows."""
    (w0, b0), (w1, b1) = net
    return {
        "activations": ACTIVATIONS,
        "layers": [{"weight": w.tolist(), "bias": b.tolist()} for w, b in [(w0, b0), (w1[rows], b1[rows])]],
    }


def _fields_doc(obj) -> dict:
    """A dataclass's fields in declaration order, each coerced to its declared type."""
    types = _field_types(type(obj))
    return {f.name: types[f.name](getattr(obj, f.name)) for f in fields(obj)}


def checkpoint_to_text(cp: Checkpoint) -> str:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "schema": {"columns": [asdict(c) for c in cp.schema.columns]},
        "scaling": {
            "columns": list(cp.scaling.names),
            "mean": cp.scaling.mean.tolist(),
            "stddev": cp.scaling.stddev.tolist(),
        },
        "config": _fields_doc(cp.config),
        "encoder": _mlp_doc(cp.encoder),
        "decoder": _mlp_doc(cp.decoder, np.argsort(head_order(cp.schema, cp.config.knot_count))),
        "quantiles": {
            "low": cp.quantile_lo.tolist(),
            "high": cp.quantile_hi.tolist(),
        },
        "loss_trace": [_fields_doc(t) for t in cp.loss_trace],
    }
    return json_text(doc)


def _require(doc, key, path, kind=object):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"corrupt checkpoint: missing {path}.{key}")
    if not isinstance(doc[key], kind):
        raise ValueError(f"corrupt checkpoint: {path}.{key} has the wrong type {type(doc[key]).__name__}")
    return doc[key]


def _number(doc, key, path, kind):
    value = _require(doc, key, path, (int, float) if kind is float else int)  # an int may stand for a float
    if isinstance(value, bool):  # json true/false are ints to isinstance
        raise ValueError(f"corrupt checkpoint: {path}.{key} has the wrong type bool")
    # json reads 1e400 as inf, and float() overflows on an int literal that large
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"corrupt checkpoint: {path}.{key} must be a finite number")
    return kind(value)


def _fields_from_doc(cls, doc, path):
    types = _field_types(cls)
    values = {f.name: _number(doc, f.name, path, types[f.name]) for f in fields(cls)}
    try:
        return cls(**values)
    except ValueError as err:
        raise ValueError(f"corrupt checkpoint: {path}: {err}") from None


def _float_array(doc, key, path, ndim):
    """doc[key] as an ndim-D array of finite float64 numbers, or a ValueError naming it."""
    value = _require(doc, key, path)
    try:
        values = np.array(value, dtype=np.float64)
        ok = values.ndim == ndim and np.all(np.isfinite(values))
        # float64 conversion also reads json true/false and numeric strings
        ok = ok and all(type(v) in (int, float) for v in np.array(value, dtype=object).flat)
    except (TypeError, ValueError, OverflowError):  # ragged, a non-number, or an int past float range
        ok = False
    if not ok:
        raise ValueError(f"corrupt checkpoint: {path}.{key} must be a {ndim}-D array of finite numbers")
    return values


def _reject_constant(name):
    raise ValueError(f"corrupt checkpoint: non-finite number {name}")


def _mlp_from_doc(doc, path, sizes, rows=slice(None)) -> np.ndarray:
    """The network's flat parameters, as nn.layer_views reads them, each
    weight checked against the shape that sizes gives it, and the output
    layer's rows taken in the order rows."""
    if _require(doc, "activations", path, list) != ACTIVATIONS:
        raise ValueError(f"corrupt checkpoint: {path}.activations must be {ACTIVATIONS}")
    blocks = []
    for i, entry in enumerate(_require(doc, "layers", path, list)):
        weight = _float_array(entry, "weight", f"{path}.layers[{i}]", 2)
        bias = _float_array(entry, "bias", f"{path}.layers[{i}]", 1)
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"corrupt checkpoint: bad layer shapes under {path}")
        blocks += [weight, bias]
    if [w.shape for w in blocks[::2]] != [(n_out, n_in) for n_in, n_out in zip(sizes[:-1], sizes[1:])]:
        raise ValueError(f"corrupt checkpoint: {path} shape does not match schema/config")
    blocks[-2:] = [b[rows] for b in blocks[-2:]]
    return np.concatenate([b.ravel() for b in blocks])


def checkpoint_from_text(text: str) -> Checkpoint:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise ValueError(f"corrupt checkpoint: not valid JSON ({err})") from None
    version = _number(doc, "format_version", "checkpoint", int)
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    schema = schema_from_doc(_require(doc, "schema", "checkpoint"), "corrupt checkpoint: schema")

    scaling_doc = _require(doc, "scaling", "checkpoint")
    names = enumerate(_require(scaling_doc, "columns", "scaling", list))
    names = tuple(require_str(v, "corrupt checkpoint", f"scaling.columns[{i}]") for i, v in names)
    mean, stddev = (_float_array(scaling_doc, key, "scaling", 1) for key in ("mean", "stddev"))
    try:
        scaling = ScalingStats(names=names, mean=mean, stddev=stddev)
        check_scaling_names(schema, scaling)
    except ValueError as err:
        raise ValueError(f"corrupt checkpoint: scaling: {err}") from None

    config = _fields_from_doc(TrainConfig, _require(doc, "config", "checkpoint"), "config")
    encoder_sizes, decoder_sizes = net_sizes(schema, config)
    encoder = _mlp_from_doc(_require(doc, "encoder", "checkpoint"), "encoder", encoder_sizes)
    decoder = _mlp_from_doc(_require(doc, "decoder", "checkpoint"), "decoder", decoder_sizes,
                            head_order(schema, config.knot_count))

    quantiles = _require(doc, "quantiles", "checkpoint")
    bounds = [_float_array(quantiles, key, "quantiles", 1) for key in ("low", "high")]
    for key, values in zip(("low", "high"), bounds):
        if values.shape != (len(schema.numeric_indices),):
            raise ValueError(f"corrupt checkpoint: quantiles.{key} needs one entry per numeric column")
    if np.any(bounds[0] > bounds[1]):
        raise ValueError("corrupt checkpoint: quantiles.low must not exceed quantiles.high")
    trace = [
        _fields_from_doc(LossBreakdown, t, f"loss_trace[{i}]")
        for i, t in enumerate(_require(doc, "loss_trace", "checkpoint", list))
    ]
    return Checkpoint(
        schema=schema,
        scaling=scaling,
        config=config,
        params=np.concatenate([encoder, decoder]),
        quantile_lo=bounds[0],
        quantile_hi=bounds[1],
        loss_trace=trace,
    )


def save_checkpoint(cp: Checkpoint, path) -> None:
    text = checkpoint_to_text(cp)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; its errors start with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return checkpoint_from_text(fh.read())
    except UnicodeDecodeError as err:  # a ValueError too, so caught first
        raise not_utf8(path, err) from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
