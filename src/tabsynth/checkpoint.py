"""Checkpoint serialization: a versioned JSON document with decimal floats.

Floats are written with 17 significant digits, which is enough for the
parsed value to equal the original bit for bit, so save -> load -> save
reproduces the file exactly. Weight shapes are validated against the
stored config on load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from functools import cache
from typing import get_type_hints

import numpy as np

from .data import ScalingStats, Schema, check_scaling_names, schema_from_doc
from .model import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    LossBreakdown,
    TrainConfig,
    decoder_width,
)
from .nn import DenseLayer, Mlp
from .serialize import json_text

# resolving annotations takes ~40 us, and the loss trace holds one entry per epoch
_field_types = cache(get_type_hints)


def _mlp_doc(net: Mlp) -> dict:
    return {
        "activations": list(net.activations),
        "layers": [
            {"weight": layer.weight.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ],
    }


def _fields_doc(obj) -> dict:
    """A dataclass's fields in declaration order, each coerced to its declared type."""
    types = _field_types(type(obj))
    return {f.name: types[f.name](getattr(obj, f.name)) for f in fields(obj)}


def checkpoint_to_text(cp: Checkpoint) -> str:
    doc = {
        "format_version": int(cp.format_version),
        "schema": {"columns": [asdict(c) for c in cp.schema.columns]},
        "scaling": {
            "columns": list(cp.scaling.names),
            "mean": cp.scaling.mean.tolist(),
            "stddev": cp.scaling.stddev.tolist(),
        },
        "config": _fields_doc(cp.config),
        "encoder": _mlp_doc(cp.encoder),
        "decoder": _mlp_doc(cp.decoder),
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


def _fields_from_doc(cls, doc, path):
    types = _field_types(cls)
    kinds = {int: int, float: (int, float)}  # a JSON int may stand for a whole float
    return cls(**{f.name: types[f.name](_require(doc, f.name, path, kinds[types[f.name]])) for f in fields(cls)})


def _float_array(doc, key, path, ndim):
    """doc[key] as an ndim-D array of finite float64 numbers, or a ValueError naming it."""
    value = _require(doc, key, path)
    try:
        values = np.array(value, dtype=np.float64)
        ok = values.ndim == ndim and np.all(np.isfinite(values))
    except (TypeError, ValueError):  # ragged nesting, or an entry that is not a number
        ok = False
    if not ok:
        raise ValueError(f"corrupt checkpoint: {path}.{key} must be a {ndim}-D array of finite numbers")
    return values


def _reject_constant(name):
    raise ValueError(f"corrupt checkpoint: non-finite number {name}")


def _mlp_from_doc(doc, path) -> Mlp:
    activations = [str(a) for a in _require(doc, "activations", path, list)]
    layers = []
    for i, entry in enumerate(_require(doc, "layers", path, list)):
        weight = _float_array(entry, "weight", f"{path}.layers[{i}]", 2)
        bias = _float_array(entry, "bias", f"{path}.layers[{i}]", 1)
        if bias.shape != (weight.shape[0],):
            raise ValueError(f"corrupt checkpoint: bad layer shapes under {path}")
        layers.append(DenseLayer(weight=weight, bias=bias))
    return Mlp(layers=layers, activations=activations)


def checkpoint_from_text(text: str) -> Checkpoint:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise ValueError(f"corrupt checkpoint: not valid JSON ({err})") from None
    version = _require(doc, "format_version", "checkpoint")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version {version!r} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    schema = schema_from_doc(_require(doc, "schema", "checkpoint"), "corrupt checkpoint: schema")

    scaling_doc = _require(doc, "scaling", "checkpoint")
    scaling = ScalingStats(
        names=tuple(str(v) for v in _require(scaling_doc, "columns", "scaling", list)),
        mean=_float_array(scaling_doc, "mean", "scaling", 1),
        stddev=_float_array(scaling_doc, "stddev", "scaling", 1),
    )
    check_scaling_names(schema, scaling)

    config = _fields_from_doc(TrainConfig, _require(doc, "config", "checkpoint"), "config")
    encoder = _mlp_from_doc(_require(doc, "encoder", "checkpoint"), "encoder")
    decoder = _mlp_from_doc(_require(doc, "decoder", "checkpoint"), "decoder")
    _check_shapes(schema, config, encoder, decoder)

    quantiles = _require(doc, "quantiles", "checkpoint")
    bounds = [_float_array(quantiles, key, "quantiles", 1) for key in ("low", "high")]
    for key, values in zip(("low", "high"), bounds):
        if values.shape != (len(schema.numeric_indices),):
            raise ValueError(f"corrupt checkpoint: quantiles.{key} needs one entry per numeric column")
    trace = [
        _fields_from_doc(LossBreakdown, t, f"loss_trace[{i}]")
        for i, t in enumerate(_require(doc, "loss_trace", "checkpoint", list))
    ]
    return Checkpoint(
        format_version=int(version),
        schema=schema,
        scaling=scaling,
        config=config,
        encoder=encoder,
        decoder=decoder,
        quantile_lo=bounds[0],
        quantile_hi=bounds[1],
        loss_trace=trace,
    )


def _check_shapes(schema: Schema, config: TrainConfig, encoder: Mlp, decoder: Mlp) -> None:
    ends = {"encoder": (encoder, schema.encoded_width, 2 * config.latent_dim),
            "decoder": (decoder, config.latent_dim, decoder_width(schema, config.knot_count))}
    for name, (net, n_in, n_out) in ends.items():
        # each layer must take the previous layer's output, from n_in through to n_out
        widths = [n_in] + [layer.weight.shape[0] for layer in net.layers]
        if [layer.weight.shape[1] for layer in net.layers] != widths[:-1] or widths[-1] != n_out:
            raise ValueError(f"corrupt checkpoint: {name} shape does not match schema/config")


def save_checkpoint(cp: Checkpoint, path) -> None:
    text = checkpoint_to_text(cp)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        return checkpoint_from_text(fh.read())
