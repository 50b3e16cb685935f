"""Command line front end: train, generate, cdf, evaluate.

Exit codes: 0 on success, 1 on any runtime failure (bad data, corrupt
checkpoint, numeric errors), 2 on usage errors (unknown flags, missing
required arguments).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .checkpoint import load_checkpoint, save_checkpoint
from .data import drop_percentile_outliers, load_csv, load_schema, save_csv, standardize
from .metrics import build_report, membership_inference
from .model import TrainConfig, check_schema, check_seed, train
from .serialize import json_text
from .synthesis import ROUND_DECIMAL, ROUND_INTEGER, estimate_cdf, generate


class UsageError(Exception):
    pass


def _enough_rows(table, path, minimum: int, after: str = ""):
    """table, if it has the minimum number of rows its command needs; an
    error naming path otherwise."""
    if table.n_rows < minimum:
        raise ValueError(f"{path}: needs at least {minimum} data rows, has {table.n_rows}{after}")
    return table


def _check_out_dir(path) -> None:
    """Raise, naming path, unless the directory it is to be written in
    exists, so that a command fails before its work rather than after."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{path}: directory {directory} does not exist")


def cmd_train(args) -> int:
    _check_out_dir(args.out)
    schema = load_schema(args.schema)
    table = _enough_rows(load_csv(args.data, schema), args.data, 2)
    if args.clip_percentiles:
        table = _enough_rows(drop_percentile_outliers(table), args.data, 2, " after --clip-percentiles")
    table = standardize(table)
    config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})

    def progress(epoch, loss):
        print(
            f"epoch {epoch + 1:>4}/{config.epochs}  "
            f"crps {loss.crps:.6f}  discrete {loss.discrete:.6f}  "
            f"kl {loss.kl:.6f}  total {loss.total:.6f}"
        )

    cp = train(table, config, progress=progress)
    save_checkpoint(cp, args.out)
    print(f"checkpoint written to {args.out}")
    return 0


def cmd_generate(args) -> int:
    _check_out_dir(args.out)
    cp = load_checkpoint(args.model)
    table = generate(cp, args.n, args.seed, ordinal_rounding=args.ordinal_rounding)
    save_csv(table, args.out)
    print(f"{table.n_rows} synthetic rows written to {args.out}")
    return 0


def cmd_cdf(args) -> int:
    _check_out_dir(args.out)
    cp = load_checkpoint(args.model)
    curve = estimate_cdf(cp, args.column, n_mc=args.mc)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,cdf\n")
        for x, v in zip(curve.grid, curve.values):
            fh.write(f"{float(x)!r},{float(v)!r}\n")
    print(f"cdf curve for {args.column!r} written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    if args.with_mia and not args.model:
        raise UsageError("--with-mia requires --model")
    _check_out_dir(args.out)
    schema = load_schema(args.schema)
    real_train = _enough_rows(load_csv(args.real_train, schema), args.real_train, 2)
    real_test = _enough_rows(load_csv(args.real_test, schema), args.real_test, 1)
    synth = _enough_rows(load_csv(args.synth, schema), args.synth, 2)
    known = args.known_columns.split(",") if args.known_columns else None
    secrets = args.secret_columns.split(",") if args.secret_columns else None
    if args.with_mia:  # fail before the metrics run, not after
        checkpoint = load_checkpoint(args.model)
        check_schema(checkpoint.schema, schema, args.model, args.schema)
        check_seed(args.seed)
    doc = build_report(
        real_train, real_test, synth,
        reg_target=args.target_reg, cls_target=args.target_cls,
        known_columns=known, secret_columns=secrets,
    ).to_doc()
    if args.with_mia:
        mia = membership_inference(checkpoint, real_train, real_test, args.target_cls, seed=args.seed)
        doc["mia_accuracy"], doc["mia_auc"] = mia.accuracy, mia.auc
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text(doc))
    print(f"metric report written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabsynth",
        description="Train a distributional autoencoder on tabular data, "
        "sample synthetic rows, and evaluate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--schema", required=True, help="schema JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    default = {f.name: f.default for f in fields(TrainConfig)}
    p.add_argument("--epochs", type=int, default=default["epochs"])
    p.add_argument("--batch-size", type=int, default=default["batch_size"])
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=default["learning_rate"])
    p.add_argument("--beta", type=float, default=default["beta"],
                   help="weight of the KL term; larger trades fidelity for privacy")
    p.add_argument("--latent-dim", type=int, default=default["latent_dim"])
    p.add_argument("--knots", dest="knot_count", metavar="KNOTS", type=int, default=default["knot_count"],
                   help="spline segment count")
    p.add_argument("--hidden", dest="hidden_width", metavar="HIDDEN", type=int, default=default["hidden_width"])
    p.add_argument("--clip-percentiles", action="store_true",
                   help="drop rows outside the 1%%-99%% numeric ranges before training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="sample synthetic rows from a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--ordinal-rounding", choices=[ROUND_INTEGER, ROUND_DECIMAL],
                   default=ROUND_INTEGER)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("cdf", help="estimate a numeric column's marginal CDF")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--column", required=True)
    p.add_argument("--out", required=True, help="output CSV (x, cdf)")
    p.add_argument("--mc", type=int, default=5000, help="Monte Carlo draws")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("evaluate", help="score synthetic data against real splits")
    p.add_argument("--real-train", required=True)
    p.add_argument("--real-test", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--target-reg", required=True, help="numeric regression target")
    p.add_argument("--target-cls", required=True, help="discrete classification target")
    p.add_argument("--out", required=True, help="report path (JSON)")
    p.add_argument("--known-columns", default=None,
                   help="comma-separated attacker-known columns (default: all numeric)")
    p.add_argument("--secret-columns", default=None,
                   help="comma-separated secret columns (default: all discrete)")
    p.add_argument("--with-mia", action="store_true",
                   help="run the shadow-model membership inference attack")
    p.add_argument("--model", default=None, help="checkpoint path (needed for --with-mia)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # any runtime failure maps to exit 1
        # str() of a KeyError quotes its message as a repr; print it plain
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
