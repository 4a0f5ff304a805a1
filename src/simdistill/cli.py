"""Command-line entry point.

Subcommands: train, distill, eval, ablate-temperature, unbalanced,
gen-data. Every run resolves its configuration (config file, then --set
overrides, then --seed) and echoes it into the output directory before
computing anything. Exit codes: 0 ok, 2 usage, 3 config, 4 data/format,
5 checkpoint.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments
from .config import RunConfig, apply_overrides, load_config
from .data import gen_gaussian_mixture, save_dataset
from .errors import (CheckpointError, ConfigError, ContractError, FormatError,
                     SimDistillError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_CHECKPOINT = 5


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config field")
    parser.add_argument("--out", default="run", help="output directory")
    parser.add_argument("--seed", type=int, help="base seed (sets init/data/augment seeds)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simdistill",
                                     description="Similarity-distillation training lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model per the config")
    _add_common(p)

    p = sub.add_parser("distill", help="frozen-teacher distillation from a checkpoint")
    _add_common(p)
    p.add_argument("--teacher", required=True, help="teacher checkpoint file")

    p = sub.add_parser("eval", help="evaluate a checkpoint (knn, linear probe, recall@k)")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("ablate-temperature", help="sweep the softmax temperature")
    _add_common(p)
    p.add_argument("--taus", default=",".join(str(t) for t in experiments.TEMPERATURE_GRID),
                   help="comma-separated temperature grid")

    p = sub.add_parser("unbalanced", help="rare-class comparison on unbalanced corpora")
    _add_common(p)
    p.add_argument("--reps", type=int, default=10)

    p = sub.add_parser("gen-data", help="write synthetic dataset container files")
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--eval-per-class", type=int, default=50)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--sep", type=float, default=6.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="data")
    return parser


def _resolve_config(args, base: RunConfig | None = None) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = base if base is not None else RunConfig()
    cfg = apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg = replace(cfg, seed_init=args.seed, seed_data=args.seed + 1,
                      seed_augment=args.seed + 2)
    cfg.validate()
    return cfg


def _dispatch(args) -> int:
    if args.command == "gen-data":
        os.makedirs(args.out, exist_ok=True)
        train_ds = gen_gaussian_mixture(args.classes, args.per_class, args.dim,
                                        args.sep, args.seed, split="train")
        eval_ds = gen_gaussian_mixture(args.classes, args.eval_per_class, args.dim,
                                       args.sep, args.seed, split="eval")
        save_dataset(train_ds, os.path.join(args.out, "train.bin"))
        save_dataset(eval_ds, os.path.join(args.out, "eval.bin"))
        print(f"wrote {args.out}/train.bin ({len(train_ds)} samples) and "
              f"{args.out}/eval.bin ({len(eval_ds)} samples)")
        return EXIT_OK

    base = None
    if args.command == "ablate-temperature":
        base = experiments.ablation_base_config()
    elif args.command == "unbalanced":
        base = experiments.unbalanced_base_config()
    cfg = _resolve_config(args, base)
    if args.command == "train":
        ckpt = experiments.run_training(cfg, args.out)
        print(f"trained {cfg.objective} for {cfg.epochs} epochs; "
              f"checkpoint at {args.out}/checkpoint.bin (step {ckpt.step})")
    elif args.command == "distill":
        ckpt = experiments.run_distill(cfg, args.teacher, args.out)
        print(f"distilled {args.teacher} into a fresh student for {cfg.epochs} epochs; "
              f"checkpoint at {args.out}/checkpoint.bin (step {ckpt.step})")
    elif args.command == "eval":
        rows = experiments.evaluate_checkpoint(cfg, args.checkpoint, args.out)
        for row in rows:
            k = f"@{row['k']}" if row["k"] != "" else ""
            print(f"{row['source']} {row['metric']}{k}: {row['value']:.4f}")
    elif args.command == "ablate-temperature":
        try:
            taus = tuple(float(t) for t in args.taus.split(",") if t.strip())
        except ValueError:
            raise ConfigError(f"temperature grid is not a list of numbers: {args.taus!r}")
        if not taus:
            raise ConfigError("empty temperature grid")
        for tau in taus:
            replace(cfg, temperature=tau).validate()
        rows = experiments.temperature_sweep(cfg, taus, args.out)
        for row in rows:
            print(f"tau={row['tau']}: teacher {row['teacher_knn']:.4f} "
                  f"student {row['student_knn']:.4f}")
    elif args.command == "unbalanced":
        seed = args.seed if args.seed is not None else 1
        rows = experiments.unbalanced_protocol(cfg, args.reps, seed, args.out)
        for i, row in enumerate(rows):
            print(f"rep {i}: diff_all={row['diff_all']:+.4f} diff_rare={row['diff_rare']:+.4f}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown subcommand {args.command!r}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except (FormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ContractError, SimDistillError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
