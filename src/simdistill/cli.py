"""Command-line entry point.

Subcommands: train, distill, eval, ablate-temperature, unbalanced,
gen-data. Every run resolves its configuration (config file, then --set
overrides, then --seed) and echoes it into the output directory before
computing anything; beyond that config, a command reads only its input
files and its --taus or --reps grid. Exit codes: 0 ok, 2 usage, 3 config,
4 data/format, 5 checkpoint.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import experiments
from .config import RunConfig, apply_overrides, load_config
from .errors import (CheckpointError, ConfigError, ContractError, FormatError,
                     SimDistillError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_DATA = 4
EXIT_CHECKPOINT = 5


def _add_common(parser: argparse.ArgumentParser, out: str = "run", seed: bool = True) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config field")
    parser.add_argument("--out", default=out, help="output directory")
    if seed:
        parser.add_argument("--seed", type=int,
                            help="base seed (sets init/data/augment seeds)")


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

    p = sub.add_parser("gen-data", help="write the synthetic corpus of the data_* fields")
    _add_common(p, out="data", seed=False)
    return parser


def _resolve_config(args, base: RunConfig | None = None) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = base if base is not None else RunConfig()
    cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed_init=args.seed, seed_data=args.seed + 1,
                      seed_augment=args.seed + 2)
    cfg.validate()
    # without container files, every command's k-NN train set is the synthetic corpus
    corpus = cfg.data_classes * cfg.data_per_class
    if not cfg.data_train and cfg.eval_k > corpus:
        raise ConfigError(f"eval_k={cfg.eval_k} exceeds the {corpus} samples of the "
                          f"training corpus (data_classes * data_per_class)")
    return cfg


def _dispatch(args) -> int:
    base = None
    if args.command == "ablate-temperature":
        base = experiments.ablation_base_config()
    elif args.command == "unbalanced":
        base = experiments.unbalanced_base_config()
    cfg = _resolve_config(args, base)
    if args.command == "gen-data":
        train_ds, eval_ds = experiments.write_synthetic_datasets(cfg, args.out)
        print(f"wrote {args.out}/train.bin ({len(train_ds)} samples) and "
              f"{args.out}/eval.bin ({len(eval_ds)} samples)")
    elif args.command == "train":
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
        rows = experiments.unbalanced_protocol(cfg, args.reps, cfg.seed_init, args.out)
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
