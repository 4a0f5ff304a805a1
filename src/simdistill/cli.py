"""Command-line entry point.

Subcommands: train, distill, eval, ablate-temperature, unbalanced,
gen-data. The CLI only parses: it resolves the configuration (the
command's base, then the --config file, then --set, then --seed), hands
it to the command's driver in ``experiments``, which checks it and every
input before it writes anything, and maps errors to exit codes. Beyond
the config, a command reads only its input files and --taus or --reps.
Exit codes: 0 ok, 2 usage, 3 config, 4 data/format, 5 checkpoint.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

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
                            help="base seed N: seed_init=N, and seed_data=N+1 and "
                                 "seed_augment=N+2 except for unbalanced")


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


_BASES = {"ablate-temperature": experiments.ablation_base_config,
          "unbalanced": experiments.unbalanced_base_config}


def _resolve_config(args) -> RunConfig:
    """The command's base (RunConfig() unless _BASES names one), then the --config
    file, then --set, then --seed; the driver checks it."""
    cfg = _BASES.get(args.command, RunConfig)()
    if args.config:
        cfg = load_config(args.config, cfg)
    cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed_init=args.seed)
        if args.command != "unbalanced":    # the protocol derives its runs' seeds
            cfg = replace(cfg, seed_data=args.seed + 1, seed_augment=args.seed + 2)
    return cfg


def _dispatch(args) -> int:
    cfg = _resolve_config(args)
    if args.command == "gen-data":
        train_ds, eval_ds = experiments.write_synthetic_datasets(cfg, args.out)
        print(f"wrote {args.out}/train.bin ({len(train_ds)} samples) and "
              f"{args.out}/eval.bin ({len(eval_ds)} samples)")
    elif args.command in ("train", "distill"):
        teacher = getattr(args, "teacher", None)
        ckpt = experiments.run_training(cfg, args.out, teacher)
        ran = f"distilled {teacher} into a fresh student" if teacher else f"trained {cfg.objective}"
        print(f"{ran} for {cfg.epochs} epochs; checkpoint at {args.out}/checkpoint.bin "
              f"(step {ckpt.step})")
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
        # numpy's overflow and NaN warnings would print ahead of the one error line;
        # the typed checks report every non-finite value that matters
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
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
