"""Experiment drivers shared by the command-line entry points.

Each driver writes its resolved configuration before computing anything,
so any emitted artifact can be reproduced bit-for-bit from the files in
its output directory.
"""

from __future__ import annotations

import csv
import os
from dataclasses import replace

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, serialize_config
from .data import LabeledDataset, gen_gaussian_mixture, load_dataset, make_unbalanced
from .errors import ConfigError
from .evaluation import embed_dataset, knn_eval, linear_probe, recall_at_k
from .train import distill, knn_accuracies, train

TEMPERATURE_GRID = (0.003, 0.007, 0.01, 0.02, 0.04, 0.06)

UNBALANCED_COLUMNS = ("isd_all", "moco_all", "isd_rare", "moco_rare", "diff_all", "diff_rare")


def unbalanced_base_config() -> RunConfig:
    """Desk-tuned defaults for the rare-class comparison.

    Strong view noise makes same-class bank entries genuine false
    negatives for the contrastive objective, a cosine schedule with long
    training lets the consensus dynamic mature, and the sharper
    temperature keeps the teacher's mass on same-class anchors. Explicit
    config keys override any of this.
    """
    return RunConfig(
        objective="isd", temperature=0.07, lr=0.05, momentum=0.97,
        lr_schedule="cosine", epochs=200, bank_capacity=512, batch_size=64,
        teacher_policy="custom", student_policy="custom",
        custom_noise_std=1.0, custom_mask_prob=0.2,
        custom_scale_min=0.5, custom_scale_max=1.5,
        data_classes=8, data_per_class=260, data_eval_per_class=50,
        data_dim=32, data_sep=2.5,
    )


def ablation_base_config() -> RunConfig:
    """Defaults for the temperature sweep: a corpus the encoder cannot
    already solve at initialisation, and a budget small enough to sweep."""
    return RunConfig(
        objective="isd", lr=0.05, momentum=0.97, lr_schedule="cosine",
        epochs=60, bank_capacity=512, batch_size=64,
        teacher_policy="aggressive", student_policy="aggressive",
        data_classes=3, data_per_class=200, data_eval_per_class=50,
        data_dim=32, data_sep=2.0,
    )


def build_datasets(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Load container files when paths are set, else synthesize a mixture pair."""
    if cfg.data_train:
        return load_dataset(cfg.data_train), load_dataset(cfg.data_eval)
    train_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_per_class, cfg.data_dim,
                                    cfg.data_sep, cfg.data_seed, split="train")
    eval_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_eval_per_class, cfg.data_dim,
                                   cfg.data_sep, cfg.data_seed, split="eval")
    return train_ds, eval_ds


def write_resolved_config(cfg: RunConfig, out_dir: str) -> str:
    text = serialize_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved.cfg")
    with open(path, "w") as f:
        f.write(text)
    return path


def run_training(cfg: RunConfig, out_dir: str) -> Checkpoint:
    """Train per the config; writes resolved.cfg, metrics.csv and checkpoint.bin."""
    write_resolved_config(cfg, out_dir)
    train_ds, eval_ds = build_datasets(cfg)
    ckpt = train(cfg, train_ds, eval_ds,
                 metrics_path=os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.bin"))
    return ckpt


def run_distill(cfg: RunConfig, teacher_path: str, out_dir: str) -> Checkpoint:
    """Frozen-teacher distillation from a stored checkpoint."""
    write_resolved_config(cfg, out_dir)
    train_ds, eval_ds = build_datasets(cfg)
    ckpt = distill(cfg, teacher_path, train_ds, eval_ds,
                   metrics_path=os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.bin"))
    return ckpt


def evaluate_checkpoint(cfg: RunConfig, ckpt_path: str, out_dir: str) -> list[dict]:
    """All three metrics for both networks of a checkpoint; one CSV row each."""
    write_resolved_config(cfg, out_dir)
    ckpt = load_checkpoint(ckpt_path)
    train_ds, eval_ds = build_datasets(cfg)
    if ckpt.encoder_spec.input_dim != train_ds.feature_dim:
        raise ConfigError(
            f"checkpoint expects {ckpt.encoder_spec.input_dim} input features, "
            f"dataset has {train_ds.feature_dim}"
        )
    rows = []
    for source, encoder in (("teacher", ckpt.pair.teacher_encoder),
                            ("student", ckpt.pair.student_encoder)):
        table_train = embed_dataset(encoder, train_ds, source=source, epoch=ckpt.epoch)
        table_eval = embed_dataset(encoder, eval_ds, source=source, epoch=ckpt.epoch)
        rows.append({"metric": "knn", "k": cfg.eval_k,
                     "value": knn_eval(table_train, table_eval, cfg.eval_k),
                     "source": source, "epoch": ckpt.epoch})
        rows.append({"metric": "linear", "k": "",
                     "value": linear_probe(table_train, table_eval, cfg.probe_epochs, cfg.probe_lr),
                     "source": source, "epoch": ckpt.epoch})
        for k, r in zip(cfg.recall_ks, recall_at_k(table_eval, list(cfg.recall_ks))):
            rows.append({"metric": "recall", "k": k, "value": r,
                         "source": source, "epoch": ckpt.epoch})
    path = os.path.join(out_dir, "eval.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "k", "value", "source", "epoch"])
        for row in rows:
            writer.writerow([row["metric"], row["k"], repr(float(row["value"])),
                             row["source"], row["epoch"]])
    return rows


def temperature_sweep(cfg: RunConfig, taus: tuple[float, ...], out_dir: str) -> list[dict]:
    """Train one model per temperature on the same corpus; one CSV row per tau."""
    write_resolved_config(cfg, out_dir)
    train_ds, eval_ds = build_datasets(cfg)
    rows = []
    for tau in taus:
        ckpt = train(replace(cfg, temperature=tau), train_ds)
        teacher_knn, student_knn = knn_accuracies(ckpt.pair, train_ds, eval_ds, cfg.eval_k)
        rows.append({"tau": tau, "teacher_knn": teacher_knn, "student_knn": student_knn})
    path = os.path.join(out_dir, "temperature.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["tau", "teacher_knn", "student_knn"])
        for row in rows:
            writer.writerow([repr(row["tau"]), repr(row["teacher_knn"]), repr(row["student_knn"])])
    return rows


def unbalanced_protocol(cfg: RunConfig, reps: int, seed: int, out_dir: str,
                        large_count: int = 2, rare_ratio: int = 13) -> list[dict]:
    """Matched-budget comparison of the distillation and contrastive objectives
    on corpora where a few classes dominate.

    Per repetition: draw a balanced mixture, keep ``large_count`` random
    classes whole and cut the rest to per_class / rare_ratio samples, train
    both objectives with identical seeds and budgets, then score k-NN on a
    balanced evaluation split against the balanced training corpus. The
    evaluation side never sees the imbalance.
    """
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    write_resolved_config(cfg, out_dir)
    small_count = max(2, cfg.data_per_class // rare_ratio)
    rows = []
    for rep in range(reps):
        rep_seed = seed * 10007 + rep
        balanced = gen_gaussian_mixture(cfg.data_classes, cfg.data_per_class, cfg.data_dim,
                                        cfg.data_sep, rep_seed, split="train")
        eval_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_eval_per_class, cfg.data_dim,
                                       cfg.data_sep, rep_seed, split="eval")
        pick = np.random.default_rng([seed, rep, 99])
        large = sorted(int(c) for c in pick.choice(cfg.data_classes, size=large_count,
                                                   replace=False))
        rare = [c for c in range(cfg.data_classes) if c not in large]
        unbalanced = make_unbalanced(balanced, large, small_count, seed=rep_seed + 1)

        accs = {}
        for objective in ("isd", "moco"):
            rcfg = replace(cfg, objective=objective,
                           seed_init=rep_seed + 2, seed_data=rep_seed + 3,
                           seed_augment=rep_seed + 4)
            ckpt = train(rcfg, unbalanced)
            student = ckpt.pair.student_encoder
            neighbours = embed_dataset(student, balanced)
            queries = embed_dataset(student, eval_ds)
            accs[f"{objective}_all"] = knn_eval(neighbours, queries, cfg.eval_k)
            rare_mask = np.isin(eval_ds.labels, rare)
            rare_queries = embed_dataset(
                student,
                LabeledDataset(eval_ds.samples[rare_mask], eval_ds.labels[rare_mask],
                               split="eval"),
            )
            accs[f"{objective}_rare"] = knn_eval(neighbours, rare_queries, cfg.eval_k)
        rows.append({
            "isd_all": accs["isd_all"],
            "moco_all": accs["moco_all"],
            "isd_rare": accs["isd_rare"],
            "moco_rare": accs["moco_rare"],
            "diff_all": accs["isd_all"] - accs["moco_all"],
            "diff_rare": accs["isd_rare"] - accs["moco_rare"],
        })
    path = os.path.join(out_dir, "unbalanced.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(UNBALANCED_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) for c in UNBALANCED_COLUMNS])
    return rows
