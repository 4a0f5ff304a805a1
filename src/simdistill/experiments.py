"""Experiment drivers shared by the command-line entry points.

Each driver writes its resolved configuration before computing anything,
so any emitted artifact can be reproduced bit-for-bit from the files in
its output directory.
"""

from __future__ import annotations

import csv
import functools
import os
from dataclasses import replace

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig, serialize_config
from .data import (LabeledDataset, gen_gaussian_mixture, load_dataset, make_unbalanced,
                   save_dataset)
from .errors import ConfigError, ContractError
from .evaluation import embed_dataset, knn_eval, linear_probe, recall_at_k
from .train import distill, knn_accuracies, train

TEMPERATURE_GRID = (0.003, 0.007, 0.01, 0.02, 0.04, 0.06)

UNBALANCED_COLUMNS = ("isd_all", "moco_all", "isd_rare", "moco_rare", "diff_all", "diff_rare")


def fan_out(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, run across the CPUs this process may use.

    With ``n = min(len(tasks), CPUs in the affinity mask)``, the caller runs
    ``tasks[0::n]`` and ``n - 1`` forked workers run the other stripes, each
    sending its results, or its exception, back through a pipe. The tasks
    must be independent, and their results and exceptions picklable. With
    ``n < 2``, or where the platform cannot fork, the tasks run inline.
    While the n processes run, numpy's OpenBLAS runs one thread in each
    (see :func:`_one_blas_thread`), so they do not oversubscribe the CPUs;
    the caller's thread count is restored on return.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    n = min(len(tasks), len(cpus))
    if n < 2:
        return [fn(task) for task in tasks]
    import multiprocessing    # here, not at import: only fan-out callers pay for it
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [fn(task) for task in tasks]
    restore_blas_threads = _one_blas_thread()
    workers = []
    try:
        for i in range(1, n):
            receiver, sender = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_run_stripe, args=(fn, tasks[i::n], sender), daemon=True)
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        stripes = [[fn(task) for task in tasks[0::n]]]
        for worker, receiver in workers:
            try:
                ok, payload = receiver.recv()
            except EOFError:
                worker.join()
                raise ContractError(f"fan_out: worker {worker.pid} exited with status "
                                    f"{worker.exitcode} before sending its results") from None
            if not ok:
                raise payload
            stripes.append(payload)
    finally:
        for worker, receiver in workers:
            receiver.close()
            if worker.is_alive():
                worker.terminate()
            worker.join()
        restore_blas_threads()
    results = [None] * len(tasks)
    for i, stripe in enumerate(stripes):
        results[i::n] = stripe
    return results


def _run_stripe(fn, tasks: list, sender) -> None:
    """Worker body of :func:`fan_out`: ``(True, results)`` or ``(False, exception)``."""
    try:
        message = (True, [fn(task) for task in tasks])
    except Exception as exc:
        message = (False, exc)
    sender.send(message)
    sender.close()


def _one_blas_thread():
    """Set numpy's OpenBLAS to one thread; return the call that restores the count.

    Processes forked afterwards inherit the setting. Does nothing, and its
    restore does nothing, when the user has set ``OPENBLAS_NUM_THREADS`` or
    when numpy links a BLAS without scipy-openblas's thread calls.
    """
    blas = _openblas_threads()
    if blas is None or "OPENBLAS_NUM_THREADS" in os.environ:
        return lambda: None
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    return lambda: set_threads(previous)


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS bundled in numpy's
    wheel (``numpy.libs/libscipy_openblas*.so``), or None where there is none."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return get_threads, set_threads
    return None


def unbalanced_base_config() -> RunConfig:
    """Desk-tuned defaults for the rare-class comparison.

    Strong view noise makes same-class bank entries genuine false
    negatives for the contrastive objective, a cosine schedule with long
    training lets the consensus dynamic mature, and the sharper
    temperature keeps the teacher's mass on same-class anchors. Explicit
    config keys override any of this. ``seed_init`` is the protocol seed
    the command line passes to :func:`unbalanced_protocol`; each run's own
    seeds derive from it.
    """
    return RunConfig(
        objective="isd", temperature=0.07, lr=0.05, momentum=0.97, seed_init=1,
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


def synthetic_datasets(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The train and eval splits of the Gaussian mixture the data_* fields describe."""
    train_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_per_class, cfg.data_dim,
                                    cfg.data_sep, cfg.data_seed, split="train")
    eval_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_eval_per_class, cfg.data_dim,
                                   cfg.data_sep, cfg.data_seed, split="eval")
    return train_ds, eval_ds


def build_datasets(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Load container files when paths are set, else synthesize a mixture pair."""
    if cfg.data_train:
        train_ds, eval_ds = load_dataset(cfg.data_train), load_dataset(cfg.data_eval)
        if train_ds.feature_dim != eval_ds.feature_dim:
            raise ConfigError(f"{cfg.data_train} has {train_ds.feature_dim} features per sample, "
                              f"{cfg.data_eval} has {eval_ds.feature_dim}")
        if cfg.eval_k > len(train_ds):
            raise ConfigError(f"eval_k={cfg.eval_k} exceeds the {len(train_ds)} samples "
                              f"of {cfg.data_train}")
        return train_ds, eval_ds
    return synthetic_datasets(cfg)


def write_resolved_config(cfg: RunConfig, out_dir: str) -> str:
    text = serialize_config(cfg)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "resolved.cfg")
    with open(path, "w") as f:
        f.write(text)
    return path


def write_synthetic_datasets(cfg: RunConfig, out_dir: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Write resolved.cfg, then the synthetic corpus as train.bin and eval.bin."""
    if cfg.data_train:
        raise ConfigError("data_train is set: gen-data writes the synthetic corpus of the "
                          "data_* fields, not a copy of a loaded one")
    write_resolved_config(cfg, out_dir)
    train_ds, eval_ds = synthetic_datasets(cfg)
    save_dataset(train_ds, os.path.join(out_dir, "train.bin"))
    save_dataset(eval_ds, os.path.join(out_dir, "eval.bin"))
    return train_ds, eval_ds


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
    """All three metrics for both networks of a checkpoint; one CSV row each.

    The two networks are scored in parallel (:func:`fan_out`): the caller
    scores the teacher and a worker the student, so the teacher's rows come first.
    """
    write_resolved_config(cfg, out_dir)
    ckpt = load_checkpoint(ckpt_path)
    train_ds, eval_ds = build_datasets(cfg)
    if ckpt.encoder_spec.input_dim != train_ds.feature_dim:
        raise ConfigError(
            f"checkpoint expects {ckpt.encoder_spec.input_dim} input features, "
            f"dataset has {train_ds.feature_dim}"
        )
    halves = fan_out(_score_encoder, [
        (cfg, source, encoder, ckpt.epoch, train_ds, eval_ds)
        for source, encoder in (("teacher", ckpt.pair.teacher_encoder),
                                ("student", ckpt.pair.student_encoder))])
    rows = [row for half in halves for row in half]
    path = os.path.join(out_dir, "eval.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric", "k", "value", "source", "epoch"])
        for row in rows:
            writer.writerow([row["metric"], row["k"], repr(float(row["value"])),
                             row["source"], row["epoch"]])
    return rows


def _score_encoder(task) -> list[dict]:
    """The eval.csv rows of one encoder: k-NN, linear probe, then recall@k."""
    cfg, source, encoder, epoch, train_ds, eval_ds = task
    table_train = embed_dataset(encoder, train_ds, source=source, epoch=epoch)
    table_eval = embed_dataset(encoder, eval_ds, source=source, epoch=epoch)
    rows = [{"metric": "knn", "k": cfg.eval_k,
             "value": knn_eval(table_train, table_eval, cfg.eval_k),
             "source": source, "epoch": epoch},
            {"metric": "linear", "k": "",
             "value": linear_probe(table_train, table_eval, cfg.probe_epochs, cfg.probe_lr),
             "source": source, "epoch": epoch}]
    for k, r in zip(cfg.recall_ks, recall_at_k(table_eval, list(cfg.recall_ks))):
        rows.append({"metric": "recall", "k": k, "value": r, "source": source, "epoch": epoch})
    return rows


def temperature_sweep(cfg: RunConfig, taus: tuple[float, ...], out_dir: str) -> list[dict]:
    """Train one model per temperature on the same corpus; one CSV row per tau."""
    write_resolved_config(cfg, out_dir)
    train_ds, eval_ds = build_datasets(cfg)
    rows = fan_out(_sweep_point, [(replace(cfg, temperature=tau), train_ds, eval_ds)
                                  for tau in taus])
    path = os.path.join(out_dir, "temperature.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["tau", "teacher_knn", "student_knn"])
        for row in rows:
            writer.writerow([repr(row["tau"]), repr(row["teacher_knn"]), repr(row["student_knn"])])
    return rows


def _sweep_point(task) -> dict:
    cfg, train_ds, eval_ds = task
    ckpt = train(cfg, train_ds)
    teacher_knn, student_knn = knn_accuracies(ckpt.pair, train_ds, eval_ds, cfg.eval_k)
    return {"tau": cfg.temperature, "teacher_knn": teacher_knn, "student_knn": student_knn}


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
    tasks = []
    for rep in range(reps):
        rep_seed = seed * 10007 + rep
        balanced, eval_ds = synthetic_datasets(replace(cfg, data_seed=rep_seed))
        pick = np.random.default_rng([seed, rep, 99])
        large = sorted(int(c) for c in pick.choice(cfg.data_classes, size=large_count,
                                                   replace=False))
        rare = [c for c in range(cfg.data_classes) if c not in large]
        unbalanced = make_unbalanced(balanced, large, small_count, seed=rep_seed + 1)
        rare_mask = np.isin(eval_ds.labels, rare)
        rare_eval = LabeledDataset(eval_ds.samples[rare_mask], eval_ds.labels[rare_mask],
                                   split="eval")
        for objective in ("isd", "moco"):
            rcfg = replace(cfg, objective=objective,
                           seed_init=rep_seed + 2, seed_data=rep_seed + 3,
                           seed_augment=rep_seed + 4)
            tasks.append((rcfg, unbalanced, balanced, eval_ds, rare_eval))
    # One fork for the whole protocol: ISD and MoCo alternate in task order.
    accs = fan_out(_train_and_score, tasks)
    rows = []
    for (isd_all, isd_rare), (moco_all, moco_rare) in zip(accs[0::2], accs[1::2]):
        rows.append({
            "isd_all": isd_all,
            "moco_all": moco_all,
            "isd_rare": isd_rare,
            "moco_rare": moco_rare,
            "diff_all": isd_all - moco_all,
            "diff_rare": isd_rare - moco_rare,
        })
    path = os.path.join(out_dir, "unbalanced.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(UNBALANCED_COLUMNS)
        for row in rows:
            writer.writerow([repr(row[c]) for c in UNBALANCED_COLUMNS])
    return rows


def _train_and_score(task) -> tuple[float, float]:
    """Train one objective of one repetition; k-NN on all and on rare-class queries."""
    cfg, unbalanced, balanced, eval_ds, rare_eval = task
    student = train(cfg, unbalanced).pair.student_encoder
    neighbours = embed_dataset(student, balanced)
    return (knn_eval(neighbours, embed_dataset(student, eval_ds), cfg.eval_k),
            knn_eval(neighbours, embed_dataset(student, rare_eval), cfg.eval_k))
