"""Experiment drivers shared by the command-line entry points.

Each driver, called from the command line or a library, checks all its
inputs (its config and corpus through :func:`build_datasets`, its τ grid
or repetition count, and any checkpoint), then writes its resolved
configuration, then computes: a faulty input leaves no output, and any
emitted artifact can be reproduced bit-for-bit from its output directory.
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
from .evaluation import embed_dataset, knn_eval, linear_probe, recall_at_k, single_member_class
from .nn import MlpParams
from .train import Trainer, distill_trainer, encoder_mismatch, knn_accuracies, train

TEMPERATURE_GRID = (0.003, 0.007, 0.01, 0.02, 0.04, 0.06)

UNBALANCED_COLUMNS = ("isd_all", "moco_all", "isd_rare", "moco_rare", "diff_all", "diff_rare")
UNBALANCED_LARGE_CLASSES = 2
UNBALANCED_RARE_RATIO = 13


def fan_out(fn, tasks: list) -> list:
    """``[fn(t) for t in tasks]``, run across the CPUs this process may use.

    With ``n = min(len(tasks), CPUs in the affinity mask)``, the caller runs
    ``tasks[0::n]`` and ``n - 1`` forked workers run the other stripes, each
    sending its results, or its exception, back through a pipe. The tasks
    must be independent, and their results and exceptions picklable. With
    ``n < 2``, or where the platform cannot fork, the tasks run inline.
    While the n processes run, numpy's OpenBLAS runs one thread in each
    (see :func:`_one_blas_thread`), so they do not oversubscribe the CPUs;
    the caller's thread count is restored on return. Workers inherit the
    glibc malloc thresholds a ``Trainer`` set in the caller, or set them at
    their own first ``Trainer`` (see :func:`train._keep_step_buffers_on_heap`).
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
        teacher_policy="noisy", student_policy="noisy",
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
    """The container files when data_train is set, else the train and eval splits
    of the Gaussian mixture the data_* fields describe; checked to fit the config.

    Validates the config, then makes the one check of it against its corpus,
    each fault a ConfigError naming the corpus: an eval split of one sample at
    least, one feature width of one feature at least, eval_k train rows at
    least, and a set encoder_widths that reads that width.
    """
    cfg.validate()
    if cfg.data_train:
        corpus = cfg.data_train
        train_ds, eval_ds = load_dataset(cfg.data_train), load_dataset(cfg.data_eval)
        if not len(eval_ds):
            raise ConfigError(f"{cfg.data_eval} holds no samples: the eval split needs one at least")
    else:
        corpus = "the synthetic corpus of the data_* fields"
        train_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_per_class, cfg.data_dim,
                                        cfg.data_sep, cfg.data_seed, split="train")
        eval_ds = gen_gaussian_mixture(cfg.data_classes, cfg.data_eval_per_class, cfg.data_dim,
                                       cfg.data_sep, cfg.data_seed, split="eval")
    dim = train_ds.feature_dim
    if not dim:
        raise ConfigError(f"{corpus} has 0 features per sample: the encoder needs one at least")
    if eval_ds.feature_dim != dim:
        raise ConfigError(f"{corpus} has {dim} features per sample, "
                          f"{cfg.data_eval} has {eval_ds.feature_dim}")
    if cfg.eval_k > len(train_ds):
        raise ConfigError(f"eval_k={cfg.eval_k} exceeds the {len(train_ds)} samples of {corpus}")
    if cfg.encoder_widths and cfg.encoder_widths[0] != dim:
        raise ConfigError(f"encoder input width {cfg.encoder_widths[0]} does not match "
                          f"the {dim} features per sample of {corpus}")
    return train_ds, eval_ds


def _write_table(path: str, columns: tuple[str, ...], rows: list[dict]) -> None:
    """A CSV of ``rows`` under ``columns``; csv writes each float as its repr."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        writer.writerows([row[c] for c in columns] for row in rows)


def write_resolved_config(cfg: RunConfig, out_dir: str) -> None:
    text = serialize_config(cfg)    # raises before the directory exists
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "resolved.cfg"), "w") as f:
        f.write(text)


def write_synthetic_datasets(cfg: RunConfig, out_dir: str) -> tuple[LabeledDataset, LabeledDataset]:
    """Write resolved.cfg, then the synthetic corpus as train.bin and eval.bin."""
    if cfg.data_train:
        raise ConfigError("data_train is set: gen-data writes the synthetic corpus of the "
                          "data_* fields, not a copy of a loaded one")
    train_ds, eval_ds = build_datasets(cfg)
    write_resolved_config(cfg, out_dir)
    save_dataset(train_ds, os.path.join(out_dir, "train.bin"))
    save_dataset(eval_ds, os.path.join(out_dir, "eval.bin"))
    return train_ds, eval_ds


def run_training(cfg: RunConfig, out_dir: str, teacher_path: str | None = None) -> Checkpoint:
    """Train per the config, or with ``teacher_path`` distill that stored checkpoint
    into a fresh student; writes resolved.cfg, metrics.csv and checkpoint.bin.

    The config is checked, then its corpus, then the teacher checkpoint.
    resolved.cfg holds the trainer's config, so a distillation echoes what
    :func:`distill_config` forces.
    """
    train_ds, eval_ds = build_datasets(cfg)
    trainer = (Trainer(cfg, train_ds.feature_dim) if teacher_path is None
               else distill_trainer(cfg, teacher_path, train_ds.feature_dim))
    write_resolved_config(trainer.config, out_dir)
    ckpt = trainer.run(train_ds, eval_ds, metrics_path=os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(ckpt, os.path.join(out_dir, "checkpoint.bin"))
    return ckpt


def evaluate_checkpoint(cfg: RunConfig, ckpt_path: str, out_dir: str) -> list[dict]:
    """All three metrics for both networks of a checkpoint; one CSV row each.

    The two networks are scored in parallel (:func:`fan_out`): the caller
    scores the teacher and a worker the student, so the teacher's rows come first.
    The linear probe needs two classes in the train split, and with
    recall_ks set every class of the eval split needs two samples.
    """
    train_ds, eval_ds = build_datasets(cfg)
    classes = np.unique(train_ds.labels)
    if len(classes) < 2:
        raise ConfigError(f"the linear probe needs 2 classes, but {cfg.data_train} "
                          f"holds only class {int(classes[0])}")
    single = single_member_class(eval_ds.labels)
    if cfg.recall_ks and single is not None:
        split = cfg.data_eval or "the eval split of the synthetic corpus of the data_* fields"
        raise ConfigError(f"recall_ks is set, but class {single} has a single sample in {split}")
    ckpt = load_checkpoint(ckpt_path)
    if ckpt.encoder_spec.input_dim != train_ds.feature_dim:
        raise encoder_mismatch(ckpt.encoder_spec,
                               f"the {train_ds.feature_dim} features per sample of the corpus")
    write_resolved_config(cfg, out_dir)
    halves = fan_out(_score_encoder, [
        (cfg, source, encoder, ckpt.epoch, train_ds, eval_ds)
        for source, encoder in (("teacher", ckpt.pair.teacher_encoder),
                                ("student", ckpt.pair.student_encoder))])
    rows = [row for half in halves for row in half]
    _write_table(os.path.join(out_dir, "eval.csv"),
                 ("metric", "k", "value", "source", "epoch"), rows)
    return rows


def _score_encoder(task) -> list[dict]:
    """The eval.csv rows of one encoder: k-NN, linear probe, then recall@k."""
    cfg, source, encoder, epoch, train_ds, eval_ds = task
    table_train = embed_dataset(encoder, train_ds)
    table_eval = embed_dataset(encoder, eval_ds)
    rows = [("knn", cfg.eval_k, knn_eval(table_train, table_eval, cfg.eval_k)),
            ("linear", "", linear_probe(table_train, table_eval, cfg.probe_epochs, cfg.probe_lr))]
    if cfg.recall_ks:
        rows += [("recall", k, r)
                 for k, r in zip(cfg.recall_ks, recall_at_k(table_eval, list(cfg.recall_ks)))]
    return [{"metric": metric, "k": k, "value": value, "source": source, "epoch": epoch}
            for metric, k, value in rows]


def temperature_sweep(cfg: RunConfig, taus: tuple[float, ...], out_dir: str) -> list[dict]:
    """Train one model per temperature on the same corpus; one CSV row per tau."""
    if not taus:
        raise ConfigError("empty temperature grid")
    for tau in taus:
        replace(cfg, temperature=tau).validate()
    train_ds, eval_ds = build_datasets(cfg)
    write_resolved_config(cfg, out_dir)
    rows = fan_out(_sweep_point, [(replace(cfg, temperature=tau), train_ds, eval_ds)
                                  for tau in taus])
    _write_table(os.path.join(out_dir, "temperature.csv"),
                 ("tau", "teacher_knn", "student_knn"), rows)
    return rows


def _sweep_point(task) -> dict:
    cfg, train_ds, eval_ds = task
    ckpt = train(cfg, train_ds)
    teacher_knn, student_knn = knn_accuracies(ckpt.pair, train_ds, eval_ds, cfg.eval_k)
    return {"tau": cfg.temperature, "teacher_knn": teacher_knn, "student_knn": student_knn}


def unbalanced_protocol(cfg: RunConfig, reps: int, seed: int, out_dir: str) -> list[dict]:
    """Matched-budget comparison of the distillation and contrastive objectives
    on corpora where a few classes dominate.

    Per repetition: draw a balanced mixture, keep UNBALANCED_LARGE_CLASSES
    random classes whole and cut the rest to per_class / UNBALANCED_RARE_RATIO
    samples, train both objectives with identical seeds and budgets, then
    score k-NN on a balanced evaluation split against the balanced training
    corpus. The evaluation side never sees the imbalance. resolved.cfg
    holds ``seed`` as ``seed_init``, which a replay reads.
    """
    cfg = replace(cfg, seed_init=seed)
    cfg.validate()      # as given, before each repetition replaces data_seed
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    if cfg.data_train:
        raise ConfigError("data_train is set: unbalanced draws one synthetic corpus of the "
                          "data_* fields per repetition, not a loaded one")
    if cfg.data_classes <= UNBALANCED_LARGE_CLASSES:
        raise ConfigError(f"data_classes={cfg.data_classes} leaves no rare class: the protocol "
                          f"keeps {UNBALANCED_LARGE_CLASSES} classes whole")
    small_count = max(2, cfg.data_per_class // UNBALANCED_RARE_RATIO)
    if cfg.data_per_class < small_count:
        raise ConfigError(f"data_per_class={cfg.data_per_class} is too few: the protocol keeps "
                          f"{small_count} samples of each rare class")
    tasks = []
    for rep in range(reps):
        rep_seed = seed * 10007 + rep
        balanced, eval_ds = build_datasets(replace(cfg, data_seed=rep_seed))
        pick = np.random.default_rng([seed, rep, 99])
        large = sorted(int(c) for c in pick.choice(
            cfg.data_classes, size=UNBALANCED_LARGE_CLASSES, replace=False))
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
    write_resolved_config(cfg, out_dir)
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
    _write_table(os.path.join(out_dir, "unbalanced.csv"), UNBALANCED_COLUMNS, rows)
    return rows


def _train_and_score(task) -> tuple[float, float]:
    """Train one objective of one repetition; k-NN on all and on rare-class queries."""
    cfg, unbalanced, balanced, eval_ds, rare_eval = task
    student = train(cfg, unbalanced).pair.student_encoder
    return _knn_scores(student, balanced, eval_ds, rare_eval, cfg.eval_k)


def _knn_scores(encoder: MlpParams, balanced: LabeledDataset, eval_ds: LabeledDataset,
                rare_eval: LabeledDataset, k: int) -> tuple[float, float]:
    """k-NN accuracy of all and of rare-class queries against the balanced corpus."""
    neighbours = embed_dataset(encoder, balanced)
    return (knn_eval(neighbours, embed_dataset(encoder, eval_ds), k),
            knn_eval(neighbours, embed_dataset(encoder, rare_eval), k))
