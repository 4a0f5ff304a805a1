"""The benchmark's workloads: inputs made from a seed, set-up, one operation, its checks.

Each workload is a closed loop of identical operations in one process. The
program gets only what :meth:`inputs` generates from the workload seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import simdistill as sd
from simdistill import cli, experiments
from simdistill.train import Trainer

from tracer import Patches, Tracer

CHANCE = 1.0 / 8            # unbalanced_base_config has 8 classes
UNBALANCED_EPOCHS = 40      # of the base config's 200, so that a run holds several repetitions
BYOL_EPOCHS = 10            # one byol-plain operation: 330 steps of train()
BYOL_LOSS_RANGE = (0.0, 4.0)
# Balanced mixtures of byol-plain and eval-roundtrip: classes, per class, dim, separation.
CLASSES, PER_CLASS, EVAL_PER_CLASS, DIM, SEP = 8, 260, 50, 32, 2.5
EVAL_BANK = 1024
# Every eval.csv value is a fraction of the 400 evaluation rows. Reference and
# program compute embeddings in different order, so a near-tie may flip one row.
EVAL_TOLERANCE = 1.0 / (CLASSES * EVAL_PER_CLASS) + 1e-12


def _objective(trainer) -> str:
    objective = trainer.config.objective
    return getattr(objective, "objective", objective)


class StepLog:
    """Times each ``Trainer.step`` and ``Trainer.run`` at its boundary; keeps the losses."""

    def __init__(self):
        self.step_s: dict[str, list[float]] = {}
        self.steps = 0
        self.run_s = 0.0
        self.run_steps = 0
        self.losses: list[float] = []

    def install(self, patches: Patches) -> None:
        patches.wrap(Trainer, "step", self._step)
        patches.wrap(Trainer, "run", self._run)

    def _step(self, fn):
        def step(trainer, batch, *args, **kwargs):
            t0 = perf_counter()
            m = fn(trainer, batch, *args, **kwargs)
            dt = perf_counter() - t0
            self.step_s.setdefault(_objective(trainer), []).append(dt)
            self.steps += 1
            self.losses.append(float(m.loss))
            return m
        return step

    def _run(self, fn):
        def run(trainer, *args, **kwargs):
            steps = self.steps
            t0 = perf_counter()
            out = fn(trainer, *args, **kwargs)
            self.run_s += perf_counter() - t0
            self.run_steps += self.steps - steps
            return out
        return run


@dataclass
class Phase:
    """Outcome of one closed-loop window."""

    op_s: list[float] = field(default_factory=list)
    ok_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    steplog: StepLog = field(default_factory=StepLog)

    @property
    def attempted(self) -> int:
        return len(self.op_s)


def measure(workload, state, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run operations back to back for about ``seconds``, at least one.

    The next operation starts only if the median one so far still fits in
    the window. An operation fails if it raises or its check finds a problem;
    failures are counted, never dropped.
    """
    phase = Phase()
    patches = Patches()
    phase.steplog.install(patches)
    if tracer is not None:
        tracer.install(patches)
    try:
        window = perf_counter()
        while True:
            phase.steplog.losses = []
            if tracer is not None:
                tracer.op_id += 1
            t0 = perf_counter()
            try:
                if tracer is not None:
                    result = tracer.call("op", workload.op, state, tracer)
                else:
                    result = workload.op(state, None)
                elapsed = perf_counter() - t0
                problems = workload.check(state, result, phase.steplog.losses)
            except Exception:
                elapsed = perf_counter() - t0
                problems = ["raised: " + traceback.format_exc(limit=3).strip()]
            phase.op_s.append(elapsed)
            if problems:
                phase.failed += 1
                phase.problems.extend(problems[:3])
            else:
                phase.ok_s.append(elapsed)
            spent = perf_counter() - window
            if spent + float(np.median(phase.op_s)) > seconds:
                break
    finally:
        patches.restore()
    return phase


class UnbalancedRep:
    """One repetition of the rare-class protocol at its tuned base config."""

    name = "unbalanced-rep"

    def inputs(self, seed: int) -> dict:
        cfg = replace(experiments.unbalanced_base_config(), epochs=UNBALANCED_EPOCHS)
        return {"config": cfg, "seed": seed}

    def setup(self, seed: int, workdir: str) -> dict:
        state = dict(self.inputs(seed), out=os.path.join(workdir, "unbalanced"))
        # Warm-up: every code path of the repetition, for one epoch.
        warm = replace(state["config"], epochs=1)
        experiments.unbalanced_protocol(warm, 1, seed, os.path.join(workdir, "warmup"))
        return state

    def op(self, state: dict, tracer: Tracer | None):
        csv_path = os.path.join(state["out"], "unbalanced.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        args = (state["config"], 1, state["seed"], state["out"])
        if tracer is None:
            experiments.unbalanced_protocol(*args)
        else:
            tracer.call("experiments.unbalanced_protocol", experiments.unbalanced_protocol, *args)
        return csv_path

    def check(self, state: dict, csv_path: str, losses: list[float]) -> list[str]:
        problems = []
        if not losses or not all(map(math.isfinite, losses)):
            problems.append(f"missing or non-finite step loss among {len(losses)}")
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 1:
            return problems + [f"unbalanced.csv has {len(rows)} rows, expected 1"]
        row = {k: float(v) for k, v in rows[0].items()}
        if set(row) != set(experiments.UNBALANCED_COLUMNS):
            return problems + [f"unbalanced.csv columns {sorted(row)}"]
        if not all(map(math.isfinite, row.values())):
            return problems + [f"non-finite value in {row}"]
        for key in ("isd_all", "moco_all", "isd_rare", "moco_rare"):
            if not 0.0 <= row[key] <= 1.0:
                problems.append(f"{key}={row[key]} outside [0, 1]")
        for key in ("isd_all", "moco_all"):
            if row[key] <= CHANCE:
                problems.append(f"{key}={row[key]} not above chance {CHANCE}")
        for kind in ("all", "rare"):
            diff = row[f"isd_{kind}"] - row[f"moco_{kind}"]
            if abs(row[f"diff_{kind}"] - diff) > 1e-12:
                problems.append(f"diff_{kind}={row[f'diff_{kind}']} but isd-moco={diff}")
        return problems


class ByolPlain:
    """``train()`` with BYOL and identity views: no bank, no anchor softmax, no view draws."""

    name = "byol-plain"

    def inputs(self, seed: int) -> dict:
        ds = sd.gen_gaussian_mixture(CLASSES, PER_CLASS, DIM, SEP, seed, split="train")
        cfg = sd.TrainConfig(objective=sd.LossConfig("byol"), epochs=BYOL_EPOCHS,
                             seed_init=seed, seed_data=seed + 1, seed_augment=seed + 2)
        return {"dataset": ds, "config": cfg}

    def setup(self, seed: int, workdir: str) -> dict:
        state = self.inputs(seed)
        sd.train(replace(state["config"], epochs=1), state["dataset"])
        return state

    def op(self, state: dict, tracer: Tracer | None):
        if tracer is None:
            return sd.train(state["config"], state["dataset"])
        return tracer.call("train.train", sd.train, state["config"], state["dataset"])

    def check(self, state: dict, ckpt, losses: list[float]) -> list[str]:
        lo, hi = BYOL_LOSS_RANGE
        expected = BYOL_EPOCHS * -(-len(state["dataset"]) // state["config"].batch_size)
        problems = []
        if len(losses) != expected:
            problems.append(f"{len(losses)} steps, expected {expected}")
        bad = [x for x in losses if not (math.isfinite(x) and lo <= x <= hi)]
        if bad:
            problems.append(f"{len(bad)} losses non-finite or outside [{lo}, {hi}], first {bad[0]}")
        return problems


def _reference_embed(weights: list[np.ndarray], biases: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h / np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)


def _reference_knn(train_e, train_y, test_e, test_y, k: int) -> float:
    order = np.argsort(-(test_e @ train_e.T), axis=1, kind="stable")[:, :k]
    correct = 0
    for row, truth in zip(train_y[order], test_y):
        votes = np.bincount(row)
        top = np.flatnonzero(votes == votes.max())
        correct += int((top[0] if len(top) == 1 else row[0]) == truth)
    return correct / len(test_y)


def _reference_probe(train_e, train_y, test_e, test_y, epochs: int, lr: float) -> float:
    classes = np.unique(train_y)
    onehot = (train_y[:, None] == classes[None, :]).astype(np.float64)
    n = len(train_y)
    w = np.zeros((train_e.shape[1], len(classes)))
    b = np.zeros(len(classes))
    for _ in range(epochs):
        logits = train_e @ w + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        w -= lr * (train_e.T @ g)
        b -= lr * g.sum(axis=0)
    return float(np.mean(classes[np.argmax(test_e @ w + b, axis=1)] == test_y))


def _reference_recall(e, y, ks) -> list[float]:
    sims = e @ e.T
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")
    return [float((y[order[:, :min(k, len(y) - 1)]] == y[:, None]).any(axis=1).mean()) for k in ks]


def eval_reference(ckpt, train_ds, eval_ds, run_cfg) -> dict[tuple[str, str], float]:
    """eval.csv values for one encoder, computed with plain numpy from the weights."""
    enc = ckpt.pair.student_encoder
    ws = [w.data for w in enc.weights]
    bs = [b.data for b in enc.biases]
    tr = _reference_embed(ws, bs, train_ds.as_matrix())
    ev = _reference_embed(ws, bs, eval_ds.as_matrix())
    ref = {("knn", str(run_cfg.eval_k)): _reference_knn(tr, train_ds.labels, ev, eval_ds.labels,
                                                       run_cfg.eval_k),
           ("linear", ""): _reference_probe(tr, train_ds.labels, ev, eval_ds.labels,
                                            run_cfg.probe_epochs, run_cfg.probe_lr)}
    for k, r in zip(run_cfg.recall_ks, _reference_recall(ev, eval_ds.labels, run_cfg.recall_ks)):
        ref[("recall", str(k))] = r
    return ref


class EvalRoundtrip:
    """Save a checkpoint, then ``simdistill eval`` on it in-process; no training."""

    name = "eval-roundtrip"

    def inputs(self, seed: int) -> dict:
        train_ds = sd.gen_gaussian_mixture(CLASSES, PER_CLASS, DIM, SEP, seed, split="train")
        eval_ds = sd.gen_gaussian_mixture(CLASSES, EVAL_PER_CLASS, DIM, SEP, seed, split="eval")
        enc_spec = sd.default_encoder_spec(DIM)
        pair = sd.ModelPair.create(enc_spec, sd.default_predictor_spec(enc_spec.output_dim),
                                   momentum=0.99, seed=seed)
        sgd = sd.SgdState.for_params(pair.student_parameters(), lr=0.01)
        bank = sd.AnchorBank(EVAL_BANK, enc_spec.output_dim)
        rows = np.random.default_rng([seed, 3]).standard_normal((EVAL_BANK, enc_spec.output_dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for start in range(0, EVAL_BANK, 64):
            bank.enqueue(rows[start:start + 64])
        ckpt = sd.Checkpoint(pair=pair, sgd=sgd, bank=bank)
        return {"train": train_ds, "eval": eval_ds, "checkpoint": ckpt}

    def setup(self, seed: int, workdir: str) -> dict:
        state = self.inputs(seed)
        os.makedirs(workdir, exist_ok=True)
        state["train_path"] = os.path.join(workdir, "train.bin")
        state["eval_path"] = os.path.join(workdir, "eval.bin")
        sd.save_dataset(state["train"], state["train_path"])
        sd.save_dataset(state["eval"], state["eval_path"])
        state["ckpt_path"] = os.path.join(workdir, "checkpoint.bin")
        state["out"] = os.path.join(workdir, "eval")
        state["argv"] = ["eval", "--checkpoint", state["ckpt_path"], "--out", state["out"],
                         "--set", f"data_train={state['train_path']}",
                         "--set", f"data_eval={state['eval_path']}"]
        state["reference"] = eval_reference(state["checkpoint"], state["train"], state["eval"],
                                            sd.RunConfig())
        problems = self.check(state, self.op(state, None), [])
        if problems:
            raise RuntimeError(f"eval-roundtrip warm-up failed: {problems}")
        return state

    def op(self, state: dict, tracer: Tracer | None):
        csv_path = os.path.join(state["out"], "eval.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is None:
                sd.save_checkpoint(state["checkpoint"], state["ckpt_path"])
                code = cli.main(state["argv"])
            else:
                tracer.call("checkpoint.save", sd.save_checkpoint, state["checkpoint"],
                            state["ckpt_path"])
                tracer.count("checkpoint.bytes", os.path.getsize(state["ckpt_path"]))
                code = tracer.call("cli.main", cli.main, state["argv"])
        return code, csv_path, stderr.getvalue()

    def check(self, state: dict, result, losses: list[float]) -> list[str]:
        code, csv_path, err = result
        if code != 0:
            return [f"eval exited {code}: {err.strip()[:200]}"]
        with open(csv_path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 12:
            return [f"eval.csv has {len(rows)} rows, expected 12"]
        values: dict[str, dict[tuple[str, str], float]] = {"teacher": {}, "student": {}}
        try:
            for row in rows:
                values[row["source"]][(row["metric"], row["k"])] = float(row["value"])
        except (KeyError, ValueError) as e:
            return [f"eval.csv row unreadable: {e!r}"]
        problems = []
        if values["teacher"] != values["student"]:
            problems.append("teacher rows differ from student rows")
        if set(values["student"]) != set(state["reference"]):
            return problems + [f"eval.csv metrics {sorted(values['student'])}"]
        for key, want in state["reference"].items():
            got = values["student"][key]
            if not abs(got - want) <= EVAL_TOLERANCE:
                problems.append(f"{key}: {got} vs reference {want}")
        return problems


WORKLOADS = {w.name: w for w in (UnbalancedRep(), ByolPlain(), EvalRoundtrip())}
