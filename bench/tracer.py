"""Spans around calls into each simdistill module, recorded from outside the package.

``from .x import y`` binds ``y`` in the calling module, so every wrapper is
installed on the name the caller looks up (``simdistill.train.augment``, not
``simdistill.augment.augment``). :class:`Patches` remembers each original
attribute and puts it back, so a traced run leaves the package as it found it.
"""

from __future__ import annotations

import importlib
import math
from array import array
from time import perf_counter

import numpy as np

from simdistill.bank import AnchorBank
from simdistill.train import Trainer

# The package re-exports a function named ``train``, which hides the module of
# that name as an attribute, so look both modules up by their import path.
train_mod = importlib.import_module("simdistill.train")
experiments_mod = importlib.import_module("simdistill.experiments")


class Patches:
    """Replace attributes of modules and classes; restore them last-in, first-out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, factory) -> bool:
        """Set ``owner.attr`` to ``factory(original)``; skip names the package no longer has."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, factory(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _mlp_role(params, *_args, **_kwargs) -> str:
    # A teacher is non-trainable; the predictor is the only head without a final L2 norm.
    if not params.trainable:
        return "nn.teacher_forward"
    if not params.spec.final_normalize:
        return "nn.predictor_forward"
    return "nn.student_forward"


# (owner, attribute, span name or a function of the call's arguments giving one)
WRAP_POINTS = [
    (Trainer, "step", "train.step"),
    (Trainer, "prefill", "train.prefill"),
    (train_mod, "augment", "augment"),
    (train_mod, "mlp_forward", _mlp_role),
    (train_mod, "isd_loss_batch", "losses.isd"),
    (train_mod, "moco_loss_batch", "losses.moco"),
    (train_mod, "byol_loss_batch", "losses.byol"),
    (train_mod, "distribution_entropy", "losses.entropy"),
    (train_mod, "backward", "tensor.backward"),
    (train_mod, "sgd_step", "nn.sgd_step"),
    (train_mod, "ema_update", "nn.ema_update"),
    (train_mod, "embed_dataset", "evaluation.embed"),
    (train_mod, "knn_eval", "evaluation.knn"),
    (AnchorBank, "snapshot", "bank.snapshot"),
    (AnchorBank, "enqueue", "bank.enqueue"),
    (experiments_mod, "train", "train.train"),
    (experiments_mod, "gen_gaussian_mixture", "data.gen"),
    (experiments_mod, "make_unbalanced", "data.make_unbalanced"),
    (experiments_mod, "load_dataset", "data.load_dataset"),
    (experiments_mod, "load_checkpoint", "checkpoint.load"),
    (experiments_mod, "embed_dataset", "evaluation.embed"),
    (experiments_mod, "knn_eval", "evaluation.knn"),
    (experiments_mod, "linear_probe", "evaluation.probe"),
    (experiments_mod, "recall_at_k", "evaluation.recall"),
]

# Graph size is fixed by the objective and the layer widths, so sampling one
# backward call in this many keeps the count's cost out of the step times.
GRAPH_SAMPLE_EVERY = 50


def graph_nodes(loss) -> int:
    """Nodes of the differentiation graph reachable from ``loss``."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in getattr(node, "parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Spans (name, start, end, parent, operation id) kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._open: list[int] = []
        self.op_id = -1
        self.counters: dict[str, list[float]] = {}
        self._backward_calls = 0

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self.op_id)
        self.end.append(math.nan)
        self._open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(float(value))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; for calls the benchmark makes itself."""
        i = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.finish(i)

    def _wrapper(self, name, fn):
        begin, finish = self.begin, self.finish
        role = name if callable(name) else None

        def wrapped(*args, **kwargs):
            i = begin(role(*args, **kwargs) if role else name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        wrapped.__wrapped__ = fn
        return wrapped

    def _counted(self, name, fn):
        wrapped = self._wrapper(name, fn)
        if name == "bank.snapshot":
            def snapshot(*args, **kwargs):
                out = wrapped(*args, **kwargs)
                self.count("bank.snapshot_rows", out.data.shape[0])
                return out
            return snapshot
        if name == "tensor.backward":
            def backward(loss, *args, **kwargs):
                if self._backward_calls % GRAPH_SAMPLE_EVERY == 0:
                    self.count("tensor.graph_nodes", graph_nodes(loss))
                self._backward_calls += 1
                return wrapped(loss, *args, **kwargs)
            return backward
        return wrapped

    def install(self, patches: Patches) -> None:
        for owner, attr, name in WRAP_POINTS:
            patches.wrap(owner, attr, lambda fn, name=name: self._counted(name, fn))

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another in this single-threaded
    program, so the time they cover is the sum of their durations.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


# Every direct child of a train.step span lands in exactly one of these, so
# the per-step metrics plus train.step_self_ms add up to train.step_ms.
STEP_CHILDREN = {
    "augment": "augment.ms_per_step",
    "nn.teacher_forward": "nn.teacher_forward_ms",
    "nn.student_forward": "nn.student_forward_ms",
    "nn.predictor_forward": "nn.predictor_forward_ms",
    "nn.sgd_step": "nn.sgd_step_ms",
    "nn.ema_update": "nn.ema_update_ms",
    "tensor.backward": "tensor.backward_ms",
    "losses.isd": "losses.isd_ms",
    "losses.moco": "losses.moco_ms",
    "losses.entropy": "losses.entropy_ms",
    "losses.byol": "losses.byol_ms",
    "bank.snapshot": "bank.snapshot_ms",
    "bank.enqueue": "bank.enqueue_ms",
}

# Spans reported per operation, as total duration in ms per operation.
PER_OP = {
    "data.gen": "data.gen_ms",
    "data.make_unbalanced": "data.make_unbalanced_ms",
    "data.load_dataset": "data.load_dataset_ms",
    "evaluation.embed": "evaluation.embed_ms",
    "evaluation.knn": "evaluation.knn_ms",
    "evaluation.probe": "evaluation.probe_ms",
    "evaluation.recall": "evaluation.recall_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
}

# Spans whose own time (not their children's) is reported per operation.
SELF_PER_OP = {
    "experiments.unbalanced_protocol": "experiments.self_ms",
    "cli.main": "cli.self_ms",
}


def layer_metrics(names: list[str], spans: dict[str, np.ndarray], counters: dict,
                  n_ops: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics and a per-span-name table of calls, total and self ms.

    Per-step metrics divide by every traced step, whatever its objective, so
    that they add up; the table keeps the raw totals.
    """
    start, end, parent, ids = spans["start"], spans["end"], spans["parent"], spans["name_id"]
    index = {name: i for i, name in enumerate(names)}

    def named(*wanted: str) -> np.ndarray:
        return np.isin(ids, [index[n] for n in wanted if n in index])

    dur_ms = (end - start) * 1e3
    self_ms = self_times(start, end, parent) * 1e3
    ops = max(n_ops, 1)

    table = {name: {"calls": int(sel.sum()), "total_ms": float(dur_ms[sel].sum()),
                    "self_ms": float(self_ms[sel].sum())}
             for name, sel in ((name, named(name)) for name in names)}

    is_step = named("train.step")
    per_step = max(int(is_step.sum()), 1)
    in_step = np.isin(parent, np.flatnonzero(is_step))

    m: dict[str, float] = {}
    m["train.step_ms"] = float(dur_ms[is_step].sum()) / per_step
    m["train.step_self_ms"] = float(self_ms[is_step].sum()) / per_step
    for span_name, metric in STEP_CHILDREN.items():
        m[metric] = float(self_ms[in_step & named(span_name)].sum()) / per_step
    m["augment.calls_per_step"] = float((in_step & named("augment")).sum()) / per_step
    unmapped = in_step & ~named(*STEP_CHILDREN)
    m["_step_unmapped_ms"] = float(self_ms[unmapped].sum()) / per_step

    prefill = named("train.prefill")
    m["train.prefill_ms"] = float(dur_ms[prefill].mean()) if prefill.any() else 0.0
    for span_name, metric in PER_OP.items():
        m[metric] = float(dur_ms[named(span_name)].sum()) / ops
    m["evaluation.embed_calls"] = float(named("evaluation.embed").sum()) / ops
    for span_name, metric in SELF_PER_OP.items():
        m[metric] = float(self_ms[named(span_name)].sum()) / ops

    for name in ("tensor.graph_nodes", "bank.snapshot_rows", "checkpoint.bytes"):
        values = counters.get(name)
        m[name] = float(np.mean(values)) if values else 0.0
    return m, table


def step_residual_ms(m: dict[str, float]) -> float:
    """train.step_ms minus the parts it is split into; zero up to rounding."""
    parts = m["train.step_self_ms"] + m["_step_unmapped_ms"]
    parts += sum(m[metric] for metric in STEP_CHILDREN.values())
    return m["train.step_ms"] - parts
