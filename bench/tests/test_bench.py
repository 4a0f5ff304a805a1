"""Tests of the benchmark itself: span arithmetic, patch hygiene, seeded inputs, failure counting.

    python3 -m pytest bench/tests -q
"""

import math
import os

import numpy as np
import pytest

import simdistill.experiments

import tracer as tr
import workloads as wl


def test_self_time_of_hand_built_tree():
    #   0 [0, 10]
    #   ├─ 1 [1, 4]
    #   └─ 2 [5, 9]
    #      └─ 3 [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    self_t = tr.self_times(start, end, parent)
    np.testing.assert_allclose(self_t, [3.0, 3.0, 3.0, 1.0])
    assert self_t.sum() == pytest.approx(end[0] - start[0])


def test_step_parts_add_up_to_step_time():
    names = ["op", "train.step", "augment", "losses.isd", "tensor.backward"]
    # two steps under one op; the second has no loss span
    spans = {
        "name_id": np.array([0, 1, 2, 3, 4, 1, 2], dtype=np.int32),
        "start": np.array([0.0, 0.000, 0.001, 0.003, 0.004, 0.010, 0.011]),
        "end": np.array([1.0, 0.008, 0.002, 0.004, 0.007, 0.020, 0.015]),
        "parent": np.array([-1, 0, 1, 1, 1, 0, 5], dtype=np.int32),
        "op": np.zeros(7, dtype=np.int32),
    }
    m, table = tr.layer_metrics(names, spans, {}, n_ops=1)
    assert m["train.step_ms"] == pytest.approx((8 + 10) / 2)
    assert m["augment.ms_per_step"] == pytest.approx((1 + 4) / 2)
    assert m["losses.isd_ms"] == pytest.approx(1 / 2)
    assert m["tensor.backward_ms"] == pytest.approx(3 / 2)
    assert m["train.step_self_ms"] == pytest.approx(((8 - 5) + (10 - 4)) / 2)
    assert m["augment.calls_per_step"] == 1.0
    assert tr.step_residual_ms(m) == pytest.approx(0.0, abs=1e-12)
    assert table["op"]["self_ms"] == pytest.approx(1000 - 18)


def _patched_attributes():
    owners = [(owner, attr) for owner, attr, _ in tr.WRAP_POINTS]
    owners += [(wl.Trainer, "step"), (wl.Trainer, "run")]
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners if attr in vars(owner)}


@pytest.fixture(scope="module")
def byol_state(tmp_path_factory):
    return wl.ByolPlain().setup(3, str(tmp_path_factory.mktemp("byol")))


@pytest.fixture(scope="module")
def eval_state(tmp_path_factory):
    return wl.EvalRoundtrip().setup(3, str(tmp_path_factory.mktemp("eval")))


@pytest.mark.parametrize("name", ["byol-plain", "eval-roundtrip"])
def test_traced_run_restores_every_wrapped_attribute(name, byol_state, eval_state):
    state = byol_state if name == "byol-plain" else eval_state
    before = _patched_attributes()
    assert all(attr in vars(owner) for owner, attr, _ in tr.WRAP_POINTS)
    tracer = tr.Tracer()
    phase = wl.measure(wl.WORKLOADS[name], state, 0.0, tracer)
    after = _patched_attributes()
    assert phase.attempted == 1 and phase.failed == 0, phase.problems
    assert before.keys() == after.keys()
    for key, original in before.items():
        assert after[key] is original, key
    recorded = {tracer.names[i] for i in tracer.name_id}
    expected = ({"train.step", "tensor.backward", "nn.student_forward", "losses.byol"}
                if name == "byol-plain" else {"cli.main", "checkpoint.load", "evaluation.probe"})
    assert expected <= recorded


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b))
    if hasattr(a, "samples"):
        return _same(a.samples, b.samples) and _same(a.labels, b.labels)
    if hasattr(a, "pair"):
        pa, pb = a.pair, b.pair
        tensors = zip(pa.student_parameters() + pa.teacher_encoder.parameters(),
                      pb.student_parameters() + pb.teacher_encoder.parameters())
        return all(_same(x.data, y.data) for x, y in tensors) and _same(a.bank.storage,
                                                                         b.bank.storage)
    return a == b


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_determines_inputs(name):
    workload = wl.WORKLOADS[name]
    assert _same(workload.inputs(11), workload.inputs(11))
    assert not _same(workload.inputs(11), workload.inputs(12))


def test_nan_loss_counts_as_failed_operation(byol_state, monkeypatch):
    original = wl.Trainer.__dict__["step"]

    def nan_step(self, batch):
        m = original(self, batch)
        m.loss = math.nan
        return m

    monkeypatch.setattr(wl.Trainer, "step", nan_step)
    phase = wl.measure(wl.WORKLOADS["byol-plain"], byol_state, 0.0)
    assert phase.attempted == 1 and phase.failed == 1
    assert any("non-finite" in p for p in phase.problems)


def test_corrupted_eval_csv_counts_as_failed_operation(eval_state, monkeypatch):
    original = simdistill.experiments.evaluate_checkpoint

    def corrupting(cfg, ckpt_path, out_dir):
        rows = original(cfg, ckpt_path, out_dir)
        path = os.path.join(out_dir, "eval.csv")
        with open(path) as f:
            lines = f.readlines()
        fields = lines[3].split(",")
        fields[2] = "0.5x"
        lines[3] = ",".join(fields)
        with open(path, "w") as f:
            f.writelines(lines)
        return rows

    monkeypatch.setattr(simdistill.experiments, "evaluate_checkpoint", corrupting)
    phase = wl.measure(wl.WORKLOADS["eval-roundtrip"], eval_state, 0.0)
    assert phase.attempted == 1 and phase.failed == 1
    assert phase.problems


def test_raising_operation_counts_as_failed(byol_state, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(wl.sd, "train", broken)
    phase = wl.measure(wl.WORKLOADS["byol-plain"], byol_state, 0.0)
    assert phase.attempted == 1 and phase.failed == 1
    assert "injected" in phase.problems[0]


def test_reference_evaluators_match_library():
    rng = np.random.default_rng(0)
    e = rng.standard_normal((40, 5))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    y = np.repeat(np.arange(4), 10)
    table = wl.sd.EmbeddingTable(e, y)
    assert wl._reference_knn(e, y, e[:12], y[:12], 3) == wl.sd.knn_eval(
        table, wl.sd.EmbeddingTable(e[:12], y[:12]), 3)
    assert wl._reference_recall(e, y, [1, 4]) == wl.sd.recall_at_k(table, [1, 4])
    assert wl._reference_probe(e, y, e, y, 20, 1.0) == wl.sd.linear_probe(table, table, 20, 1.0)
