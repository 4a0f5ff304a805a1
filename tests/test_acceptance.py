"""Acceptance criteria, one test per criterion, each printing a verdict line.

Numbered lines go to the real terminal (bypassing capture) so a full run
shows the verdict of every criterion at its stated tolerance.
"""

import csv
import os
import time

import numpy as np
import pytest

import simdistill.tensor as T
from oracles import graph_ops as G
from oracles import tape
from oracles.tape import Tensor
from simdistill.bank import AnchorBank
from simdistill.cli import main
from simdistill.config import RunConfig
from simdistill.data import gen_gaussian_mixture
from simdistill.evaluation import embed_dataset, knn_eval
from simdistill.experiments import (TEMPERATURE_GRID, ablation_base_config,
                                    temperature_sweep, unbalanced_base_config,
                                    unbalanced_protocol)
from simdistill.losses import (anchor_cross_entropy_batch, anchor_distribution_batch,
                               byol_loss_batch, distribution_entropy, isd_loss_batch,
                               moco_loss_batch)
from simdistill.nn import MlpSpec, ModelPair, default_predictor_spec, ema_update, init_params
from simdistill.train import train


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion1GradientCorrectness:
    def test_grad_check_all_losses(self, capsys):
        """Max relative gradient error < 1e-5 over a d x n grid, in under a minute."""
        started = time.perf_counter()
        rng = np.random.default_rng(100)
        worst = 0.0
        instances = 0
        for d in (4, 8, 16):
            for n in (4, 16, 64):
                q_t = rng.standard_normal((1, d))
                anchors = rng.standard_normal((n, d))
                pos = rng.standard_normal((1, d))

                q = rng.standard_normal((1, d))
                worst = max(worst, T.grad_check(
                    lambda x: isd_loss_batch(q_t, x, anchors, 0.05), q, step=1e-5))
                q = rng.standard_normal((1, d))
                worst = max(worst, T.grad_check(
                    lambda x: moco_loss_batch(x, pos, anchors, 0.05), q, step=1e-5))
                q = rng.standard_normal((1, d))
                worst = max(worst, T.grad_check(
                    lambda x: byol_loss_batch(x, q_t), q, step=1e-5))
                instances += 3
        elapsed = time.perf_counter() - started
        ok = worst < 1e-5 and instances >= 20 and elapsed < 60.0
        report(capsys, 1, ok,
               f"{instances} instances, max rel err {worst:.2e} (< 1e-5), {elapsed:.1f}s")


class TestCriterion2MocoReduction:
    def test_one_hot_substitution_matches(self, capsys):
        """Query-included anchors + one-hot teacher equal the contrastive loss
        in value and student gradient to 1e-10, over 120 random instances."""
        rng = np.random.default_rng(101)
        worst_value, worst_grad = 0.0, 0.0
        for _ in range(120):
            d = int(rng.integers(3, 10))
            n = int(rng.integers(2, 20))
            tau = float(rng.uniform(0.03, 0.5))
            q_values = rng.standard_normal(d)
            pos = rng.standard_normal(d)
            anchors = rng.standard_normal((n, d))

            loss_a, grad_a = moco_loss_batch(q_values[None], pos[None], anchors, tau)

            pos_unit = pos / np.linalg.norm(pos)
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            extended = np.concatenate([pos_unit[None, :], units], axis=0)
            onehot = np.zeros((1, n + 1))
            onehot[0, 0] = 1.0
            loss_b, grad_b = anchor_cross_entropy_batch(onehot, q_values[None], extended, tau)

            worst_value = max(worst_value, abs(loss_a - loss_b))
            worst_grad = max(worst_grad, float(np.abs(grad_a - grad_b).max()))
        ok = worst_value < 1e-10 and worst_grad < 1e-10
        report(capsys, 2, ok,
               f"120 instances, value diff {worst_value:.2e}, grad diff {worst_grad:.2e} (< 1e-10)")


class TestCriterion3KlCrossEntropyEquivalence:
    def test_gradients_agree_values_differ_by_entropy(self, capsys):
        rng = np.random.default_rng(102)
        worst_grad, worst_value = 0.0, 0.0
        for _ in range(50):
            d = int(rng.integers(3, 9))
            n = int(rng.integers(2, 16))
            tau = float(rng.uniform(0.05, 0.5))
            q_t = rng.standard_normal(d)
            q_values = rng.standard_normal(d)
            anchors = rng.standard_normal((n, d))
            units = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
            p_t = anchor_distribution_batch(q_t[None, :], anchors, tau)[0]

            ce, grad_ce = anchor_cross_entropy_batch(p_t[None], q_values[None], anchors, tau)

            q_kl = Tensor.parameter(q_values.copy())
            logits = tape.mul(G.matmul(Tensor(units), G.l2_normalize(q_kl)), 1.0 / tau)
            p_s = G.softmax(logits)
            kl = tape.tensor_sum(tape.mul(Tensor(p_t), G.sub(Tensor(np.log(p_t)), G.log(p_s))))
            tape.backward(kl)

            h_t = float(distribution_entropy(p_t))
            worst_value = max(worst_value, abs(ce - kl.item() - h_t))
            worst_grad = max(worst_grad, float(np.abs(grad_ce[0] - q_kl.grad).max()))
        ok = worst_grad < 1e-10 and worst_value < 1e-10
        report(capsys, 3, ok,
               f"50 instances, grad diff {worst_grad:.2e}, (CE - KL) - H(p_t) {worst_value:.2e}")


class TestCriterion4EmaContract:
    def test_frozen_copy_and_closed_form(self, capsys):
        pair = ModelPair.create(MlpSpec((4, 8, 3), final_normalize=True),
                                default_predictor_spec(3, 4), 1.0, seed=5)
        before = [p.data.copy() for p in pair.teacher_encoder.parameters()]
        rng = np.random.default_rng(103)
        for _ in range(1000):
            for s in pair.student_encoder.parameters():
                s.data += rng.normal(0, 0.01, size=s.data.shape)
            ema_update(pair)
        frozen_ok = all(np.array_equal(p.data, b)
                        for p, b in zip(pair.teacher_encoder.parameters(), before))

        pair.momentum = 0.0
        ema_update(pair)
        copy_ok = all(np.array_equal(t.data, s.data)
                      for t, s in zip(pair.teacher_encoder.parameters(),
                                      pair.student_encoder.parameters()))

        pair.momentum = 0.999
        t0 = pair.teacher_encoder.weights[0]
        s0 = pair.student_encoder.weights[0]
        t0.data[...] = 0.0
        s0.data[...] = 1.0
        ema_update(pair)
        scalar_err = float(np.abs(t0.data - 0.001).max())

        ok = frozen_ok and copy_ok and scalar_err < 1e-15
        report(capsys, 4, ok,
               f"m=1 bitwise over 1000 steps: {frozen_ok}; m=0 copies: {copy_ok}; "
               f"m=0.999 scalar err {scalar_err:.1e} (< 1e-15)")


class TestCriterion5BankOracle:
    def test_thousand_random_scripts(self, capsys):
        rng = np.random.default_rng(104)
        mismatches = 0
        for _ in range(1000):
            capacity = int(rng.integers(1, 16))
            d = int(rng.integers(2, 6))
            bank = AnchorBank(capacity, d)
            oracle: list[np.ndarray] = []
            for _ in range(int(rng.integers(1, 25))):
                if oracle and rng.random() < 0.3:
                    if not np.array_equal(bank.snapshot(), np.stack(oracle)):
                        mismatches += 1
                else:
                    rows = rng.standard_normal((int(rng.integers(1, capacity + 1)), d))
                    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                    bank.enqueue(rows)
                    oracle.extend(np.array(r) for r in rows)
                    oracle = oracle[-capacity:]
            if oracle and not np.array_equal(bank.snapshot(), np.stack(oracle)):
                mismatches += 1
        report(capsys, 5, mismatches == 0,
               f"1000 scripts against the list FIFO oracle, {mismatches} mismatches")


def nearest_centroid_accuracy(train_ds, eval_ds) -> float:
    """Raw-feature nearest-class-centroid accuracy: class means from the
    train split, each eval sample scored by its Euclidean-nearest mean."""
    x, y = train_ds.as_matrix(), train_ds.labels
    classes = np.unique(y)
    centroids = np.stack([x[y == c].mean(axis=0) for c in classes])
    dists = ((eval_ds.as_matrix()[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float(np.mean(classes[dists.argmin(axis=1)] == eval_ds.labels))


class TestCriterion6TrainingSanity:
    @pytest.mark.slow
    def test_isd_beats_random_init_by_25_points(self, capsys):
        """Pinned corpus: 10-class mixture, d=32, sep=3.0, seed 7, 200/50 per
        class; ISD at tau=0.1, bank 1024, momentum 0.97, lr 0.05 cosine,
        aggressive views, 200 epochs.

        The baseline is the student's own init, frozen. Before training the
        test measures the corpus's ceiling, raw-feature nearest-class-centroid
        accuracy, and requires ceiling - baseline >= 25 points, so a saturated
        corpus fails as a fault of the test and not of training. Measured:
        ceiling 0.886, random-init 0.592 (headroom +29.4), trained 0.856,
        gain +26.4 points in about 50 s. The slack over the margin is
        1.4 points, 7 of 500 eval samples; corpus seeds 8 and 11 give +27.0
        and +25.0 (exactly on the margin) with the same recipe. At tau=0.04
        this corpus gains only +4.2 points: sharp tau degrades the student at
        desk scale.

        The previous pin, 3 classes at sep 6, measured 1.000 both for the
        ceiling and for random init, so no training could show a margin.
        Over seed-7 3-class corpora at sep 1.0-4.0 the most headroom is
        26.7 points (sep 1.5), where this recipe gains +13.3.
        """
        started = time.perf_counter()
        tr = gen_gaussian_mixture(10, 200, 32, 3.0, seed=7, split="train")
        ev = gen_gaussian_mixture(10, 50, 32, 3.0, seed=7, split="eval")
        cfg = RunConfig(objective="isd", temperature=0.1, momentum=0.97,
                        bank_capacity=1024, batch_size=64, epochs=200, lr=0.05,
                        lr_schedule="cosine", teacher_policy="aggressive",
                        student_policy="aggressive", eval_every=1000)

        ceiling = nearest_centroid_accuracy(tr, ev)
        baseline_enc = init_params(MlpSpec((32, 256, 128, 64), final_normalize=True),
                                   [cfg.seed_init, 0])
        baseline = knn_eval(embed_dataset(baseline_enc, tr),
                            embed_dataset(baseline_enc, ev), 5)
        headroom = ceiling - baseline
        if headroom < 0.25:
            report(capsys, 6, False,
                   f"corpus has no headroom: nearest-centroid ceiling {ceiling:.3f} "
                   f"- random-init {baseline:.3f} = {headroom * 100:+.1f} points "
                   f"(needs >= +25); the corpus is saturated, training was not run")
        ckpt = train(cfg, tr)
        trained = knn_eval(embed_dataset(ckpt.pair.student_encoder, tr),
                           embed_dataset(ckpt.pair.student_encoder, ev), 5)
        elapsed = time.perf_counter() - started

        gain = trained - baseline
        ok = gain >= 0.25 and elapsed < 300.0
        report(capsys, 6, ok,
               f"ceiling {ceiling:.3f}, random-init {baseline:.3f} -> trained "
               f"{trained:.3f}, gain {gain * 100:+.1f} points (needs >= +25), "
               f"{elapsed:.0f}s (< 300s)")


class TestCriterion7UnbalancedDirectional:
    @pytest.mark.slow
    def test_rare_class_gain_over_ten_repetitions(self, capsys, tmp_path):
        """Mean rare-class (distillation - contrastive) k-NN gain is
        non-negative and exceeds the all-class gain in at least 6/10 reps."""
        rows = unbalanced_protocol(unbalanced_base_config(), reps=10, seed=1,
                                   out_dir=str(tmp_path / "unbalanced"))
        mean_rare = float(np.mean([r["diff_rare"] for r in rows]))
        mean_all = float(np.mean([r["diff_all"] for r in rows]))
        bigger = sum(r["diff_rare"] >= r["diff_all"] for r in rows)
        per_seed = " ".join(f"{r['diff_rare']:+.3f}" for r in rows)
        ok = mean_rare >= 0.0 and bigger >= 6
        report(capsys, 7, ok,
               f"mean rare diff {mean_rare:+.4f} (>= 0), mean all diff {mean_all:+.4f}, "
               f"rare >= all in {bigger}/10 reps (needs >= 6); per-seed rare diffs: {per_seed}")


class TestCriterion8TemperatureAblation:
    @pytest.mark.slow
    def test_sweep_emits_a_non_flat_curve(self, capsys, tmp_path):
        rows = temperature_sweep(ablation_base_config(), TEMPERATURE_GRID,
                                 str(tmp_path / "ablate"))
        accs = [r["student_knn"] for r in rows]
        spread = (max(accs) - min(accs)) * 100
        peak = int(np.argmax(accs))
        interior = 0 < peak < len(accs) - 1
        curve = " ".join(f"{t}:{a:.3f}" for t, a in zip(TEMPERATURE_GRID, accs))
        ok = len(rows) == len(TEMPERATURE_GRID) and spread > 1.0
        report(capsys, 8, ok,
               f"one row per tau ({len(rows)}), spread {spread:.1f} points (> 1); "
               f"peak at tau={TEMPERATURE_GRID[peak]} "
               f"({'interior' if interior else 'edge'}, reported); curve {curve}")


class TestCriterion9TeacherStudentTracking:
    def test_metrics_track_both_networks(self, capsys, tmp_path):
        """Both k-NN series are present and finite at every eval epoch; whether
        the teacher leads before the LR decay is reported, not asserted."""
        tr = gen_gaussian_mixture(3, 120, 16, 2.0, seed=9, split="train")
        ev = gen_gaussian_mixture(3, 40, 16, 2.0, seed=9, split="eval")
        path = str(tmp_path / "metrics.csv")
        cfg = RunConfig(objective="isd", temperature=0.04, momentum=0.97,
                        bank_capacity=128, batch_size=32, epochs=30, lr=0.05,
                        lr_schedule="step",
                        teacher_policy="aggressive", student_policy="aggressive",
                        eval_every=5)
        train(cfg, tr, ev, metrics_path=path)
        with open(path) as f:
            eval_rows = [r for r in csv.DictReader(f) if r["teacher_knn"] != ""]
        epochs_seen = [int(r["epoch"]) for r in eval_rows]
        teacher = [float(r["teacher_knn"]) for r in eval_rows]
        student = [float(r["student_knn"]) for r in eval_rows]
        pre_decay = [t >= s for r, t, s in zip(eval_rows, teacher, student)
                     if int(r["epoch"]) < int(0.7 * 30)]
        ok = (epochs_seen == [0, 5, 10, 15, 20, 25, 29]
              and all(np.isfinite(teacher)) and all(np.isfinite(student)))
        report(capsys, 9, ok,
               f"eval epochs {epochs_seen}, both series finite; teacher >= student "
               f"in {sum(pre_decay)}/{len(pre_decay)} pre-decay evals (reported)")


class TestCriterion10Determinism:
    def test_identical_seeds_reproduce_bitwise(self, capsys, tmp_path):
        args = ["--set", "epochs=3", "--set", "bank_capacity=32", "--set", "batch_size=8",
                "--set", "encoder_widths=8,16,4", "--set", "eval_every=1",
                "--set", "data_classes=2", "--set", "data_per_class=16",
                "--set", "data_eval_per_class=8", "--set", "data_dim=8",
                "--set", "data_sep=2.0", "--seed", "5"]
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["train", "--out", out_a, *args]) == 0
        assert main(["train", "--out", out_b, *args]) == 0
        same = {}
        for name in ("checkpoint.bin", "metrics.csv", "resolved.cfg"):
            same[name] = (open(os.path.join(out_a, name), "rb").read()
                          == open(os.path.join(out_b, name), "rb").read())
        ok = all(same.values())
        report(capsys, 10, ok, f"bitwise-identical artifacts across two runs: {same}")
