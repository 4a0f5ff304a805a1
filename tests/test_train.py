"""Tests for the iterative training loop, its contracts, and its oracles."""

import csv
import importlib
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from oracles import anchor_softmax, loss_chain, tape
from simdistill.augment import augment
from simdistill.bank import AnchorBank
from simdistill.checkpoint import load_checkpoint, save_checkpoint
from simdistill.config import RunConfig
from simdistill.data import gen_gaussian_mixture
from simdistill.errors import CheckpointError, ColdStartError, ConfigError, ContractError
from simdistill.evaluation import embed_dataset, knn_eval
from simdistill.losses import distribution_entropy
from simdistill.nn import (MlpParams, MlpSpec, ModelPair, SgdState, default_predictor_spec,
                           init_params, mlp_forward, sgd_step)
from simdistill.tensor import unit_rows
from simdistill.train import MetricsWriter, Trainer, distill, distill_config, train

SMALL_ENCODER = MlpSpec((6, 16, 4), final_normalize=True)


def small_config(objective="isd", **kw):
    base = dict(
        objective=objective,
        temperature=0.1,
        momentum=0.97,
        bank_capacity=32,
        batch_size=8,
        epochs=2,
        lr=0.05,
        encoder_widths=SMALL_ENCODER.layer_widths,
        teacher_policy="aggressive",
        student_policy="aggressive",
        eval_every=1,
    )
    base.update(kw)
    return RunConfig(**base)


def small_dataset(split="train", per_class=20, seed=3):
    return gen_gaussian_mixture(3, per_class, 6, 2.0, seed=seed, split=split)


class TestTrainConfig:
    """The training checks and the learning-rate schedule of the run config."""

    def test_momentum_range(self):
        with pytest.raises(ConfigError):
            small_config(momentum=1.2).validate()

    def test_batch_cannot_exceed_bank(self):
        with pytest.raises(ConfigError):
            small_config(batch_size=64, bank_capacity=32).validate()

    def test_step_schedule_hits_paper_epochs(self):
        """At 200 epochs the 0.7/0.9 fractions decay exactly at 140 and 180."""
        cfg = small_config(epochs=200, lr=0.01, lr_schedule="step")
        assert cfg.lr_at(139) == pytest.approx(0.01)
        assert cfg.lr_at(140) == pytest.approx(0.002)
        assert cfg.lr_at(179) == pytest.approx(0.002)
        assert cfg.lr_at(180) == pytest.approx(0.0004)

    def test_cosine_schedule(self):
        cfg = small_config(epochs=100, lr=0.04, lr_schedule="cosine")
        assert cfg.lr_at(0) == pytest.approx(0.04)
        assert cfg.lr_at(50) == pytest.approx(0.02)
        assert cfg.lr_at(100) == pytest.approx(0.0, abs=1e-12)


class TestHandTracedStep:
    def test_matches_symbolic_oracle(self):
        """One step on a tiny linear pair reproduces a symbolically derived
        trace (loss, every student parameter, the EMA'd teacher).

        Frozen values come from tests/oracles/gen_train_step_fixture.py,
        which rebuilds the step with sympy from first principles.
        """
        enc_spec = MlpSpec((1, 2), final_normalize=True)
        # flat buffers hold w0 then b0, row-major
        student_enc = MlpParams(enc_spec, np.array([0.3, -0.2, 0.0, 0.0]))
        predictor = MlpParams(MlpSpec((2, 2)), np.array([1.0, 0.1, -0.1, 1.0, 0.0, 0.0]))
        teacher = MlpParams(enc_spec, np.array([0.4, 0.1, 0.0, 0.0]), trainable=False)
        pair = ModelPair(student_enc, predictor, teacher, momentum=0.9)
        # the cosine schedule's lr_at(0) is lr exactly
        cfg = RunConfig(objective="isd", temperature=0.5, momentum=0.9,
                        bank_capacity=2, batch_size=1, epochs=1, lr=0.1,
                        lr_schedule="cosine", teacher_policy="none", student_policy="none")
        trainer = Trainer(cfg, input_dim=1, pair=pair)
        trainer.sgd.weight_decay = 0.0
        trainer.bank.enqueue(np.array([[1.0, 0.0], [0.0, 1.0]]))

        metrics = trainer.step(np.array([[0.5]]))

        assert metrics.loss == pytest.approx(0.57645872510857018288, abs=1e-14)
        assert metrics.teacher_entropy == pytest.approx(0.48506154644399303, abs=1e-14)
        assert np.allclose(student_enc.weights[0].data,
                           [[0.31611192584292847612, -0.17583211123560728582]], atol=1e-14)
        assert np.allclose(student_enc.biases[0].data,
                           [0.032223851685856952235, 0.048335777528785428353], atol=1e-14)
        assert np.allclose(predictor.weights[0].data,
                           [[1.0040678624652938232, 0.10765715287584719657],
                            [-0.10271190831019588212, 0.99489523141610186895]], atol=1e-14)
        assert np.allclose(predictor.biases[0].data,
                           [0.0048889622333840773465, 0.0092027524393112044170], atol=1e-14)
        assert np.allclose(teacher.weights[0].data,
                           [[0.39161119258429284761, 0.072416788876439271418]], atol=1e-14)
        # the teacher view was enqueued after the loss, evicting one old row
        assert trainer.bank.count == 2
        assert np.allclose(trainer.bank.snapshot()[-1],
                           [0.97014250014533189408, 0.24253562503633297352], atol=1e-14)


class TestStepContracts:
    def test_zero_lr_keeps_student_and_teacher_fixed(self):
        ds = small_dataset()
        cfg = small_config(lr=0.0)
        trainer = Trainer(cfg, ds.feature_dim)
        trainer.prefill(ds)
        before = [p.data.copy() for p in trainer.pair.student_parameters()]
        teacher_before = [p.data.copy() for p in trainer.pair.teacher_encoder.parameters()]
        for _ in range(3):
            trainer.step(ds.samples[:8])
        for p, b in zip(trainer.pair.student_parameters(), before):
            assert np.array_equal(p.data, b)
        # m*t + (1-m)*t wobbles by ~1 ulp per call; the drift target is the
        # (identical) student, so the teacher is unchanged up to rounding
        for p, b in zip(trainer.pair.teacher_encoder.parameters(), teacher_before):
            assert np.abs(p.data - b).max() < 1e-12

    def test_frozen_teacher_is_bitwise_constant(self):
        ds = small_dataset()
        cfg = small_config(momentum=1.0)
        trainer = Trainer(cfg, ds.feature_dim)
        trainer.prefill(ds)
        before = [p.data.copy() for p in trainer.pair.teacher_encoder.parameters()]
        for _ in range(10):
            trainer.step(ds.samples[:8])
        for p, b in zip(trainer.pair.teacher_encoder.parameters(), before):
            assert np.array_equal(p.data, b)

    def test_cold_start_error(self):
        ds = small_dataset()
        trainer = Trainer(small_config(), ds.feature_dim)
        with pytest.raises(ColdStartError, match="pre-fill"):
            trainer.step(ds.samples[:4])

    @pytest.mark.parametrize("objective", ["isd", "moco"])
    def test_enqueue_happens_strictly_after_the_loss(self, monkeypatch, objective):
        """The bank's unit rows a step scores never contain that step's views: the
        step reads them, calls its loss once and only then enqueues once.

        The loss and ``enqueue`` are wrapped where ``bench/tracer.py`` wraps them,
        on ``simdistill.train`` and on ``AnchorBank``: a step that reached them
        some other way would read 0 ms in ``losses.isd_ms``, ``losses.moco_ms``
        or ``bank.enqueue_ms``."""
        train_mod = importlib.import_module("simdistill.train")
        ds = small_dataset()
        trainer = Trainer(small_config(objective), ds.feature_dim)
        trainer.prefill(ds)

        events = []
        for owner, attr in [(train_mod, "isd_loss_batch"), (train_mod, "moco_loss_batch"),
                            (AnchorBank, "unit_snapshot"), (AnchorBank, "enqueue")]:
            original = vars(owner)[attr]    # the tracer's lookup
            monkeypatch.setattr(owner, attr, lambda *args, attr=attr, original=original:
                                (events.append(attr), original(*args))[1])
        trainer.step(ds.samples[:8])
        assert events == ["unit_snapshot", f"{objective}_loss_batch", "enqueue"]

    def test_teacher_cannot_receive_a_gradient(self):
        """The teacher has no gradient buffer after a step, SGD refuses it, and a
        step whose teacher has gained one raises, with or without ``python -O``."""
        ds = small_dataset()
        trainer = Trainer(small_config(), ds.feature_dim)
        trainer.prefill(ds)
        teacher = trainer.pair.teacher_encoder
        trainer.step(ds.samples[:8])
        assert teacher.grad is None
        with pytest.raises(ContractError, match="non-trainable"):
            sgd_step([teacher], SgdState.for_params([teacher], lr=0.1))
        teacher.grad = np.zeros_like(teacher.data)
        with pytest.raises(ContractError, match="teacher parameter received gradient"):
            trainer.step(ds.samples[:8])

    @pytest.mark.parametrize("objective", ["isd", "moco", "byol"])
    def test_stale_gradients_leave_no_trace(self, objective):
        """Nothing zeroes the gradient buffers, so each step's vjps must write
        every element: with both student buffers filled with NaN before each
        step, the parameters, velocities and losses stay bytewise those of an
        unpoisoned run."""
        ds = small_dataset()
        runs = []
        for poison in (False, True):
            trainer = Trainer(small_config(objective), ds.feature_dim)
            trainer.prefill(ds)
            losses = []
            for start in (0, 8, 16):
                if poison:
                    for net in trainer.networks:
                        net.grad[...] = np.nan
                losses.append(trainer.step(ds.samples[start:start + 8]).loss)
            runs.append((np.float64(losses).tobytes(),
                         [p.data.tobytes() for p in trainer.pair.student_parameters()],
                         [v.tobytes() for v in trainer.sgd.velocities],
                         trainer.pair.teacher_encoder.data.tobytes()))
        assert runs[0] == runs[1]

    def test_byol_needs_no_bank(self):
        ds = small_dataset()
        trainer = Trainer(small_config("byol"), ds.feature_dim)
        m = trainer.step(ds.samples[:8])
        assert np.isfinite(m.loss) and m.teacher_entropy is None
        assert trainer.bank is None

    def test_identity_views_share_one_copy_of_the_batch(self):
        """Under two identity policies a BYOL step hands both networks one copy
        of the batch, leaves the batch's bytes as they were and draws nothing
        from the augment stream."""
        ds = small_dataset()
        trainer = Trainer(small_config("byol", teacher_policy="none", student_policy="none"),
                          ds.feature_dim)
        batch = ds.samples[:8].copy()
        batch[0, 0] = -0.0
        before = batch.tobytes()
        teacher_view, student_view = trainer._views(batch)
        assert teacher_view is student_view and not np.shares_memory(teacher_view, batch)
        state = trainer.rng_augment.bit_generator.state
        trainer.step(batch)
        assert batch.tobytes() == before
        assert trainer.rng_augment.bit_generator.state == state

    def test_shared_identity_view_writes_the_checkpoint_of_one_copy_per_network(
            self, tmp_path, monkeypatch):
        ds = small_dataset()
        cfg = small_config("byol", teacher_policy="none", student_policy="none")
        shared = tmp_path / "shared.bin"
        save_checkpoint(train(cfg, ds), str(shared))

        def one_copy_per_network(self, batch):
            return (self._view(batch, self.teacher_policy),
                    self._view(batch, self.student_policy))

        monkeypatch.setattr(Trainer, "_views", one_copy_per_network)
        separate = tmp_path / "separate.bin"
        save_checkpoint(train(cfg, ds), str(separate))
        assert shared.read_bytes() == separate.read_bytes()

    def test_moco_entropy_is_zero(self):
        ds = small_dataset()
        trainer = Trainer(small_config("moco"), ds.feature_dim)
        trainer.prefill(ds)
        assert trainer.step(ds.samples[:8]).teacher_entropy == 0.0

    def test_one_backward_chains_three_closed_form_calls(self, monkeypatch):
        """For every objective a step calls ``simdistill.train.backward`` once, with
        the objective's gradient on the predictor's output, the predictor's vjp
        and the student encoder's vjp. ``bench/tracer.py`` times that call as
        ``tensor.backward``."""
        train_mod = importlib.import_module("simdistill.train")
        ds = small_dataset()
        for objective in ("isd", "moco", "byol"):
            trainer = Trainer(small_config(objective), ds.feature_dim)
            trainer.prefill(ds)
            forwards, calls = [], []

            def forward(params, x, **kwargs):
                out = mlp_forward(params, x, **kwargs)
                forwards.append((params, out))
                return out

            monkeypatch.setattr(train_mod, "mlp_forward", forward)
            monkeypatch.setattr(train_mod, "backward", lambda *args: calls.append(args))
            trainer.step(ds.samples[:8])
            (teacher, _), (encoder, (_, encoder_vjp)), (predictor, (s_pred, predictor_vjp)) = (
                forwards)
            assert (teacher, encoder, predictor) == (trainer.pair.teacher_encoder,
                                                     trainer.pair.student_encoder,
                                                     trainer.pair.student_predictor)
            (grad, *vjps), = calls
            assert grad.shape == s_pred.shape and vjps == [predictor_vjp, encoder_vjp]

    def test_metrics_stay_finite_with_bounded_entropy(self):
        """Loss is finite every step and H(p_t) never exceeds ln(bank count)."""
        ds = small_dataset()
        trainer = Trainer(small_config(), ds.feature_dim)
        trainer.prefill(ds)
        for _ in range(5):
            m = trainer.step(ds.samples[:8])
            assert np.isfinite(m.loss)
            assert 0.0 <= m.teacher_entropy <= np.log(trainer.bank.count) + 1e-12


class TestRun:
    def test_zero_epochs_checkpoint_equals_initialization(self):
        ds = small_dataset()
        cfg = small_config(epochs=0)
        ckpt = train(cfg, ds)
        fresh = ModelPair.create(SMALL_ENCODER,
                                 default_predictor_spec(4),
                                 cfg.momentum, cfg.seed_init)
        for got, want in zip(ckpt.pair.student_parameters(), fresh.student_parameters()):
            assert np.array_equal(got.data, want.data)
        for t, s in zip(ckpt.pair.teacher_encoder.parameters(),
                        ckpt.pair.student_encoder.parameters()):
            assert np.array_equal(t.data, s.data)
        assert ckpt.step == 0 and ckpt.bank is None

    def test_identical_seeds_give_bitwise_identical_artifacts(self, tmp_path):
        ds = small_dataset()
        ev = small_dataset("eval", per_class=10)
        paths = []
        for tag in ("a", "b"):
            ckpt_path = str(tmp_path / f"{tag}.bin")
            csv_path = str(tmp_path / f"{tag}.csv")
            save_checkpoint(train(small_config(), ds, ev, metrics_path=csv_path), ckpt_path)
            paths.append((ckpt_path, csv_path))
        assert open(paths[0][0], "rb").read() == open(paths[1][0], "rb").read()
        assert open(paths[0][1], "rb").read() == open(paths[1][1], "rb").read()

    def test_different_seed_changes_the_run(self, tmp_path):
        ds = small_dataset()
        a = train(small_config(), ds)
        b = train(small_config(seed_init=9), ds)
        assert not np.array_equal(a.pair.student_encoder.weights[0].data,
                                  b.pair.student_encoder.weights[0].data)

    def test_metrics_csv_structure(self, tmp_path):
        ds = small_dataset()
        ev = small_dataset("eval", per_class=10)
        path = str(tmp_path / "metrics.csv")
        train(small_config(epochs=2, eval_every=1), ds, ev, metrics_path=path)
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(MetricsWriter.COLUMNS)
        step_rows = [r for r in rows[1:] if r[2] != ""]
        eval_rows = [r for r in rows[1:] if r[5] != ""]
        assert len(step_rows) == 2 * 8     # 2 epochs x ceil(60/8) batches
        assert len(eval_rows) == 2
        for r in eval_rows:
            assert np.isfinite(float(r[5])) and np.isfinite(float(r[6]))

    def test_eval_k_is_judged_against_the_train_set_it_is_handed(self):
        """eval_k may exceed data_classes * data_per_class (600 here) when the
        train set handed to the run is larger."""
        ds = gen_gaussian_mixture(3, 201, 6, 2.0, seed=3, split="train")
        ev = small_dataset("eval", per_class=10)
        ckpt = train(small_config(epochs=1, eval_k=601), ds, ev)
        assert ckpt.step == 76      # ceil(603 / 8) steps

    def test_eval_k_above_the_train_set_fails_before_prefill(self, tmp_path):
        """The train set is smaller than eval_k: no metrics file, no prefill, no step."""
        trainer = Trainer(small_config(eval_k=61), 6)
        path = tmp_path / "metrics.csv"
        with pytest.raises(ConfigError, match="eval_k=61 exceeds the 60 samples of the "
                                              "k-NN train set"):
            trainer.run(small_dataset(), small_dataset("eval", per_class=10), str(path))
        assert not path.exists()
        assert trainer.bank.count == 0 and trainer.global_step == 0
        trainer.run(small_dataset())    # no evaluation set: eval_k is not used

    def test_training_lifts_accuracy_over_random_init(self):
        """On a corpus with headroom the trained student clearly beats the
        frozen random-init encoder (measured gain about +17 points)."""
        tr = gen_gaussian_mixture(3, 200, 32, 2.0, seed=7, split="train")
        ev = gen_gaussian_mixture(3, 50, 32, 2.0, seed=7, split="eval")
        cfg = RunConfig(objective="isd", temperature=0.1, momentum=0.97,
                        bank_capacity=256, batch_size=64, epochs=60, lr=0.05,
                        lr_schedule="cosine",
                        teacher_policy="aggressive", student_policy="aggressive",
                        eval_every=1000)
        baseline_enc = init_params(MlpSpec((32, 256, 128, 64), final_normalize=True),
                                   [cfg.seed_init, 0])
        baseline = knn_eval(embed_dataset(baseline_enc, tr), embed_dataset(baseline_enc, ev), 5)
        ckpt = train(cfg, tr)
        trained = knn_eval(embed_dataset(ckpt.pair.student_encoder, tr),
                           embed_dataset(ckpt.pair.student_encoder, ev), 5)
        assert trained >= baseline + 0.10


def _run_cold(script: str, **env) -> str:
    """Run ``script`` in a fresh interpreter, so that its heap history starts cold;
    the child sees no ``MALLOC_*`` or ``GLIBC_TUNABLES`` setting but those in ``env``."""
    base = {k: v for k, v in os.environ.items()
            if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    child_env = dict(base, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are glibc's")
class TestStepBuffersStayOnTheHeap:
    """A Trainer raises glibc's mmap and trim thresholds, so that a step's large
    temporaries are not unmapped and page-faulted back in every step."""

    def test_a_warm_byol_epoch_takes_almost_no_page_faults(self):
        """byol-plain's shape: 8 x 260 samples of 32 dims, batch 64, 33 steps an
        epoch. Without the thresholds a warm step takes about 350 faults."""
        script = ("import resource\n"
                  "from simdistill.config import RunConfig\n"
                  "from simdistill.data import gen_gaussian_mixture\n"
                  "from simdistill.train import Trainer\n"
                  "ds = gen_gaussian_mixture(8, 260, 32, 2.5, seed=5, split='train')\n"
                  "trainer = Trainer(RunConfig(objective='byol', epochs=1), ds.feature_dim)\n"
                  "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "trainer.run(ds)\n"
                  "warm, before = trainer.global_step, faults()\n"
                  "trainer.run(ds)\n"
                  "print((faults() - before) / (trainer.global_step - warm))\n")
        assert float(_run_cold(script)) < 5

    def test_a_hundred_warm_isd_steps_take_a_handful_of_page_faults(self):
        """The reference ISD shape: batch 64, bank 1024, encoder [32, 256, 128, 64].
        No benchmark workload sees this setting (each frees a large block during
        set-up, after which glibc's adaptive threshold keeps the buffers on the heap
        anyway), but in a fresh process a step without it takes about 830 faults."""
        script = ("import resource\n"
                  "from simdistill.config import RunConfig\n"
                  "from simdistill.data import gen_gaussian_mixture\n"
                  "from simdistill.train import Trainer\n"
                  "ds = gen_gaussian_mixture(8, 260, 32, 2.5, seed=5, split='train')\n"
                  "trainer = Trainer(RunConfig(objective='isd'), ds.feature_dim)\n"
                  "trainer.prefill(ds)\n"
                  "batches = [ds.samples[i:i + 64] for i in range(0, 64 * 20, 64)]\n"
                  "for batch in batches:\n"
                  "    trainer.step(batch)\n"
                  "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "before = faults()\n"
                  "for i in range(100):\n"
                  "    trainer.step(batches[i % len(batches)])\n"
                  "print(faults() - before)\n")
        assert int(_run_cold(script)) <= 10

    @pytest.mark.parametrize("env, expected", [
        ({}, "[(-1, 8388608), (-3, 1048576)]"),
        ({"MALLOC_TRIM_THRESHOLD_": "131072"}, "[]"),
        ({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}, "[]"),
    ], ids=["unset", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
    def test_a_user_malloc_setting_wins(self, env, expected):
        """``mallopt`` is called once per process, and not at all under a user's setting."""
        script = ("import ctypes\n"
                  "calls = []\n"
                  "class Libc:\n"
                  "    def __init__(self, name):\n"
                  "        self.mallopt = lambda *args: calls.append(args) or 1\n"
                  "ctypes.CDLL = Libc\n"
                  "from simdistill.train import Trainer\n"
                  "from simdistill.config import RunConfig\n"
                  "Trainer(RunConfig(), 32)\n"
                  "Trainer(RunConfig(), 32)\n"
                  "print(calls)\n")
        assert _run_cold(script, **env).strip() == expected


class TestDistill:
    def _teacher_checkpoint(self, ds, ev, tmp_path):
        cfg = small_config(epochs=4)
        ckpt = train(cfg, ds, ev)
        path = str(tmp_path / "teacher.bin")
        save_checkpoint(ckpt, path)
        return path

    def test_zero_epochs_leaves_student_at_fresh_init(self, tmp_path):
        ds = small_dataset()
        path = self._teacher_checkpoint(ds, None, tmp_path)
        cfg = small_config(epochs=0, momentum=1.0)
        out = distill(cfg, path, ds)
        fresh = ModelPair.create(SMALL_ENCODER,
                                 default_predictor_spec(4),
                                 1.0, cfg.seed_init)
        for got, want in zip(out.pair.student_parameters(), fresh.student_parameters()):
            assert np.array_equal(got.data, want.data)

    def test_teacher_weights_bitwise_preserved(self, tmp_path):
        ds = small_dataset()
        path = self._teacher_checkpoint(ds, None, tmp_path)
        loaded = load_checkpoint(path)
        out = distill(small_config(epochs=3), path, ds)
        for got, want in zip(out.pair.teacher_encoder.parameters(),
                             loaded.pair.teacher_encoder.parameters()):
            assert np.array_equal(got.data, want.data)

    def test_architecture_mismatch_rejected(self, tmp_path):
        ds = small_dataset()
        path = self._teacher_checkpoint(ds, None, tmp_path)
        cfg = small_config(encoder_widths=(6, 8, 4))
        with pytest.raises(CheckpointError):
            distill(cfg, path, ds)

    def test_contradictory_config_rejected(self, tmp_path):
        """The caller's config is validated before distillation forces momentum 1."""
        ds = small_dataset()
        path = self._teacher_checkpoint(ds, None, tmp_path)
        with pytest.raises(ConfigError, match="momentum"):
            distill(small_config(momentum=1.2), path, ds)

    def test_distill_config_forces_frozen_teacher_and_mild_views(self):
        """The settings distill runs with, whatever the caller's config says;
        forcing twice changes nothing, so a replayed resolved.cfg runs alike."""
        cfg = distill_config(small_config(momentum=0.5))
        assert cfg == small_config(momentum=1.0, teacher_policy="mild", student_policy="mild")
        assert distill_config(cfg) == cfg
        with pytest.raises(ConfigError, match="momentum"):
            distill_config(small_config(momentum=1.2))

    def test_mild_views_distill_close_to_the_teacher(self, tmp_path):
        """Frozen-teacher distillation on mild views lands within two k-NN
        points of the aggressive-trained teacher (here it actually wins)."""
        from dataclasses import replace
        tr = gen_gaussian_mixture(3, 200, 32, 2.0, seed=31, split="train")
        ev = gen_gaussian_mixture(3, 50, 32, 2.0, seed=31, split="eval")
        cfg = RunConfig(objective="isd", temperature=0.1, momentum=0.97,
                        bank_capacity=256, batch_size=64, epochs=120, lr=0.05,
                        lr_schedule="cosine", teacher_policy="aggressive",
                        student_policy="aggressive", eval_every=1000)
        path = str(tmp_path / "teacher.bin")
        save_checkpoint(train(cfg, tr), path)

        teacher_enc = load_checkpoint(path).pair.teacher_encoder
        teacher_acc = knn_eval(embed_dataset(teacher_enc, tr), embed_dataset(teacher_enc, ev), 5)

        out = distill(replace(cfg, epochs=60), path, tr)
        student_acc = knn_eval(embed_dataset(out.pair.student_encoder, tr),
                               embed_dataset(out.pair.student_encoder, ev), 5)
        assert student_acc >= teacher_acc - 0.02


class TestMocoReductionEndToEnd:
    def test_matches_independent_infonce_trainer(self):
        """Ten scripted steps of the contrastive objective match a from-scratch
        numpy trainer (hand-derived backprop, own SGD/EMA/queue) to 1e-8."""
        rng = np.random.default_rng(44)
        d_in, hidden, embed, p_hidden = 3, 4, 2, 3
        tau, lr, mom, wd, m_ema = 0.2, 0.05, 0.9, 1e-4, 0.95
        batches = [rng.standard_normal((4, d_in)) for _ in range(10)]
        seed_aug = 77

        cfg = RunConfig(objective="moco", temperature=tau, momentum=m_ema,
                        bank_capacity=8, batch_size=4, epochs=1, lr=lr,
                        lr_schedule="cosine", encoder_widths=(d_in, hidden, embed),
                        teacher_policy="mild", student_policy="mild", seed_augment=seed_aug)
        encoder_spec, _ = cfg.model_specs(d_in)
        pair = ModelPair.create(encoder_spec, default_predictor_spec(embed, hidden=p_hidden),
                                m_ema, cfg.seed_init)
        trainer = Trainer(cfg, d_in, pair=pair)
        trainer.sgd.momentum, trainer.sgd.weight_decay = mom, wd
        policy = trainer.teacher_policy
        assert trainer.student_policy == policy and policy.noise_std > 0
        seed_rows = rng.standard_normal((8, embed))
        seed_rows /= np.linalg.norm(seed_rows, axis=1, keepdims=True)
        trainer.bank.enqueue(seed_rows)
        trainer._prefilled = True

        # independent state: copies of the initial parameters, own buffers
        W1 = trainer.pair.student_encoder.weights[0].data.copy()
        b1 = trainer.pair.student_encoder.biases[0].data.copy()
        W2 = trainer.pair.student_encoder.weights[1].data.copy()
        b2 = trainer.pair.student_encoder.biases[1].data.copy()
        P1 = trainer.pair.student_predictor.weights[0].data.copy()
        c1 = trainer.pair.student_predictor.biases[0].data.copy()
        P2 = trainer.pair.student_predictor.weights[1].data.copy()
        c2 = trainer.pair.student_predictor.biases[1].data.copy()
        tW1, tb1, tW2, tb2 = W1.copy(), b1.copy(), W2.copy(), b2.copy()
        vel = {name: np.zeros_like(arr) for name, arr in
               [("W1", W1), ("b1", b1), ("W2", W2), ("b2", b2),
                ("P1", P1), ("c1", c1), ("P2", P2), ("c2", c2)]}
        queue = [row.copy() for row in seed_rows]
        aug_rng = np.random.default_rng([seed_aug])

        def rownorm(v):
            return v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)

        def encoder(x, w1, bb1, w2, bb2):
            h1 = x @ w1 + bb1
            h1r = np.maximum(h1, 0.0)
            h2 = h1r @ w2 + bb2
            return h1, h1r, h2, rownorm(h2)

        for step, batch in enumerate(batches):
            qt = augment(batch, policy, aug_rng).reshape(len(batch), -1)
            qs = augment(batch, policy, aug_rng).reshape(len(batch), -1)

            _, _, _, t_emb = encoder(qt, tW1, tb1, tW2, tb2)
            h1, h1r, h2, e = encoder(qs, W1, b1, W2, b2)
            p1 = e @ P1 + c1
            p1r = np.maximum(p1, 0.0)
            p2 = p1r @ P2 + c2
            q = rownorm(p2)

            A = np.stack(queue)
            b = len(batch)
            logits = np.concatenate([(q * t_emb).sum(axis=1, keepdims=True), q @ A.T],
                                    axis=1) / tau
            z = logits - logits.max(axis=1, keepdims=True)
            soft = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            loss = -np.mean((z - np.log(np.exp(z).sum(axis=1, keepdims=True)))[:, 0])

            dlogits = soft / b
            dlogits[:, 0] -= 1.0 / b
            draw = dlogits / tau
            dq = draw[:, :1] * t_emb + draw[:, 1:] @ A
            dp2 = (dq - q * (q * dq).sum(axis=1, keepdims=True)) \
                / np.linalg.norm(p2, axis=1, keepdims=True)
            dc2 = dp2.sum(axis=0)
            dP2 = p1r.T @ dp2
            dp1 = (dp2 @ P2.T) * (p1 > 0)
            dc1 = dp1.sum(axis=0)
            dP1 = e.T @ dp1
            de = dp1 @ P1.T
            dh2 = (de - e * (e * de).sum(axis=1, keepdims=True)) \
                / np.linalg.norm(h2, axis=1, keepdims=True)
            db2 = dh2.sum(axis=0)
            dW2 = h1r.T @ dh2
            dh1 = (dh2 @ W2.T) * (h1 > 0)
            db1 = dh1.sum(axis=0)
            dW1 = qs.T @ dh1

            for name, theta, g in [("W1", W1, dW1), ("b1", b1, db1), ("W2", W2, dW2),
                                   ("b2", b2, db2), ("P1", P1, dP1), ("c1", c1, dc1),
                                   ("P2", P2, dP2), ("c2", c2, dc2)]:
                v = vel[name]
                v *= mom
                v += g + wd * theta
                theta -= lr * v
            for t, s in [(tW1, W1), (tb1, b1), (tW2, W2), (tb2, b2)]:
                t *= m_ema
                t += (1.0 - m_ema) * s
            queue.extend(t_emb)
            queue = queue[-8:]

            metrics = trainer.step(batch)
            assert metrics.loss == pytest.approx(loss, abs=1e-8)

        pairs = [(trainer.pair.student_encoder.weights[0].data, W1),
                 (trainer.pair.student_encoder.biases[0].data, b1),
                 (trainer.pair.student_encoder.weights[1].data, W2),
                 (trainer.pair.student_encoder.biases[1].data, b2),
                 (trainer.pair.student_predictor.weights[0].data, P1),
                 (trainer.pair.student_predictor.biases[0].data, c1),
                 (trainer.pair.student_predictor.weights[1].data, P2),
                 (trainer.pair.student_predictor.biases[1].data, c2),
                 (trainer.pair.teacher_encoder.weights[0].data, tW1),
                 (trainer.pair.teacher_encoder.biases[1].data, tb2)]
        for got, want in pairs:
            assert np.abs(got - want).max() < 1e-8
        assert np.abs(trainer.bank.snapshot() - np.stack(queue)).max() < 1e-12


class TestFusedPathMatchesOracle:
    """Whole training runs through the CLI are byte-identical with the per-op MLP
    graph, the per-op BYOL chain, the row-by-row augment and the per-parameter
    SGD and EMA loops patched in for the fused nodes, the merged generator calls
    and the whole-buffer updates. The ISD and MoCo kernels scale by 1/tau on
    [b, d] blocks rather than on the [b, K] logits of their per-op chains, so
    with those chains, the out-of-place teacher softmax and ``distribution_entropy``
    patched in as well, the runs' metrics agree to a stated tolerance instead."""

    ARGS = ["--set", "epochs=2", "--set", "bank_capacity=32", "--set", "batch_size=16",
            "--set", "encoder_widths=8,24,12", "--set", "eval_every=1",
            "--set", "data_classes=3", "--set", "data_per_class=24",
            "--set", "data_eval_per_class=8", "--set", "data_dim=8", "--set", "data_sep=3.0",
            "--set", "teacher_policy=aggressive", "--set", "student_policy=aggressive"]
    # the rare-class protocol's views (noise, mask and scale) on a bank that wraps
    NOISY_VIEWS = ["--set", "bank_capacity=128", "--set", "batch_size=32",
                   "--set", "data_per_class=40", "--set", "teacher_policy=noisy",
                   "--set", "student_policy=noisy", "--set", "temperature=0.07"]

    @pytest.mark.parametrize("objective, views", [
        ("isd", []), ("moco", []), ("byol", []), ("isd", NOISY_VIEWS), ("moco", NOISY_VIEWS),
    ], ids=["isd", "moco", "byol", "isd-noisy-views", "moco-noisy-views"])
    def test_artifacts_are_byte_identical(self, tmp_path, monkeypatch, objective, views):
        from oracles import augment_per_sample, mlp_graph
        from simdistill.cli import main
        # the package re-exports a function named train, so fetch the modules by path
        train_mod = importlib.import_module("simdistill.train")
        evaluation_mod = importlib.import_module("simdistill.evaluation")

        def run(tag):
            out = tmp_path / tag
            assert main(["train", "--out", str(out), *self.ARGS, *views,
                         "--set", f"objective={objective}"]) == 0
            return [(out / name).read_bytes() for name in ("checkpoint.bin", "metrics.csv")]

        def row_by_row_augment(samples, policy, rng):
            return np.stack([augment_per_sample.augment(x, policy, rng) for x in samples])

        fused = run("fused")
        for module in (train_mod, evaluation_mod):
            monkeypatch.setattr(module, "mlp_forward", mlp_graph.mlp_forward)
        monkeypatch.setattr(train_mod, "sgd_step", mlp_graph.sgd_step)
        monkeypatch.setattr(train_mod, "augment", row_by_row_augment)
        monkeypatch.setattr(train_mod, "byol_loss_batch", chain_byol_loss_batch)
        monkeypatch.setattr(train_mod, "ema_update", mlp_graph.ema_update)
        assert run("oracle") == fused
        if objective == "byol":
            return
        monkeypatch.setattr(train_mod, "isd_loss_batch", chain_isd_loss_batch)
        monkeypatch.setattr(train_mod, "moco_loss_batch", chain_moco_loss_batch)
        # the chains normalise the raw anchor rows at every step, as the step once did
        monkeypatch.setattr(AnchorBank, "unit_snapshot", AnchorBank.snapshot)
        assert_metrics_close(run("chains")[1], fused[1], rtol=1e-9)


def assert_metrics_close(got: bytes, want: bytes, rtol: float) -> None:
    """Two metrics.csv files with the same rows and k-NN scores, whose losses and
    h_pt agree to ``rtol`` relative to max(|want|, 1)."""
    got_rows, want_rows = (list(csv.DictReader(text.decode().splitlines()))
                           for text in (got, want))
    assert len(got_rows) == len(want_rows)
    exact = ("epoch", "step", "lr", "teacher_knn", "student_knn")
    for g, w in zip(got_rows, want_rows):
        assert [g[k] for k in exact] == [w[k] for k in exact]
        for k in ("loss", "h_pt"):
            if w[k]:
                assert abs(float(g[k]) - float(w[k])) <= rtol * max(abs(float(w[k])), 1.0)


def chain_isd_loss_batch(q_t_emb, q_s_pred, anchors, tau):
    """``isd_loss_batch`` with the out-of-place teacher softmax, the entropy of
    ``distribution_entropy`` and the loss and gradient of the per-op chain."""
    p_t = anchor_softmax.anchor_softmax(q_t_emb, unit_rows(anchors), tau)
    return (*tape.value_and_grad(
        lambda q: loss_chain.anchor_cross_entropy_batch(p_t, q, anchors, tau), q_s_pred),
        p_t, distribution_entropy(p_t))


def chain_moco_loss_batch(q_emb, pos_emb, anchors, tau):
    """``moco_loss_batch`` as the loss and gradient of the per-op chain."""
    return tape.value_and_grad(lambda q: loss_chain.moco_loss_batch(q, pos_emb, anchors, tau),
                               q_emb)


def chain_byol_loss_batch(q_s_pred, q_t_emb):
    """``byol_loss_batch`` as the loss and gradient of the per-op chain."""
    return tape.value_and_grad(lambda q: loss_chain.byol_loss_batch(q, q_t_emb), q_s_pred)
