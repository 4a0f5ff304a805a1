"""Tests for the command-line interface and its exit-code contract."""

import csv
import json
import os
import struct

import numpy as np
import pytest

from simdistill.checkpoint import load_checkpoint, save_checkpoint
from simdistill.cli import main
from simdistill.config import RunConfig, load_config, serialize_config

FAST = [
    "--set", "epochs=2", "--set", "bank_capacity=16", "--set", "batch_size=8",
    "--set", "encoder_widths=6,12,4", "--set", "eval_every=1",
    "--set", "data_classes=2", "--set", "data_per_class=12",
    "--set", "data_eval_per_class=6", "--set", "data_dim=6", "--set", "data_sep=2.0",
]


# The protocol keeps 2 classes whole and cuts the others: it needs more than 2.
UNBALANCED_FAST = [
    "--set", "epochs=2", "--set", "bank_capacity=16", "--set", "batch_size=8",
    "--set", "encoder_widths=6,12,4", "--set", "data_classes=4", "--set", "data_per_class=26",
    "--set", "data_eval_per_class=5", "--set", "data_dim=6",
]


def read(directory, name):
    with open(os.path.join(directory, name), "rb") as f:
        return f.read()


def rewrite_header(path, edit):
    """Replace the JSON header of a container file with ``edit(header)``."""
    raw = path.read_bytes()
    n = struct.unpack("<Q", raw[8:16])[0]
    header = edit(raw[16:16 + n])
    path.write_bytes(raw[:8] + struct.pack("<Q", len(header)) + header + raw[16 + n:])


def drop_key(key):
    return lambda h: json.dumps({k: v for k, v in json.loads(h).items() if k != key}).encode()


def set_key(key, value):
    return lambda h: json.dumps({**json.loads(h), key: value}).encode()


def header_edit(edit):
    """A file edit that replaces the container's header with ``edit(header)``."""
    return lambda path: rewrite_header(path, edit)


def negative_last_label(path):
    """Set a dataset container's last label, its last 8 bytes, to -1."""
    raw = path.read_bytes()
    path.write_bytes(raw[:-8] + struct.pack("<q", -1))


def nan_first_sample(path):
    """Set the first feature of a dataset container's first sample to NaN."""
    raw = path.read_bytes()
    start = 16 + struct.unpack("<Q", raw[8:16])[0]
    path.write_bytes(raw[:start] + struct.pack("<d", float("nan")) + raw[start + 8:])


GARBLED = {"not-json": lambda h: b"{bad}", "not-utf8": lambda h: b'"\xff"',
           "not-an-object": lambda h: b"[]"}


def change(mutate):
    """A header edit that applies ``mutate`` to the decoded header in place."""
    def edit(blob):
        header = json.loads(blob)
        mutate(header)
        return json.dumps(header).encode()
    return edit


# Checkpoint headers that parse but do not describe a loadable model. FAST trains a
# 2-layer encoder and predictor, so the last record before the bank is velocity.7.
INCONSISTENT = {
    "encoder-empty": lambda h: h.update(encoder={}),
    "widths-not-int": lambda h: h["encoder"].update(widths=["6", "12", "4"]),
    "sgd-no-momentum": lambda h: h["sgd"].pop("momentum"),
    "velocity-renamed": lambda h: h["buffers"][-2].update(name="velocity.x"),
    "velocity-missing": lambda h: h["buffers"].pop(-2),
    "buffer-shape": lambda h: h["buffers"][0].update(shape=[12, 6]),
    "bank-head": lambda h: h["bank"].update(head=999),
    "bank-count": lambda h: h["bank"].update(count=-5),
}


def gen_data_args(classes, per_class, eval_per_class, dim):
    """The --set arguments of a gen-data corpus."""
    return ["--set", f"data_classes={classes}", "--set", f"data_per_class={per_class}",
            "--set", f"data_eval_per_class={eval_per_class}", "--set", f"data_dim={dim}"]


def run_train(tmp_path, name="run", extra=()):
    out = str(tmp_path / name)
    code = main(["train", "--out", out, *FAST, *extra])
    assert code == 0
    return out


class TestExitCodes:
    def test_missing_config_is_exit_3(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.cfg")])
        assert code == 3
        assert "config not found" in capsys.readouterr().err

    def test_config_not_utf8_is_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"objective=isd\n# caf\xe9 \xff\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 3
        assert "cannot decode config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_bad_override_is_exit_3(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "x"), "--set", "nope=1"]) == 3

    def test_bad_data_file_is_exit_4(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        code = main(["train", "--out", str(tmp_path / "x"), *FAST,
                     "--set", f"data_train={bad}", "--set", f"data_eval={bad}"])
        assert code == 4

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_datasets_of_different_widths_are_exit_3(self, tmp_path, capsys, command):
        """Caught when the files are loaded, not at the first evaluation epoch."""
        for dim in (6, 8):
            assert main(["gen-data", *gen_data_args(2, 12, 6, dim),
                         "--out", str(tmp_path / f"d{dim}")]) == 0
        extra = ["--checkpoint", os.path.join(run_train(tmp_path), "checkpoint.bin")] \
            if command == "eval" else []
        capsys.readouterr()
        out = tmp_path / "x"
        code = main([command, "--out", str(out), *extra, *FAST, "--set", "eval_every=100",
                     "--set", f"data_train={tmp_path}/d6/train.bin",
                     "--set", f"data_eval={tmp_path}/d8/eval.bin"])
        assert code == 3
        assert capsys.readouterr().err == (f"config error: {tmp_path}/d6/train.bin has 6 "
                                           f"features per sample, {tmp_path}/d8/eval.bin has 8\n")
        assert not (out / "metrics.csv").exists()
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "unbalanced", "distill",
                                         "ablate-temperature", "gen-data"])
    def test_eval_k_above_the_synthetic_corpus_is_exit_3_before_any_output(
            self, tmp_path, capsys, command):
        """k-NN needs eval_k training samples; the synthetic corpus holds
        data_classes * data_per_class of them (24 here)."""
        extra = {"eval": ["--checkpoint", str(tmp_path / "c.bin")],
                 "distill": ["--teacher", str(tmp_path / "t.bin")],
                 "unbalanced": ["--reps", "1"]}.get(command, [])
        out = tmp_path / "out"
        code = main([command, "--out", str(out), *extra, *FAST, "--set", "eval_k=25"])
        assert code == 3
        assert capsys.readouterr().err == ("config error: eval_k=25 exceeds the 24 samples of "
                                           "the training corpus (data_classes * data_per_class)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_eval_k_above_a_loaded_corpus_is_exit_3_before_training(self, tmp_path, capsys,
                                                                    command):
        assert main(["gen-data", *gen_data_args(2, 10, 50, 6), "--out", str(tmp_path / "d")]) == 0
        extra = ["--checkpoint", os.path.join(run_train(tmp_path), "checkpoint.bin")] \
            if command == "eval" else []
        capsys.readouterr()
        out = tmp_path / "x"
        code = main([command, "--out", str(out), *extra, *FAST, "--set", "eval_k=21",
                     "--set", f"data_train={tmp_path}/d/train.bin",
                     "--set", f"data_eval={tmp_path}/d/eval.bin"])
        assert code == 3
        assert capsys.readouterr().err == (f"config error: eval_k=21 exceeds the 20 samples "
                                           f"of {tmp_path}/d/train.bin\n")
        assert not (out / "metrics.csv").exists()
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "eval.csv").exists()

    def test_checkpoint_mismatch_is_exit_5(self, tmp_path):
        out = run_train(tmp_path)
        code = main(["distill", "--teacher", os.path.join(out, "checkpoint.bin"),
                     "--out", str(tmp_path / "d"), *FAST,
                     "--set", "encoder_widths=6,10,4",
                     "--set", "momentum=1.0"])
        assert code == 5

    @pytest.mark.parametrize("command,override", [
        ("train", "objective=simclr"), ("train", "temperature=0"),
        ("train", "teacher_policy=bogus"), ("train", "custom_noise_std=-1"),
        ("train", "custom_scale_min=0"), ("train", "predictor_hidden=0"),
        ("train", "lr=nan"), ("distill", "distill_source=both"),
        ("eval", "eval_k=0"), ("eval", "probe_lr=0"), ("eval", "probe_epochs=-1"),
        ("eval", "recall_ks=0"), ("unbalanced", "seed_init=-1"),
        ("ablate-temperature", "eval_every=0"), ("train", "data_eval=eval.bin"),
    ])
    def test_bad_config_value_is_exit_3_before_any_output(self, tmp_path, capsys,
                                                         command, override):
        out = tmp_path / "out"
        extra = {"distill": ["--teacher", str(tmp_path / "t.bin")],
                 "eval": ["--checkpoint", str(tmp_path / "c.bin")]}.get(command, [])
        code = main([command, "--out", str(out), *extra, *FAST, "--set", override])
        assert code == 3
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", [
        ("ablate-temperature", ["--taus", "0.1,0"]),
        ("ablate-temperature", ["--taus", "0.1,x"]),
        ("unbalanced", ["--reps", "0"]),
        ("train", ["--set", "data_train=runs#1/t.bin", "--set", "data_eval=e.bin"]),
        ("gen-data", ["--set", "data_train=t.bin", "--set", "data_eval=e.bin"]),
    ])
    def test_bad_argument_is_exit_3_before_any_output(self, tmp_path, command, extra):
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *extra, *FAST]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("edit", [*GARBLED.values(), drop_key("buffers"),
                                      set_key("buffers", "x"), set_key("epoch", "0")],
                             ids=[*GARBLED, "no-buffers", "buffers-str", "epoch-str"])
    def test_garbled_checkpoint_header_is_exit_5(self, tmp_path, capsys, edit):
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path)
        rewrite_header(path, edit)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        assert "checkpoint error" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", INCONSISTENT.values(), ids=INCONSISTENT)
    def test_inconsistent_checkpoint_header_is_exit_5(self, tmp_path, capsys, mutate):
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path)
        rewrite_header(path, change(mutate))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        assert "checkpoint error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [*map(header_edit, [
                                          *GARBLED.values(), drop_key("n"),
                                          set_key("sample_shape", 6), set_key("split", None),
                                          set_key("sample_shape", [6.0]),
                                          set_key("sample_shape", ["x"]),
                                          set_key("sample_shape", [[2, 3]]),
                                          set_key("sample_shape", [-6])]),
                                      negative_last_label, nan_first_sample],
                             ids=[*GARBLED, "no-n", "shape-int", "split-null", "dim-float",
                                  "dim-str", "dim-list", "dim-negative",
                                  "label-negative", "sample-nan"])
    def test_garbled_dataset_header_is_exit_4(self, tmp_path, capsys, edit):
        """A malformed header or payload is a data error that names the file,
        raised before training writes anything."""
        data = tmp_path / "data"
        assert main(["gen-data", *gen_data_args(2, 12, 6, 6), "--out", str(data)]) == 0
        edit(data / "train.bin")
        capsys.readouterr()
        code = main(["train", "--out", str(tmp_path / "run"), *FAST,
                     "--set", f"data_train={data}/train.bin",
                     "--set", f"data_eval={data}/eval.bin"])
        assert code == 4
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"{data}/train.bin" in err
        assert not (tmp_path / "run" / "metrics.csv").exists()

    @pytest.mark.parametrize("objective,culprit", [("isd", "anchors"), ("moco", "anchors"),
                                                   ("byol", "teacher embeddings")])
    def test_non_finite_teacher_is_exit_4(self, tmp_path, capsys, objective, culprit):
        """One NaN in the teacher's last bias stops distillation with a typed error
        instead of writing NaN losses and an all-NaN student."""
        ckpt = load_checkpoint(os.path.join(run_train(tmp_path), "checkpoint.bin"))
        ckpt.pair.teacher_encoder.biases[-1].data[0] = np.nan
        teacher = str(tmp_path / "nan.bin")
        save_checkpoint(ckpt, teacher)
        capsys.readouterr()
        code = main(["distill", "--teacher", teacher, "--out", str(tmp_path / "d"), *FAST,
                     "--set", f"objective={objective}",
                     "--set", "momentum=1.0"])
        assert code == 4
        assert f"{culprit} contain NaN or Inf" in capsys.readouterr().err

    def test_unreadable_checkpoint_is_exit_5(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5


class TestGenData:
    def test_deterministic_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["gen-data", *gen_data_args(3, 9, 4, 5), "--set", "data_seed=7"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        for name in ("train.bin", "eval.bin"):
            assert (open(os.path.join(a, name), "rb").read()
                    == open(os.path.join(b, name), "rb").read())

    def test_generated_files_feed_training(self, tmp_path):
        data = str(tmp_path / "data")
        assert main(["gen-data", *gen_data_args(2, 12, 6, 6), "--set", "data_seed=3",
                     "--out", data]) == 0
        out = str(tmp_path / "run")
        code = main(["train", "--out", out, *FAST,
                     "--set", f"data_train={data}/train.bin",
                     "--set", f"data_eval={data}/eval.bin"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))

    def test_training_on_the_files_equals_the_synthetic_run(self, tmp_path):
        """gen-data writes the corpus a run of the same config synthesizes."""
        data = str(tmp_path / "data")
        assert main(["gen-data", "--out", data, *FAST]) == 0
        synthetic = run_train(tmp_path, "synthetic")
        assert read(data, "resolved.cfg") == read(synthetic, "resolved.cfg")
        loaded = run_train(tmp_path, "loaded", extra=["--set", f"data_train={data}/train.bin",
                                                      "--set", f"data_eval={data}/eval.bin"])
        for name in ("checkpoint.bin", "metrics.csv"):
            assert read(loaded, name) == read(synthetic, name)

    @pytest.mark.parametrize("flag,value", [("--classes", "3"), ("--per-class", "9"),
                                            ("--eval-per-class", "4"), ("--dim", "5"),
                                            ("--sep", "2.0"), ("--seed", "7")])
    def test_corpus_flags_are_usage_errors(self, tmp_path, flag, value):
        """The corpus is set through data_* fields only; no flag can silently
        write another one."""
        out = tmp_path / "data"
        assert main(["gen-data", flag, value, "--out", str(out)]) == 2
        assert not out.exists()


class TestTrainCommand:
    def test_writes_resolved_config_metrics_and_checkpoint(self, tmp_path):
        out = run_train(tmp_path)
        assert os.path.exists(os.path.join(out, "resolved.cfg"))
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))

    def test_resolved_config_reproduces_the_run(self, tmp_path):
        """Replaying a run's resolved.cfg, with nothing else but the command's
        own arguments, writes the same bytes."""
        runs = [("train", [*FAST], [], ("checkpoint.bin", "metrics.csv")),
                ("unbalanced", [*UNBALANCED_FAST, "--seed", "5"], ["--reps", "1"],
                 ("unbalanced.csv",)),
                ("gen-data", [*FAST], [], ("train.bin", "eval.bin"))]
        for command, settings, args, artifacts in runs:
            out1, out2 = str(tmp_path / command / "one"), str(tmp_path / command / "two")
            assert main([command, "--out", out1, *args, *settings]) == 0
            assert main([command, "--config", os.path.join(out1, "resolved.cfg"),
                         "--out", out2, *args]) == 0
            for name in (*artifacts, "resolved.cfg"):
                assert read(out1, name) == read(out2, name), (command, name)

    def test_seed_flag_sets_all_three_seeds(self, tmp_path):
        out = run_train(tmp_path, extra=["--seed", "41"])
        cfg = load_config(os.path.join(out, "resolved.cfg"))
        assert (cfg.seed_init, cfg.seed_data, cfg.seed_augment) == (41, 42, 43)


class TestEvalCommand:
    def test_emits_all_three_metrics_for_both_networks(self, tmp_path):
        out = run_train(tmp_path)
        eval_out = str(tmp_path / "eval")
        code = main(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--out", eval_out, *FAST, "--set", "recall_ks=1,2",
                     "--set", "probe_epochs=20"])
        assert code == 0
        with open(os.path.join(eval_out, "eval.csv")) as f:
            rows = list(csv.DictReader(f))
        by_source = {}
        for row in rows:
            by_source.setdefault(row["source"], set()).add(row["metric"])
        assert by_source == {"teacher": {"knn", "linear", "recall"},
                             "student": {"knn", "linear", "recall"}}
        for row in rows:
            assert np.isfinite(float(row["value"]))


class TestDistillCommand:
    def test_distill_run_writes_checkpoint(self, tmp_path):
        out = run_train(tmp_path)
        dist_out = str(tmp_path / "dist")
        code = main(["distill", "--teacher", os.path.join(out, "checkpoint.bin"),
                     "--out", dist_out, *FAST,
                     "--set", "momentum=1.0"])
        assert code == 0
        assert os.path.exists(os.path.join(dist_out, "checkpoint.bin"))


class TestAblateCommand:
    def test_one_row_per_temperature(self, tmp_path):
        out = str(tmp_path / "ablate")
        code = main(["ablate-temperature", "--out", out, "--taus", "0.02,0.1", *FAST])
        assert code == 0
        with open(os.path.join(out, "temperature.csv")) as f:
            rows = list(csv.DictReader(f))
        assert [float(r["tau"]) for r in rows] == [0.02, 0.1]
        for r in rows:
            assert np.isfinite(float(r["student_knn"]))

    def test_empty_grid_is_exit_3(self, tmp_path):
        assert main(["ablate-temperature", "--out", str(tmp_path / "x"),
                     "--taus", " ", *FAST]) == 3


class TestUnbalancedCommand:
    def test_csv_shape_and_diff_arithmetic(self, tmp_path):
        """Two repetitions emit two rows whose diff columns recompute exactly."""
        out = str(tmp_path / "unb")
        code = main(["unbalanced", "--reps", "2", "--seed", "1", "--out", out,
                     *UNBALANCED_FAST])
        assert code == 0
        with open(os.path.join(out, "unbalanced.csv")) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert list(rows[0].keys()) == ["isd_all", "moco_all", "isd_rare", "moco_rare",
                                        "diff_all", "diff_rare"]
        for r in rows:
            assert float(r["diff_all"]) == pytest.approx(
                float(r["isd_all"]) - float(r["moco_all"]), abs=1e-12)
            assert float(r["diff_rare"]) == pytest.approx(
                float(r["isd_rare"]) - float(r["moco_rare"]), abs=1e-12)


class TestConfigEcho:
    def test_echo_parses_back_to_the_resolved_config(self, tmp_path):
        out = run_train(tmp_path)
        cfg = load_config(os.path.join(out, "resolved.cfg"))
        assert serialize_config(cfg) == open(os.path.join(out, "resolved.cfg")).read()
        assert isinstance(cfg, RunConfig)
