"""Tests for the command-line interface and its exit-code contract."""

import csv
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import container_file
from simdistill import cli, config, experiments
from simdistill.checkpoint import load_checkpoint, save_checkpoint
from simdistill.cli import main
from simdistill.config import RunConfig, load_config, serialize_config
from simdistill.data import LabeledDataset, load_dataset, save_dataset
from simdistill.train import Trainer

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


def drop_key(key):
    return lambda h: json.dumps({k: v for k, v in json.loads(h).items() if k != key}).encode()


def set_key(key, value):
    return lambda h: json.dumps({**json.loads(h), key: value}).encode()


def header_edit(edit):
    """A file edit that replaces the container's header with ``edit(header)``."""
    return lambda path: container_file.rewrite(path, header=edit)


def poke_payload(path, offset, value):
    """Write the bytes ``value`` at ``offset`` of a container's payload (from its end when
    negative), so the loader's own checks meet the value."""
    def edit(payload):
        payload = bytearray(payload)
        start = offset % len(payload)
        payload[start:start + len(value)] = value
        return bytes(payload)
    container_file.rewrite(path, payload=edit)


def negative_last_label(path):
    """Set a dataset container's last label, its last 8 bytes, to -1."""
    poke_payload(path, -8, struct.pack("<q", -1))


def nan_first_sample(path):
    """Set the first feature of a dataset container's first sample to NaN."""
    poke_payload(path, 0, struct.pack("<d", float("nan")))


GARBLED = {"not-json": lambda h: b"{bad}", "not-utf8": lambda h: b'"\xff"',
           "not-an-object": lambda h: b"[]"}


def change(mutate):
    """A header edit that applies ``mutate`` to the decoded header in place."""
    def edit(blob):
        header = json.loads(blob)
        mutate(header)
        return json.dumps(header).encode()
    return edit


# Checkpoint headers that parse but do not describe a loadable model, each with a
# fragment of its error. FAST trains the encoder [6, 12, 4] and the predictor
# [4, 64, 4]; a [144, 4] predictor has as many parameters (580), so its payload
# length passes and the model pair refuses it.
INCONSISTENT = {
    "encoder-empty": (lambda h: h.update(encoder=[]), "need at least input and output"),
    "widths-not-int": (lambda h: h.update(encoder=["6", "12", "4"]), "integer widths"),
    "width-true": (lambda h: h.update(encoder=[6, True, 4]), "integer widths"),
    "epoch-true": (lambda h: h.update(epoch=True), "'epoch' is missing or has the wrong"),
    "epoch-negative": (lambda h: h.update(epoch=-5), "'epoch' must be non-negative"),
    "step-negative": (lambda h: h.update(step=-1), "'step' must be non-negative"),
    "momentum-true": (lambda h: h.update(momentum=True), "'momentum' is missing or has"),
    "momentum-2": (lambda h: h.update(momentum=2), "momentum must lie in [0, 1], got 2"),
    "predictor-misfit": (lambda h: h.update(predictor=[144, 4]),
                         "predictor input must match encoder embedding dim"),
}


# The one stderr line of a run whose embedding rows overflow float64.
OVERFLOW = ("error: a row's L2 norm overflows float64: its entries are Inf or too large "
            "to square\n")


# Each of the five checkpoint header values is replaced by each of these in turn.
HEADER_VALUES = [True, None, -1, 0, 1.5, "x", [], 2**62]


def loadable(key, value):
    """Whether ``value`` is one a checkpoint's ``key`` can hold: epoch and step
    hold non-negative integers, momentum a number in [0, 1], and no value of
    HEADER_VALUES lists a network's widths."""
    if key in ("epoch", "step"):
        return type(value) is int and value >= 0
    return key == "momentum" and type(value) in (int, float) and 0 <= value <= 1


def eval_rows(directory):
    with open(os.path.join(directory, "eval.csv"), newline="") as f:
        return list(csv.DictReader(f))


def gen_data_args(classes, per_class, eval_per_class, dim):
    """The --set arguments of a gen-data corpus."""
    return ["--set", f"data_classes={classes}", "--set", f"data_per_class={per_class}",
            "--set", f"data_eval_per_class={eval_per_class}", "--set", f"data_dim={dim}"]


def drop_setting(args, key):
    """Flag-value pairs ``args`` without the ``--set key=...`` pair."""
    return [a for flag, value in zip(args[::2], args[1::2])
            if not value.startswith(f"{key}=") for a in (flag, value)]


# Input faults, each as (exit code, --set overrides, --teacher or --checkpoint file),
# with {names} taken from the input_files fixture. The ckpt6 network reads FAST's
# corpus; the ckpt8 network reads 8 features, so FAST cannot use it.
INPUT_FAULTS = {
    "corpus-missing": (4, ["data_train={missing}", "data_eval={eval6}"], "ckpt6"),
    "corpus-garbled": (4, ["data_train={garbage}", "data_eval={eval6}"], "ckpt6"),
    "corpus-widths": (3, ["data_train={train6}", "data_eval={eval8}"], "ckpt6"),
    "eval_k-loaded": (3, ["data_train={train6}", "data_eval={eval6}", "eval_k=200"], "ckpt6"),
    "eval_k-synthetic": (3, ["eval_k=200"], "ckpt6"),
    "encoder-loaded": (3, ["data_train={train6}", "data_eval={eval6}",
                           "encoder_widths=8,12,4"], "ckpt6"),
    "encoder-synthetic": (3, ["encoder_widths=8,12,4"], "ckpt6"),
    "checkpoint-missing": (5, [], "missing"),
    "checkpoint-garbled": (5, [], "garbage"),
    "checkpoint-other-architecture": (5, [], "ckpt8"),
    "eval-split-empty": (3, ["data_train={train6}", "data_eval={eval6empty}"], "ckpt6"),
    "recall-synthetic": (3, ["data_eval_per_class=1"], "ckpt6"),
    "recall-loaded": (3, ["data_train={train6}", "data_eval={eval6single}"], "ckpt6"),
    "probe-one-class": (3, ["data_train={train6class0}", "data_eval={eval6}"], "ckpt6"),
    "corpus-no-features": (3, ["data_train={train0}", "data_eval={eval0}", "encoder_widths="],
                           "ckpt6"),
    "recall-large-label": (3, ["data_train={train6}", "data_eval={eval6biglabel}"], "ckpt6"),
}
# Checkpoint faults apply to the two commands that read a checkpoint. Recall faults
# (an eval class of one sample) and probe faults (a train split of one class) apply
# to eval, the one command that scores recall@k and fits the linear probe.
FAULT_GRID = [(command, fault)
              for command in ("train", "distill", "eval", "ablate-temperature", "unbalanced",
                              "gen-data")
              for fault in INPUT_FAULTS
              if (command in ("distill", "eval") or not fault.startswith("checkpoint"))
              and (command == "eval" or not fault.startswith(("recall", "probe")))]


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

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        """Numpy's overflow and NaN warnings stay off stderr: the run that overflows
        ends with the typed error alone, the line the exit contract allows."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--out", str(tmp_path / "x"), *FAST, "--set", "lr=1e300"])
        assert code == 4
        assert capsys.readouterr().err == OVERFLOW
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_corpus_whose_row_norms_overflow_is_exit_4(self, tmp_path, capsys, command):
        """Samples near 1e300 embed to rows whose squares overflow; scaled to unit
        norm they would be zero rows, which score the loss of a collapsed
        encoder (ln K) and a constant table, so the run stops instead."""
        ckpt = (["--checkpoint", os.path.join(run_train(tmp_path), "checkpoint.bin")]
                if command == "eval" else [])
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *ckpt, "--out", str(tmp_path / "x"), *FAST,
                         "--set", "data_sep=1e300"])
        assert code == 4
        assert capsys.readouterr().err == OVERFLOW
        assert [str(w.message) for w in caught] == []

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
        assert not out.exists()

    @staticmethod
    def rare_classes(command):
        """FAST's 2 classes leave unbalanced no rare class; 4 classes of 6 keep its 24 samples."""
        return ["--set", "data_classes=4", "--set", "data_per_class=6"] \
            if command == "unbalanced" else []

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
        code = main([command, "--out", str(out), *extra, *FAST, *self.rare_classes(command),
                     "--set", "eval_k=25"])
        assert code == 3
        assert capsys.readouterr().err == ("config error: eval_k=25 exceeds the 24 samples of "
                                           "the synthetic corpus of the data_* fields\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "unbalanced", "distill",
                                         "ablate-temperature", "gen-data"])
    def test_encoder_that_cannot_read_the_synthetic_corpus_is_exit_3_before_any_output(
            self, tmp_path, capsys, command):
        """A set encoder_widths must start at data_dim (6 here) unless data_train is set."""
        extra = {"eval": ["--checkpoint", str(tmp_path / "c.bin")],
                 "distill": ["--teacher", str(tmp_path / "t.bin")],
                 "unbalanced": ["--reps", "1"]}.get(command, [])
        out = tmp_path / "out"
        code = main([command, "--out", str(out), *extra, *FAST, *self.rare_classes(command),
                     "--set", "encoder_widths=8,12,4"])
        assert code == 3
        assert capsys.readouterr().err == ("config error: encoder input width 8 does not match "
                                           "the 6 features per sample of the synthetic corpus "
                                           "of the data_* fields\n")
        assert not out.exists()

    def test_encoder_that_cannot_read_a_loaded_corpus_is_exit_3_before_training(self, tmp_path,
                                                                                 capsys):
        """With data_train set, the width is checked once the file is loaded."""
        assert main(["gen-data", *gen_data_args(2, 10, 5, 6), "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        out = tmp_path / "x"
        code = main(["train", "--out", str(out), *FAST, "--set", "encoder_widths=8,12,4",
                     "--set", f"data_train={tmp_path}/d/train.bin",
                     "--set", f"data_eval={tmp_path}/d/eval.bin"])
        assert code == 3
        assert capsys.readouterr().err == ("config error: encoder input width 8 does not match "
                                           f"the 6 features per sample of {tmp_path}/d/train.bin\n")
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
        assert not out.exists()

    def test_checkpoint_mismatch_is_exit_5(self, tmp_path):
        out = run_train(tmp_path)
        code = main(["distill", "--teacher", os.path.join(out, "checkpoint.bin"),
                     "--out", str(tmp_path / "d"), *FAST,
                     "--set", "encoder_widths=6,10,4",
                     "--set", "momentum=1.0"])
        assert code == 5

    @pytest.mark.parametrize("command,override", [
        ("train", "objective=simclr"), ("train", "temperature=0"),
        ("train", "temperature=1e-320"),
        ("train", "teacher_policy=bogus"), ("train", "student_policy=custom"),
        ("train", "lr=nan"), ("distill", "momentum=2"),
        ("eval", "eval_k=0"), ("eval", "probe_lr=0"), ("eval", "probe_epochs=-1"),
        ("eval", "recall_ks=0"), ("unbalanced", "seed_init=-1"),
        ("ablate-temperature", "eval_every=0"), ("train", "data_eval=eval.bin"),
        ("train", "lr_schedule=linear"), ("unbalanced", "momentum=-1"),
        ("unbalanced", "data_seed=-1"),
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

    @pytest.mark.parametrize("override", [
        f"data_dim={2**62}", f"data_classes={2**62}", f"data_per_class={2**62}",
        f"data_eval_per_class={2**62}", f"bank_capacity={2**62}",
        # an embedding width the encoder holds but the 64-wide predictor head does not
        f"encoder_widths=6,1,{2**56}",
    ], ids=["data_dim", "data_classes", "data_per_class", "data_eval_per_class",
            "bank_capacity", "predictor"])
    @pytest.mark.parametrize("command,args", [
        ("train", FAST),
        ("ablate-temperature", ["--taus", "0.1", *FAST]),
        ("unbalanced", ["--reps", "1", *UNBALANCED_FAST]),
    ], ids=["train", "ablate-temperature", "unbalanced"])
    def test_impossible_size_is_exit_3_before_any_output(self, tmp_path, capsys, command,
                                                         args, override):
        """A size of 2**62 implies a corpus, network or bank whose byte size numpy
        cannot index: a config error before anything is allocated or written."""
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *args, "--set", override]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.endswith("numpy can index\n")
        assert ("the predictor needs" in err) == override.startswith("encoder_widths")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("capacity,code", [("4", 0), ("0", 3)])
    def test_byol_bank_capacity_need_only_be_positive(self, tmp_path, capsys, capacity, code):
        """BYOL keeps no anchors: a bank smaller than the batch of 8 trains, and a
        bank of no rows is a config error before any output."""
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), *FAST, "--set", "objective=byol",
                     "--set", f"bank_capacity={capacity}"]) == code
        assert out.exists() == (code == 0)
        assert ("config error" in capsys.readouterr().err) == (code == 3)

    @pytest.mark.parametrize("command,extra", [
        ("ablate-temperature", ["--taus", "0.1,0"]),
        ("ablate-temperature", ["--taus", "0.1,x"]),
        ("unbalanced", ["--reps", "0"]),
        ("train", ["--set", "data_train=runs#1/t.bin", "--set", "data_eval=e.bin"]),
        ("gen-data", ["--set", "data_train=t.bin", "--set", "data_eval=e.bin"]),
        ("unbalanced", ["--reps", "1"]),    # FAST's 2 classes leave no rare class
        ("ablate-temperature", ["--taus", "0.1,1e-320"]),
    ])
    def test_bad_argument_is_exit_3_before_any_output(self, tmp_path, command, extra):
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *extra, *FAST]) == 3
        assert not out.exists()

    def test_unbalanced_with_too_few_samples_per_class_is_exit_3_before_any_output(
            self, tmp_path, capsys):
        """The protocol keeps at least 2 samples of each rare class."""
        out = tmp_path / "out"
        code = main(["unbalanced", "--reps", "1", "--out", str(out), *UNBALANCED_FAST,
                     "--set", "data_per_class=1", "--set", "eval_k=1"])
        assert code == 3
        assert "config error: data_per_class=1 is too few" in capsys.readouterr().err
        assert not out.exists()

    def test_unbalanced_with_a_bad_data_seed_is_exit_3_before_any_output(self, tmp_path,
                                                                         capsys):
        """Each repetition replaces data_seed, so the protocol checks the value as
        given before it writes anything. FAST's 2 classes would stop the run at the
        rare-class check first, so this case uses a corpus that has rare classes."""
        out = tmp_path / "out"
        code = main(["unbalanced", "--reps", "1", "--out", str(out), *UNBALANCED_FAST,
                     "--set", "data_seed=-1"])
        assert code == 3
        assert "config error: data_seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [*GARBLED.values(), drop_key("step"),
                                      set_key("epoch", "0")],
                             ids=[*GARBLED, "no-step", "epoch-str"])
    def test_garbled_checkpoint_header_is_exit_5(self, tmp_path, capsys, edit):
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path)
        container_file.rewrite(path, header=edit)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        err = capsys.readouterr().err
        assert "checkpoint error" in err
        assert "CRC-32" not in err      # the edit reached the check it names

    @pytest.mark.parametrize("mutate,message", INCONSISTENT.values(), ids=INCONSISTENT)
    def test_inconsistent_checkpoint_header_is_exit_5(self, tmp_path, capsys, mutate, message):
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path)
        container_file.rewrite(path, header=change(mutate))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error") and len(err.splitlines()) == 1, err
        assert message in err       # the edit reached the check it names
        assert not (tmp_path / "e").exists()

    @pytest.fixture(scope="class")
    def scored_checkpoint(self, tmp_path_factory):
        """The bytes of a FAST checkpoint, and the eval.csv rows of the unedited file."""
        tmp = tmp_path_factory.mktemp("scored")
        out = run_train(tmp)
        assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin"),
                     "--out", str(tmp / "e"), *FAST]) == 0
        return read(out, "checkpoint.bin"), eval_rows(tmp / "e")

    @pytest.mark.parametrize("value", HEADER_VALUES, ids=repr)
    @pytest.mark.parametrize("key", ["encoder", "epoch", "momentum", "predictor", "step"])
    def test_every_checkpoint_header_value_keeps_the_exit_contract(
            self, tmp_path, capsys, scored_checkpoint, key, value):
        """A value the field can hold scores as the unedited file does, with the
        value in eval.csv's epoch column when it is the epoch; any other value
        exits 5 with one stderr line."""
        raw, rows = scored_checkpoint
        path = tmp_path / "checkpoint.bin"
        path.write_bytes(raw)
        container_file.rewrite(path, header=set_key(key, value))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        err = capsys.readouterr().err
        if not loadable(key, value):
            assert code == 5, err
            assert err.startswith("checkpoint error") and len(err.splitlines()) == 1, err
            return
        assert (code, err) == (0, "")
        assert eval_rows(tmp_path / "e") == [{**row, "epoch": str(value)} if key == "epoch"
                                             else row for row in rows]

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
        assert "CRC-32" not in err      # the edit reached the check it names
        assert f"{data}/train.bin" in err
        assert not (tmp_path / "run").exists()

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

    def test_version_3_checkpoint_is_exit_5(self, tmp_path, capsys):
        """A version-3 header held a buffer table and normalize flags; this loader
        reads only version 4."""
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path)
        container_file.rewrite(path, version=3)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        assert "unsupported version 3, expected 4" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_version_2_dataset_is_exit_4(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", *gen_data_args(2, 12, 6, 6), "--out", str(data)]) == 0
        container_file.rewrite(data / "eval.bin", version=2)
        capsys.readouterr()
        code = main(["train", "--out", str(tmp_path / "run"), *FAST,
                     "--set", f"data_train={data}/train.bin",
                     "--set", f"data_eval={data}/eval.bin"])
        assert code == 4
        assert "unsupported version 2, expected 3" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_header_bit_flip_in_the_momentum_is_exit_5(self, tmp_path, capsys):
        """Flipping the low bit of the last digit of "momentum":0.97 would read 0.96;
        the prefix's CRC covers the header, so the file is refused."""
        path = tmp_path / "run" / "checkpoint.bin"
        run_train(tmp_path, extra=["--set", "momentum=0.97"])
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"momentum":0.97') + len(b'"momentum":0.97') - 1
        raw[at] ^= 1
        path.write_bytes(bytes(raw))
        assert b'"momentum":0.96' in raw
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5
        assert "CRC-32" in capsys.readouterr().err

    def test_unreadable_checkpoint_is_exit_5(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        code = main(["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "e"), *FAST])
        assert code == 5


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Corpora of 6 and 8 features; 6-feature splits of one sample per class, of no
    sample, of class 0 alone and with one sample of class 2**50; a corpus of no
    features; a checkpoint of each width, a garbage file and the path of a missing one."""
    d = tmp_path_factory.mktemp("inputs")
    for dim in (6, 8):
        assert main(["gen-data", *gen_data_args(2, 12, 6, dim), "--out", str(d / f"d{dim}")]) == 0
        assert main(["train", "--out", str(d / f"run{dim}"), *FAST, "--set", f"data_dim={dim}",
                     "--set", f"encoder_widths={dim},12,4"]) == 0
    assert main(["gen-data", *gen_data_args(2, 12, 1, 6), "--out", str(d / "single")]) == 0
    train6 = load_dataset(str(d / "d6" / "train.bin"))
    save_dataset(LabeledDataset(train6.samples[:0], train6.labels[:0], split="eval"),
                 str(d / "eval6empty.bin"))
    class0 = train6.labels == 0
    save_dataset(LabeledDataset(train6.samples[class0], train6.labels[class0]),
                 str(d / "train6class0.bin"))
    eval6 = load_dataset(str(d / "d6" / "eval.bin"))
    save_dataset(LabeledDataset(eval6.samples, np.append(eval6.labels[:-1], 2**50), split="eval"),
                 str(d / "eval6biglabel.bin"))
    save_dataset(LabeledDataset(train6.samples[:, :0], train6.labels), str(d / "train0.bin"))
    save_dataset(LabeledDataset(eval6.samples[:, :0], eval6.labels, split="eval"),
                 str(d / "eval0.bin"))
    (d / "garbage.bin").write_bytes(b"garbage")
    return {"train6": d / "d6" / "train.bin", "eval6": d / "d6" / "eval.bin",
            "eval6single": d / "single" / "eval.bin", "eval6empty": d / "eval6empty.bin",
            "train6class0": d / "train6class0.bin", "eval6biglabel": d / "eval6biglabel.bin",
            "train0": d / "train0.bin", "eval0": d / "eval0.bin",
            "eval8": d / "d8" / "eval.bin", "ckpt6": d / "run6" / "checkpoint.bin",
            "ckpt8": d / "run8" / "checkpoint.bin", "garbage": d / "garbage.bin",
            "missing": d / "missing.bin"}


class TestInputFaults:
    @pytest.mark.parametrize("command,fault", FAULT_GRID,
                             ids=[f"{command}-{fault}" for command, fault in FAULT_GRID])
    def test_input_fault_exits_with_its_code_before_any_output(self, tmp_path, input_files,
                                                               command, fault):
        """Every command reads and checks all its inputs before it writes anything."""
        code, settings, checkpoint = INPUT_FAULTS[fault]
        settings = [s.format(**input_files) for s in settings]
        if command in ("unbalanced", "gen-data") and any(
                s.startswith("data_train=") for s in settings):
            code = 3    # they read no corpus file: a set data_train is a config fault
        extra = {"distill": ["--teacher", str(input_files[checkpoint])],
                 "eval": ["--checkpoint", str(input_files[checkpoint])],
                 "ablate-temperature": ["--taus", "0.1"],
                 "unbalanced": ["--reps", "1"]}.get(command, [])
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *extra,
                     *(UNBALANCED_FAST if command == "unbalanced" else FAST),
                     *(arg for s in settings for arg in ("--set", s))]) == code
        assert not out.exists()

    def test_unbalanced_with_data_files_is_exit_3_before_any_output(self, tmp_path, capsys,
                                                                    input_files):
        """The protocol draws its own corpora, so it refuses files it would ignore."""
        out = tmp_path / "out"
        code = main(["unbalanced", "--reps", "1", "--out", str(out), *UNBALANCED_FAST,
                     "--set", f"data_train={input_files['train6']}",
                     "--set", f"data_eval={input_files['eval6']}"])
        assert code == 3
        assert capsys.readouterr().err == (
            "config error: data_train is set: unbalanced draws one synthetic corpus of the "
            "data_* fields per repetition, not a loaded one\n")
        assert not out.exists()


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

    def test_checkpoint_epoch_counts_the_epochs_done(self, tmp_path):
        """An untrained checkpoint saves epoch 0 and a one-epoch one epoch 1, so
        eval.csv can tell them apart; metrics.csv keeps each step's epoch index."""
        for epochs in (0, 1):
            out = run_train(tmp_path, f"e{epochs}", ["--set", f"epochs={epochs}"])
            assert load_checkpoint(os.path.join(out, "checkpoint.bin")).epoch == epochs
        with open(os.path.join(out, "metrics.csv")) as f:
            assert {row["epoch"] for row in csv.DictReader(f)} == {"0"}

    def test_resolved_config_reproduces_the_run(self, tmp_path):
        """Replaying a run's resolved.cfg, with nothing else but the command's
        own arguments, writes the same bytes."""
        teacher = ["--teacher", os.path.join(run_train(tmp_path, "teacher"), "checkpoint.bin")]
        runs = [("train", [*FAST], [], ("checkpoint.bin", "metrics.csv")),
                ("distill", [*FAST], teacher, ("checkpoint.bin", "metrics.csv")),
                ("ablate-temperature", [*FAST, "--seed", "3"], ["--taus", "0.1"],
                 ("temperature.csv",)),
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

    @pytest.mark.parametrize("command,args,table", [
        ("unbalanced", ["--reps", "1", *UNBALANCED_FAST], "unbalanced.csv"),
        ("ablate-temperature", ["--taus", "0.1", *FAST], "temperature.csv"),
        ("train", FAST, "metrics.csv"),
    ], ids=["unbalanced", "ablate-temperature", "train"])
    def test_config_file_layers_on_the_command_base_like_set(self, tmp_path, command, args,
                                                             table):
        """A one-line --config file changes that one field of the command's
        base config, exactly as --set of the same line does."""
        args = drop_setting(args, "epochs")
        one_line = tmp_path / "f.cfg"
        one_line.write_text("epochs=1\n")
        by_file, by_set = str(tmp_path / "file"), str(tmp_path / "set")
        assert main([command, "--out", by_file, "--config", str(one_line), *args]) == 0
        assert main([command, "--out", by_set, "--set", "epochs=1", *args]) == 0
        for name in ("resolved.cfg", table):
            assert read(by_file, name) == read(by_set, name), name
        assert load_config(os.path.join(by_file, "resolved.cfg")).epochs == 1

    def test_trainer_runs_the_echoed_config(self, tmp_path, monkeypatch):
        """The RunConfig each Trainer receives equals the run's resolved.cfg,
        including the settings distill forces."""
        received = []
        original = Trainer.__init__

        def record(self, config, *args, **kwargs):
            received.append(config)
            original(self, config, *args, **kwargs)

        monkeypatch.setattr(Trainer, "__init__", record)
        teacher = run_train(tmp_path, "teacher")
        out = str(tmp_path / "dist")
        assert main(["distill", "--teacher", os.path.join(teacher, "checkpoint.bin"),
                     "--out", out, *FAST]) == 0
        assert len(received) == 2
        assert received[0] == load_config(os.path.join(teacher, "resolved.cfg"))
        echo = load_config(os.path.join(out, "resolved.cfg"))
        assert received[1] == echo
        assert (echo.momentum, echo.teacher_policy, echo.student_policy) == (1.0, "mild", "mild")

    def test_seed_flag_sets_all_three_seeds(self, tmp_path):
        out = run_train(tmp_path, extra=["--seed", "41"])
        cfg = load_config(os.path.join(out, "resolved.cfg"))
        assert (cfg.seed_init, cfg.seed_data, cfg.seed_augment) == (41, 42, 43)

    def test_unbalanced_seed_flag_sets_only_the_protocol_seed(self, tmp_path):
        """The protocol derives every run's seeds from seed_init; the other two
        keep their base values, and the CSV is that of --set seed_init."""
        by_flag, by_set = str(tmp_path / "flag"), str(tmp_path / "set")
        assert main(["unbalanced", "--reps", "1", "--seed", "41", "--out", by_flag,
                     *UNBALANCED_FAST]) == 0
        assert main(["unbalanced", "--reps", "1", "--set", "seed_init=41", "--out", by_set,
                     *UNBALANCED_FAST]) == 0
        cfg, base = load_config(os.path.join(by_flag, "resolved.cfg")), RunConfig()
        assert (cfg.seed_init, cfg.seed_data, cfg.seed_augment) == (41, base.seed_data,
                                                                    base.seed_augment)
        for name in ("resolved.cfg", "unbalanced.csv"):
            assert read(by_flag, name) == read(by_set, name), name


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

    def test_single_sample_class_is_scored_only_without_recall_ks(self, tmp_path, capsys):
        """recall@k needs two samples of each eval class; with recall_ks empty, an
        eval split of one sample per class gets its k-NN and probe rows."""
        ckpt = os.path.join(run_train(tmp_path), "checkpoint.bin")
        args = ["eval", "--checkpoint", ckpt, *FAST, "--set", "data_eval_per_class=1",
                "--set", "probe_epochs=5"]
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "refused")]) == 3
        assert capsys.readouterr().err == (
            "config error: recall_ks is set, but class 0 has a single sample in the eval "
            "split of the synthetic corpus of the data_* fields\n")
        assert not (tmp_path / "refused").exists()
        out = tmp_path / "scored"
        assert main([*args, "--set", "recall_ks=", "--out", str(out)]) == 0
        with open(out / "eval.csv") as f:
            assert sorted({row["metric"] for row in csv.DictReader(f)}) == ["knn", "linear"]

    @pytest.mark.parametrize("recall_ks", ["1,2", ""])
    def test_large_label_ids_are_scored(self, tmp_path, input_files, recall_ks):
        """A class id is a name, not a size: class 1 renamed 2**50 trains and scores."""
        names = {}
        for split in ("train6", "eval6"):
            ds = load_dataset(str(input_files[split]))
            names[split] = str(tmp_path / f"{split}.bin")
            save_dataset(LabeledDataset(ds.samples, np.where(ds.labels == 1, 2**50, ds.labels),
                                        split=ds.split), names[split])
        files = ["--set", f"data_train={names['train6']}", "--set", f"data_eval={names['eval6']}"]
        ckpt = os.path.join(run_train(tmp_path, extra=files), "checkpoint.bin")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), *FAST, *files,
                     "--set", f"recall_ks={recall_ks}", "--set", "probe_epochs=5"]) == 0
        with open(out / "eval.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * (2 + len(recall_ks.split(",")) * bool(recall_ks))
        assert all(np.isfinite(float(row["value"])) for row in rows)

    def test_untrained_checkpoint_scores_a_corpus_with_a_zero_sample(self, tmp_path):
        """Under an untrained encoder's zero biases an all-zero sample embeds to a
        zero row, which eval scores as cosine 0 against every other row."""
        data = tmp_path / "data"
        assert main(["gen-data", *gen_data_args(2, 30, 6, 6), "--out", str(data)]) == 0
        train_ds = load_dataset(str(data / "train.bin"))
        train_ds.samples[0] = 0.0
        save_dataset(train_ds, str(data / "train.bin"))
        files = ["--set", f"data_train={data}/train.bin", "--set", f"data_eval={data}/eval.bin"]
        ckpt = os.path.join(run_train(tmp_path, extra=[*files, "--set", "epochs=0"]),
                            "checkpoint.bin")
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", ckpt, "--out", str(out), *FAST, *files,
                     "--set", "probe_epochs=5"]) == 0
        with open(out / "eval.csv") as f:
            assert all(np.isfinite(float(row["value"])) for row in csv.DictReader(f))


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


class TestInterpreterModes:
    def test_python_and_python_O_write_the_same_bytes(self, tmp_path):
        """Every check runs in both interpreter modes. These runs draw views whose
        every feature is masked, which embed to zero rows that the bank holds: with
        and without ``-O`` they exit 0 and write byte-identical artifacts."""
        commands = {
            "train": ["train", "--set", "data_dim=2", "--set", "teacher_policy=aggressive",
                      "--set", "student_policy=aggressive", "--set", "epochs=2"],
            "unbalanced": ["unbalanced", "--reps", "1", "--set", "data_dim=2",
                           "--set", "epochs=1"],
        }
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for mode in ("debug", "optimized"):
            flags = ["-O"] if mode == "optimized" else []
            for name, args in commands.items():
                done = subprocess.run(
                    [sys.executable, *flags, "-m", "simdistill.cli", *args,
                     "--out", str(tmp_path / mode / name)],
                    env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, f"{mode} {name}: {done.stderr}"
        for name in ("train/metrics.csv", "train/checkpoint.bin", "unbalanced/unbalanced.csv"):
            assert read(tmp_path / "debug", name) == read(tmp_path / "optimized", name), name


class TestConfigEcho:
    def test_echo_parses_back_to_the_resolved_config(self, tmp_path):
        out = run_train(tmp_path)
        cfg = load_config(os.path.join(out, "resolved.cfg"))
        assert serialize_config(cfg) == open(os.path.join(out, "resolved.cfg")).read()
        assert isinstance(cfg, RunConfig)

    @pytest.mark.parametrize("line", [
        "custom_rotation_range=0.0", "distill_source=teacher",
        "lr_step_fracs=0.7,0.9", "lr_step_factor=0.2", "sgd_momentum=0.9",
        "weight_decay=0.0001", "predictor_hidden=64", "custom_noise_std=0.25",
        "custom_mask_prob=0.2", "custom_scale_min=0.5", "custom_scale_max=1.5",
        "custom_crop_min=0.6", "custom_crop_max=1.0", "custom_flip_prob=0.5",
        "teacher_policy=custom",
    ])
    def test_echo_holding_a_removed_key_is_exit_3(self, tmp_path, capsys, line):
        """An echo written while the option existed names it as an unknown key, and
        one that chose the removed "custom" view policy names that policy."""
        old = tmp_path / "old.cfg"
        old.write_text(open(os.path.join(run_train(tmp_path), "resolved.cfg")).read() + line + "\n")
        out = tmp_path / "replay"
        capsys.readouterr()
        assert main(["train", "--config", str(old), "--out", str(out)]) == 3
        key, _, value = line.partition("=")
        unknown = (f"unknown augmentation policy '{value}'" if key == "teacher_policy"
                   else f"unknown key '{key}'")
        assert unknown in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "distill", "eval", "ablate-temperature",
                                         "unbalanced", "gen-data"])
    def test_config_is_serialized_once_per_command(self, tmp_path, monkeypatch, input_files,
                                                   command):
        """The driver's echo is the one serialization of a run."""
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return serialize_config(cfg)
        for module in (cli, config, experiments):
            if hasattr(module, "serialize_config"):
                monkeypatch.setattr(module, "serialize_config", counted)
        extra = {"distill": ["--teacher", str(input_files["ckpt6"])],
                 "eval": ["--checkpoint", str(input_files["ckpt6"])],
                 "ablate-temperature": ["--taus", "0.1"],
                 "unbalanced": ["--reps", "1"]}.get(command, [])
        out = str(tmp_path / "out")
        assert main([command, "--out", out, *extra,
                     *(UNBALANCED_FAST if command == "unbalanced" else FAST)]) == 0
        assert calls == [load_config(os.path.join(out, "resolved.cfg"))]
