"""Tests for the flat key=value run configuration."""

import ast
import os
import re
import string
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdistill.augment import MILD
from simdistill.config import (RunConfig, apply_overrides, load_config, parse_config,
                               serialize_config)
from simdistill.errors import ConfigError
from simdistill.experiments import ablation_base_config, unbalanced_base_config
from simdistill.train import Trainer

# One strategy per field type. Strings exclude '#' and line breaks and carry no
# surrounding blanks: those are the values the text format cannot hold.
_FLOATS = st.floats(allow_nan=False, allow_infinity=True)
_INTS = st.integers(-10**12, 10**12)
_TEXT = st.text(string.ascii_letters + string.digits + "/._-=, ", max_size=12).map(str.strip)
_BY_TYPE = {
    "int": _INTS,
    "float": _FLOATS,
    "str": _TEXT,
    "tuple[int, ...]": st.lists(_INTS, max_size=4).map(tuple),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=4).map(tuple),
}
any_config = st.builds(RunConfig, **{f.name: _BY_TYPE[f.type] for f in fields(RunConfig)})


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_modified_config_round_trips(self):
        cfg = RunConfig(objective="byol", temperature=0.07, lr=0.0625,
                        lr_step_fracs=(0.5,), encoder_widths=(8, 16, 4),
                        momentum=1.0, data_train="path/t.bin",
                        recall_ks=(1, 3))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_every_field_is_serialized(self):
        text = serialize_config(RunConfig())
        keys = {line.split("=", 1)[0] for line in text.strip().splitlines()}
        assert keys == {f.name for f in fields(RunConfig)}

    def test_empty_tuple_round_trips(self):
        cfg = RunConfig(lr_step_fracs=(), encoder_widths=())
        assert parse_config(serialize_config(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(any_config)
    def test_any_field_values_round_trip(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_bytes_are_pinned(self):
        """The echo format of the defaults: one line per field, in field order."""
        text = serialize_config(RunConfig())
        assert text.startswith("objective=isd\ntemperature=0.02\nmomentum=0.99\n")
        assert "lr_step_fracs=0.7,0.9\nlr_step_factor=0.2\n" in text
        assert "encoder_widths=\npredictor_hidden=64\nteacher_policy=none\n" in text
        assert "recall_ks=1,2,4,8\n" in text
        assert "seed_augment=2\neval_every=10\n" in text
        assert text.endswith("data_sep=6.0\ndata_seed=7\n")

    @pytest.mark.parametrize("values", [
        {"data_train": "runs#1/train.bin", "data_eval": "e.bin"},
        {"data_train": "t.bin", "data_eval": "a\nb"},
        {"data_train": " t.bin", "data_eval": "e.bin"},
        {"encoder_widths": [6, 12, 4]},
    ])
    def test_value_the_echo_cannot_hold_rejected(self, values):
        with pytest.raises(ConfigError, match="would not survive"):
            serialize_config(RunConfig(**values))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=8))
    def test_validate_accepts_exactly_the_strings_the_echo_carries(self, text):
        """validate() rejects a string just when resolved.cfg would lose it."""
        def passes(check) -> bool:
            try:
                check()
            except ConfigError:
                return False
            return True
        cfg = RunConfig(data_train=text, data_eval=text)
        assert passes(cfg.validate) == passes(lambda: serialize_config(cfg))


class TestParsing:
    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nlr=0.5  # trailing\n")
        assert cfg.lr == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rate=0.1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            parse_config("epochs=ten\n")

    def test_file_layers_on_a_base(self, tmp_path):
        """A file changes only the fields it names; the base defaults to RunConfig()."""
        path = tmp_path / "f.cfg"
        path.write_text("epochs=1\n")
        base = unbalanced_base_config()
        assert load_config(str(path), base) == replace(base, epochs=1)
        assert load_config(str(path)) == RunConfig(epochs=1)
        assert parse_config("", base) == base

    @pytest.mark.parametrize("entry,error", [
        ("lr", "expected key=value, got 'lr'"),
        ("nope=1", "unknown key 'nope'"),
        ("epochs=ten", "bad value for 'epochs': invalid literal for int() with base 10: 'ten'"),
        ("recall_ks=1,x", "bad value for 'recall_ks': invalid literal for int() with base 10: 'x'"),
    ])
    def test_file_line_and_override_fail_alike(self, entry, error):
        """One entry parser: the same entry fails the same way, named by where it came from."""
        with pytest.raises(ConfigError, match=f"^config line 2: {re.escape(error)}$"):
            parse_config(f"lr=0.5\n{entry}  # comment\n")
        with pytest.raises(ConfigError, match=f"^override: {re.escape(error)}$"):
            apply_overrides(RunConfig(), [entry])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config not found"):
            load_config(str(tmp_path / "absent.cfg"))


class TestOverrides:
    def test_set_pairs(self):
        cfg = apply_overrides(RunConfig(), ["lr=0.25", "objective=moco"])
        assert cfg.lr == 0.25 and cfg.objective == "moco"

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["nope=1"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["lr"])


class TestValidate:
    def test_defaults_and_base_configs_are_valid(self):
        for cfg in (RunConfig(), ablation_base_config(), unbalanced_base_config()):
            cfg.validate()

    def test_contradiction_surfaces_on_validate(self):
        cfg = parse_config("batch_size=128\nbank_capacity=64\n")   # parsing does not validate
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_byol_batch_may_exceed_the_bank_it_never_fills(self):
        for cap in ("1", "8"):
            apply_overrides(RunConfig(), ["objective=byol", "batch_size=64",
                                          f"bank_capacity={cap}"]).validate()

    @pytest.mark.parametrize("overrides", [
        ["objective=byol", "bank_capacity=0"], ["objective=byol", "bank_capacity=-1"],
        ["objective=isd", "bank_capacity=8", "batch_size=64"],
        ["objective=moco", "bank_capacity=8", "batch_size=64"],
        ["objective=moco", "bank_capacity=1", "batch_size=1"],
    ])
    def test_bank_capacity_rejected(self, overrides):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), overrides).validate()

    @pytest.mark.parametrize("override", [
        "objective=simclr", "temperature=0", "temperature=1e-320", "teacher_policy=bogus",
        "student_policy=",
        "custom_noise_std=-1", "custom_scale_min=0", "custom_crop_max=1.5",
        "predictor_hidden=0", "encoder_widths=6", "lr=nan", "lr=inf", "lr=-0.1",
        "momentum=inf", "weight_decay=inf", "weight_decay=-1", "sgd_momentum=5",
        "sgd_momentum=-0.1", "lr_step_factor=-1",
        "lr_step_fracs=0.5,nan", "lr_schedule=linear", "batch_size=0", "epochs=-1",
        "bank_capacity=1", "eval_k=0", "eval_every=0",
        "probe_lr=0", "probe_epochs=-1", "recall_ks=1,0", "seed_augment=-1",
        "data_classes=1", "data_dim=1", "data_sep=-1", "data_per_class=0",
        "lr_step_fracs=5", "lr_step_fracs=-1", "lr_step_fracs=0.5,1",
    ])
    def test_bad_value_rejected(self, override):
        cfg = apply_overrides(RunConfig(), [override])
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("values", [
        {"data_train": "runs#1/train.bin", "data_eval": "e.bin"},
        {"data_train": "t.bin", "data_eval": "a\nb"},
        {"data_train": "t.bin", "data_eval": "a\u2028b"},
        {"data_train": " t.bin", "data_eval": "e.bin"},
        {"data_train": "t.bin\t", "data_eval": "e.bin"},
        {"objective": "isd#"},
        {"data_train": Path("t.bin"), "data_eval": "e.bin"},
    ])
    def test_string_the_echo_cannot_carry_rejected(self, values):
        with pytest.raises(ConfigError, match="cannot be written to resolved.cfg"):
            RunConfig(**values).validate()

    def test_step_fractions_span_zero_up_to_one(self):
        """A fraction f steps the rate at epoch int(f * epochs): 0 steps it from
        the start, and anything in [0, 1) steps it within the run."""
        RunConfig(lr_step_fracs=(0.0, 0.999)).validate()
        RunConfig(lr_step_fracs=()).validate()

    def test_eval_k_may_reach_the_synthetic_corpus(self):
        """k-NN may use all 3 * 200 synthetic samples. validate() judges no
        eval_k against a corpus: experiments.build_datasets checks the
        synthetic or loaded one, and Trainer.run the train set it is handed."""
        RunConfig(eval_k=600).validate()
        RunConfig(eval_k=601).validate()
        RunConfig(eval_k=601, data_train="t.bin", data_eval="e.bin").validate()


def _attributes_read(tree: ast.AST, skip: str) -> set[str]:
    """Names read as ``x.name`` in a module, outside functions called ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_field_is_read_outside_validate():
    """A field nothing reads but validate() is a knob that changes no run."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "simdistill")
    read = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                read |= _attributes_read(ast.parse(f.read()), skip="validate")
    assert sorted(f.name for f in fields(RunConfig) if f.name not in read) == []


class TestTrainerReadsConfig:
    def test_basic_mapping(self):
        rc = RunConfig(objective="moco", temperature=0.09, momentum=0.95, epochs=3,
                       encoder_widths=(6, 8, 4), predictor_hidden=5)
        trainer = Trainer(rc, 6)
        assert trainer.config is rc
        assert trainer.pair.momentum == 0.95
        assert trainer.pair.student_encoder.spec.layer_widths == (6, 8, 4)
        assert trainer.pair.student_encoder.spec.final_normalize
        assert trainer.pair.student_predictor.spec.layer_widths == (4, 5, 4)

    def test_named_policies(self):
        trainer = Trainer(RunConfig(teacher_policy="mild", student_policy="none"), 6)
        assert trainer.teacher_policy is MILD
        assert trainer.student_policy.is_identity

    def test_custom_policy_fields(self):
        rc = RunConfig(student_policy="custom", custom_noise_std=0.9, custom_flip_prob=0.3)
        trainer = Trainer(rc, 6)
        assert trainer.student_policy.noise_std == 0.9
        assert trainer.student_policy.flip_prob == 0.3

    def test_empty_widths_defer_to_data_dim(self):
        trainer = Trainer(RunConfig(encoder_widths=()), 7)
        assert trainer.pair.student_encoder.spec.layer_widths == (7, 256, 128, 64)

    def test_default_views_are_identity(self):
        trainer = Trainer(RunConfig(), 6)
        assert trainer.teacher_policy.is_identity and trainer.student_policy.is_identity
