"""Versioned binary checkpoint, in the framed container of ``container.py``.

The payload holds all parameter / optimizer / bank buffers as float64 in
the order the header declares. Every field is derived from deterministic
state, so runs with equal seeds produce byte-identical files.

The buffer table follows from the two MLP specs and the bank shape: each
network's layers (w0, b0, w1, ...), one velocity record per student
layer, then the bank storage. A loader accepts no other table, and any
fault in the file raises CheckpointError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bank import AnchorBank
from .container import check_fields, read_container, write_container
from .errors import CheckpointError, ContractError, ShapeError
from .nn import MlpParams, MlpSpec, ModelPair, SgdState, split_buffer

_MAGIC = b"SDCP"
_VERSION = 1
_HEADER_FIELDS = {"encoder": dict, "predictor": dict, "momentum": (int, float), "sgd": dict,
                  "bank": dict, "epoch": int, "step": int, "rng_states": dict, "buffers": list}
_SPEC_FIELDS = {"widths": list, "normalize": bool}
_NESTED_FIELDS = {"encoder": _SPEC_FIELDS, "predictor": _SPEC_FIELDS,
                  "sgd": {"lr": (int, float), "momentum": (int, float),
                          "weight_decay": (int, float)},
                  "bank": {"capacity": int, "dim": int, "head": int, "count": int}}
_NETWORKS = ("student_encoder", "student_predictor", "teacher_encoder")


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a training run."""

    pair: ModelPair
    sgd: SgdState
    bank: AnchorBank
    epoch: int = 0
    step: int = 0
    rng_states: dict = field(default_factory=dict)

    @property
    def encoder_spec(self) -> MlpSpec:
        return self.pair.student_encoder.spec

    @property
    def predictor_spec(self) -> MlpSpec:
        return self.pair.student_predictor.spec


def _spec_dict(spec: MlpSpec) -> dict:
    return {"widths": list(spec.layer_widths), "normalize": spec.final_normalize}


def _spec_from(d: dict) -> MlpSpec:
    if not all(type(w) is int for w in d["widths"]):
        raise ContractError(f"layer widths must be integers, got {d['widths']}")
    return MlpSpec(tuple(d["widths"]), d["normalize"])


def _layout(encoder: MlpSpec, predictor: MlpSpec,
            bank_shape: tuple[int, int]) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every buffer record, in file order."""
    records = []
    for prefix, spec in zip(_NETWORKS, (encoder, predictor, encoder)):
        records += [(f"{prefix}.{'wb'[i % 2]}{i // 2}", shape)
                    for i, shape in enumerate(spec.parameter_shapes)]
    student = encoder.parameter_shapes + predictor.parameter_shapes
    records += [(f"velocity.{i}", shape) for i, shape in enumerate(student)]
    return records + [("bank.storage", bank_shape)]


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write the container through a temporary file, so a failed write keeps the old one."""
    storage, head, count = ckpt.bank.state()
    pair = ckpt.pair
    student = pair.student_encoder.spec.num_parameters + pair.student_predictor.spec.num_parameters
    if sum(np.size(v) for v in ckpt.sgd.velocities) != student:
        raise ShapeError("save_checkpoint: the velocities do not cover the student's parameters")
    layout = _layout(ckpt.encoder_spec, ckpt.predictor_spec, storage.shape)
    header = {
        "encoder": _spec_dict(ckpt.encoder_spec),
        "predictor": _spec_dict(ckpt.predictor_spec),
        "momentum": pair.momentum,
        "sgd": {"lr": ckpt.sgd.lr, "momentum": ckpt.sgd.momentum,
                "weight_decay": ckpt.sgd.weight_decay},
        "bank": {"capacity": ckpt.bank.capacity, "dim": ckpt.bank.dim,
                 "head": head, "count": count},
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "rng_states": ckpt.rng_states,
        "buffers": [{"name": name, "shape": list(shape)} for name, shape in layout],
    }
    # Records are row-major and back to back, so each network's flat buffer
    # and the velocities in any grouping write the bytes of the per-layer records.
    blocks = [pair.student_encoder.data, pair.student_predictor.data,
              pair.teacher_encoder.data, *ckpt.sgd.velocities, storage]
    write_container(path, _MAGIC, _VERSION, header,
                    [np.asarray(block, dtype=np.float64) for block in blocks])


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any fault in the file, truncation included, raises CheckpointError."""
    try:
        container = read_container(path, _MAGIC, _VERSION, _HEADER_FIELDS, CheckpointError)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    header = container.header
    for key, fields in _NESTED_FIELDS.items():
        check_fields(header[key], fields, CheckpointError, f"{path}: header {key}")
    bank_h = header["bank"]
    try:
        encoder_spec = _spec_from(header["encoder"])
        predictor_spec = _spec_from(header["predictor"])
        if bank_h["capacity"] < 1 or bank_h["dim"] < 1:
            raise ContractError(f"bank shape must be positive, got "
                                f"{bank_h['capacity']} x {bank_h['dim']}")
    except ContractError as e:
        raise CheckpointError(f"{path}: {e}") from e

    bank_shape = (bank_h["capacity"], bank_h["dim"])
    want = [{"name": name, "shape": list(shape)}
            for name, shape in _layout(encoder_spec, predictor_spec, bank_shape)]
    got = header["buffers"]
    if got != want:
        i = next(i for i in range(max(len(got), len(want)))
                 if i >= min(len(got), len(want)) or got[i] != want[i])
        raise CheckpointError(f"{path}: buffer record {i} is "
                              f"{got[i] if i < len(got) else 'missing'}, expected "
                              f"{want[i] if i < len(want) else 'none'}")
    n_encoder, n_predictor = encoder_spec.num_parameters, predictor_spec.num_parameters
    encoder, predictor, teacher, velocities, storage = container.blocks(
        *[("<f8", n) for n in (n_encoder, n_predictor, n_encoder, n_encoder + n_predictor,
                               bank_shape[0] * bank_shape[1])])
    sgd_h = header["sgd"]
    try:
        pair = ModelPair(MlpParams(encoder_spec, encoder.copy()),
                         MlpParams(predictor_spec, predictor.copy()),
                         MlpParams(encoder_spec, teacher.copy(), trainable=False),
                         header["momentum"])
        sgd = SgdState(lr=sgd_h["lr"], momentum=sgd_h["momentum"],
                       weight_decay=sgd_h["weight_decay"])
        sgd.velocities = split_buffer(velocities.copy(), encoder_spec.parameter_shapes
                                      + predictor_spec.parameter_shapes)
        bank = AnchorBank.from_state(storage.reshape(bank_shape), bank_h["head"], bank_h["count"])
    except (ContractError, ShapeError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    return Checkpoint(pair=pair, sgd=sgd, bank=bank, epoch=header["epoch"],
                      step=header["step"], rng_states=header["rng_states"])
