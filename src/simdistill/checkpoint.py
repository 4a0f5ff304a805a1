"""Versioned binary checkpoint container.

Layout: 4-byte magic, u32 version, u64 header length, JSON header, then
all parameter / optimizer / bank buffers as little-endian float64 in the
order the header declares. Every field is derived from deterministic
state, so runs with equal seeds produce byte-identical files.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .bank import AnchorBank
from .data import json_header
from .errors import CheckpointError, LengthError
from .nn import MlpParams, MlpSpec, ModelPair, SgdState
from .tensor import Tensor

_MAGIC = b"SDCP"
_VERSION = 1
_HEADER_FIELDS = {"encoder": dict, "predictor": dict, "momentum": (int, float), "sgd": dict,
                  "bank": dict, "epoch": int, "step": int, "rng_states": dict, "buffers": list}


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
    return MlpSpec(tuple(d["widths"]), d["normalize"])


def _mlp_buffers(prefix: str, mlp: MlpParams) -> list[tuple[str, np.ndarray]]:
    out = []
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out.append((f"{prefix}.w{i}", w.data))
        out.append((f"{prefix}.b{i}", b.data))
    return out


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    storage, head, count = ckpt.bank.state()
    buffers = (
        _mlp_buffers("student_encoder", ckpt.pair.student_encoder)
        + _mlp_buffers("student_predictor", ckpt.pair.student_predictor)
        + _mlp_buffers("teacher_encoder", ckpt.pair.teacher_encoder)
        + [(f"velocity.{i}", v) for i, v in enumerate(ckpt.sgd.velocities)]
        + [("bank.storage", storage)]
    )
    header = {
        "version": _VERSION,
        "encoder": _spec_dict(ckpt.encoder_spec),
        "predictor": _spec_dict(ckpt.predictor_spec),
        "momentum": ckpt.pair.momentum,
        "sgd": {
            "lr": ckpt.sgd.lr,
            "momentum": ckpt.sgd.momentum,
            "weight_decay": ckpt.sgd.weight_decay,
        },
        "bank": {"capacity": ckpt.bank.capacity, "dim": ckpt.bank.dim,
                 "head": head, "count": count},
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "rng_states": ckpt.rng_states,
        "buffers": [{"name": name, "shape": list(arr.shape)} for name, arr in buffers],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, arr in buffers:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    blob_len = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + blob_len:
        raise LengthError(f"{path}: truncated checkpoint header")
    header = json_header(raw[16:16 + blob_len], _HEADER_FIELDS, CheckpointError, path)

    arrays: dict[str, np.ndarray] = {}
    offset = 16 + blob_len
    for entry in header["buffers"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape)) if shape else 1
        end = offset + size * 8
        if end > len(raw):
            raise LengthError(f"{path}: truncated buffer {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8", count=size,
                                              offset=offset).reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise LengthError(f"{path}: {len(raw) - offset} trailing bytes after buffers")

    def build_mlp(prefix: str, spec: MlpSpec, trainable: bool) -> MlpParams:
        make = Tensor.parameter if trainable else Tensor.frozen
        n_layers = len(spec.layer_widths) - 1
        try:
            weights = [make(arrays[f"{prefix}.w{i}"]) for i in range(n_layers)]
            biases = [make(arrays[f"{prefix}.b{i}"]) for i in range(n_layers)]
        except KeyError as e:
            raise CheckpointError(f"{path}: missing buffer {e}") from e
        return MlpParams(spec, weights, biases, trainable)

    encoder_spec = _spec_from(header["encoder"])
    predictor_spec = _spec_from(header["predictor"])
    pair = ModelPair(
        build_mlp("student_encoder", encoder_spec, trainable=True),
        build_mlp("student_predictor", predictor_spec, trainable=True),
        build_mlp("teacher_encoder", encoder_spec, trainable=False),
        header["momentum"],
    )
    sgd_h = header["sgd"]
    sgd = SgdState(lr=sgd_h["lr"], momentum=sgd_h["momentum"], weight_decay=sgd_h["weight_decay"])
    n_params = len(pair.student_parameters())
    sgd.velocities = [arrays[f"velocity.{i}"] for i in range(n_params)]
    bank_h = header["bank"]
    bank = AnchorBank.from_state(arrays["bank.storage"], bank_h["head"], bank_h["count"])
    return Checkpoint(pair=pair, sgd=sgd, bank=bank, epoch=header["epoch"],
                      step=header["step"], rng_states=header["rng_states"])
