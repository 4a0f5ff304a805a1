"""Versioned binary checkpoint, in the framed container of ``container.py``.

The payload holds the three networks' parameters as float64 in the order
the header declares. Every field is derived from deterministic state, so
runs with equal seeds produce byte-identical files.

The buffer table follows from the two MLP specs: the student encoder's
layers (w0, b0, w1, ...), then the predictor's, then the teacher
encoder's. A loader accepts no other table, and any fault in the file
raises CheckpointError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bank import AnchorBank
from .container import check_fields, read_container, write_container
from .errors import CheckpointError, ContractError, ShapeError
from .nn import MlpParams, MlpSpec, ModelPair, SgdState

_MAGIC = b"SDCP"
_VERSION = 2
_HEADER_FIELDS = {"encoder": dict, "predictor": dict, "momentum": (int, float), "epoch": int,
                  "step": int, "buffers": list}
_SPEC_FIELDS = {"widths": list, "normalize": bool}
_NETWORKS = ("student_encoder", "student_predictor", "teacher_encoder")


@dataclass
class Checkpoint:
    """The three networks of a training run, for evaluation and distillation."""

    pair: ModelPair
    epoch: int = 0
    step: int = 0
    # Never saved, and None after a load: the benchmark's eval-roundtrip workload
    # builds a Checkpoint with both, and its tests read bank.storage.
    sgd: SgdState | None = None
    bank: AnchorBank | None = None

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


def _layout(encoder: MlpSpec, predictor: MlpSpec) -> list[dict]:
    """The header record of every buffer, in file order."""
    return [{"name": f"{prefix}.{'wb'[i % 2]}{i // 2}", "shape": list(shape)}
            for prefix, spec in zip(_NETWORKS, (encoder, predictor, encoder))
            for i, shape in enumerate(spec.parameter_shapes)]


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write the container through a temporary file, so a failed write keeps the old one."""
    pair = ckpt.pair
    header = {
        "encoder": _spec_dict(ckpt.encoder_spec),
        "predictor": _spec_dict(ckpt.predictor_spec),
        "momentum": pair.momentum,
        "epoch": ckpt.epoch,
        "step": ckpt.step,
        "buffers": _layout(ckpt.encoder_spec, ckpt.predictor_spec),
    }
    # Records are row-major and back to back, so each network's flat buffer
    # writes the bytes of its per-layer records.
    write_container(path, _MAGIC, _VERSION, header, [pair.student_encoder.data,
                                                     pair.student_predictor.data,
                                                     pair.teacher_encoder.data])


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; any fault in the file, truncation included, raises CheckpointError."""
    try:
        container = read_container(path, _MAGIC, _VERSION, _HEADER_FIELDS, CheckpointError)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    header = container.header
    for key in ("encoder", "predictor"):
        check_fields(header[key], _SPEC_FIELDS, CheckpointError, f"{path}: header {key}")
    try:
        encoder_spec = _spec_from(header["encoder"])
        predictor_spec = _spec_from(header["predictor"])
    except ContractError as e:
        raise CheckpointError(f"{path}: {e}") from e

    want = _layout(encoder_spec, predictor_spec)
    got = header["buffers"]
    if got != want:
        i = next(i for i in range(max(len(got), len(want)))
                 if i >= min(len(got), len(want)) or got[i] != want[i])
        raise CheckpointError(f"{path}: buffer record {i} is "
                              f"{got[i] if i < len(got) else 'missing'}, expected "
                              f"{want[i] if i < len(want) else 'none'}")
    n_encoder, n_predictor = encoder_spec.num_parameters, predictor_spec.num_parameters
    encoder, predictor, teacher = container.blocks(
        ("<f8", n_encoder), ("<f8", n_predictor), ("<f8", n_encoder))
    try:
        pair = ModelPair(MlpParams(encoder_spec, encoder.copy()),
                         MlpParams(predictor_spec, predictor.copy()),
                         MlpParams(encoder_spec, teacher.copy(), trainable=False),
                         header["momentum"])
    except (ContractError, ShapeError) as e:
        raise CheckpointError(f"{path}: {e}") from e
    return Checkpoint(pair=pair, epoch=header["epoch"], step=header["step"])
