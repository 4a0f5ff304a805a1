"""Versioned binary checkpoint, in the framed container of ``container.py``.

The header holds five fields: the encoder's and the predictor's layer
widths, the teacher momentum, and the epoch and step counts. The payload
holds the student encoder's, the predictor's and the teacher encoder's
flat parameter buffers as float64, back to back; each buffer's layout
follows from its widths (``MlpSpec.parameter_shapes``). An encoder ends in
L2 normalisation and the predictor does not, so the header need not say
so. Every field is derived from deterministic state, so runs with equal
seeds produce byte-identical files, and any fault in a file raises
CheckpointError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bank import AnchorBank
from .container import read_container, write_container
from .errors import CheckpointError, ContractError, ShapeError
from .nn import MlpParams, MlpSpec, ModelPair, SgdState

_MAGIC = b"SDCP"
_VERSION = 4
_HEADER_FIELDS = {"encoder": list, "predictor": list, "momentum": (int, float), "epoch": int,
                  "step": int}


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


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write the container through a temporary file, so a failed write keeps the old one.

    The encoder must end in L2 normalisation and the predictor must not, as
    every configured pair does; the loader rebuilds the specs that way.
    """
    if not ckpt.encoder_spec.final_normalize or ckpt.predictor_spec.final_normalize:
        raise ContractError("save_checkpoint: the encoder must end in L2 normalisation "
                            "and the predictor must not")
    pair = ckpt.pair
    header = {
        "encoder": list(ckpt.encoder_spec.layer_widths),
        "predictor": list(ckpt.predictor_spec.layer_widths),
        "momentum": pair.momentum,
        "epoch": ckpt.epoch,
        "step": ckpt.step,
    }
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
    for key in ("epoch", "step"):
        if header[key] < 0:
            raise CheckpointError(f"{path}: header field {key!r} must be non-negative, "
                                  f"got {header[key]}")
    try:
        encoder_spec = MlpSpec(tuple(header["encoder"]), final_normalize=True)
        predictor_spec = MlpSpec(tuple(header["predictor"]))
    except ContractError as e:
        raise CheckpointError(f"{path}: {e}") from e
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
