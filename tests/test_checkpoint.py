"""Tests for the binary checkpoint container."""

import builtins
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import container_file
import simdistill.container
from simdistill.bank import AnchorBank
from simdistill.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from simdistill.data import gen_gaussian_mixture, load_dataset, save_dataset
from simdistill.errors import CheckpointError, ContractError, FormatError
from simdistill.nn import MlpSpec, ModelPair, SgdState, default_predictor_spec


def make_checkpoint(seed=0):
    pair = ModelPair.create(MlpSpec((3, 5, 2), final_normalize=True),
                            default_predictor_spec(2, hidden=4), 0.97, seed)
    pair.teacher_encoder.data[...] += 0.25      # the teacher differs from the student
    return Checkpoint(pair=pair, epoch=7, step=123)


class TestRoundTrip:
    def test_all_state_survives(self, tmp_path):
        ckpt = make_checkpoint()
        path = str(tmp_path / "c.bin")
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)

        assert back.encoder_spec == ckpt.encoder_spec
        assert back.predictor_spec == ckpt.predictor_spec
        assert back.pair.momentum == ckpt.pair.momentum
        assert back.epoch == 7 and back.step == 123
        for a, b in zip(ckpt.pair.student_parameters(), back.pair.student_parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(ckpt.pair.teacher_encoder.parameters(),
                        back.pair.teacher_encoder.parameters()):
            assert np.array_equal(a.data, b.data)
        assert not back.pair.teacher_encoder.trainable and back.pair.teacher_encoder.grad is None
        assert back.sgd is None and back.bank is None

    def test_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_checkpoint(make_checkpoint(), p1)
        save_checkpoint(make_checkpoint(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_file_holds_the_three_networks_and_nothing_else(self, tmp_path):
        """prefix + header + 8 bytes per float of two encoders and a predictor; an
        optimizer state or a bank handed to the Checkpoint is not written."""
        ckpt = make_checkpoint()
        ckpt.sgd = SgdState.for_params(ckpt.pair.student_parameters(), lr=0.05)
        ckpt.bank = AnchorBank(6, 2)
        path = tmp_path / "c.bin"
        save_checkpoint(ckpt, str(path))
        raw = path.read_bytes()
        floats = 2 * ckpt.encoder_spec.num_parameters + ckpt.predictor_spec.num_parameters
        assert len(container_file.split(raw)[3]) == 8 * floats
        save_checkpoint(make_checkpoint(), str(tmp_path / "plain.bin"))
        assert (tmp_path / "plain.bin").read_bytes() == raw


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.bin"))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_truncated_buffers(self, tmp_path):
        path = str(tmp_path / "cut.bin")
        save_checkpoint(make_checkpoint(), path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        save_checkpoint(make_checkpoint(), str(path))
        container_file.rewrite(path, version=9)
        with pytest.raises(CheckpointError, match="unsupported version 9, expected 4"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("encoder,predictor", [
        (MlpSpec((3, 5, 2)), default_predictor_spec(2, hidden=4)),
        (MlpSpec((3, 5, 2), final_normalize=True), MlpSpec((2, 4, 2), final_normalize=True)),
    ], ids=["encoder-unnormalised", "predictor-normalised"])
    def test_save_refuses_a_pair_the_loader_would_not_rebuild(self, tmp_path, encoder,
                                                              predictor):
        """The header keeps widths alone: a loaded encoder ends in L2 normalisation
        and a loaded predictor does not, so no other pair is written."""
        path = tmp_path / "c.bin"
        ckpt = Checkpoint(pair=ModelPair.create(encoder, predictor, 0.97, 0))
        with pytest.raises(ContractError, match="encoder must end in L2 normalisation"):
            save_checkpoint(ckpt, str(path))
        assert not path.exists()

    def test_header_bit_flip_in_the_momentum_raises(self, tmp_path):
        """The low bit of the last digit of "momentum":0.97 turns it into 0.96, a
        header that parses and passes every field check; the prefix's CRC refuses it."""
        path = tmp_path / "c.bin"
        save_checkpoint(make_checkpoint(), str(path))
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"momentum":0.97') + len(b'"momentum":0.97') - 1
        raw[at] ^= 1
        assert b'"momentum":0.96' in raw
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC-32"):
            load_checkpoint(str(path))


# Each file kind: how to write a tiny instance, how to load it, and its one error.
MALFORMED = {
    "checkpoint": (save_checkpoint, make_checkpoint, load_checkpoint, CheckpointError),
    "dataset": (save_dataset, lambda: gen_gaussian_mixture(2, 3, 3, 1.0, seed=0),
                load_dataset, FormatError),
}


class TestMalformedFiles:
    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        """Each kind's file bytes, saved once for all examples."""
        raw = {}
        for kind, (save, make, _, _) in MALFORMED.items():
            path = tmp_path_factory.mktemp(kind) / "f.bin"
            save(make(), str(path))
            raw[kind] = path.read_bytes()
        return raw

    @pytest.mark.parametrize("kind", MALFORMED)
    def test_header_holds_only_its_own_fields(self, pristine, kind):
        """The container adds nothing to a kind's header: its version and CRC
        live in the prefix."""
        _, version, header, _ = container_file.split(pristine[kind])
        assert version == {"checkpoint": 4, "dataset": 3}[kind]
        assert sorted(json.loads(header)) == {
            "checkpoint": ["encoder", "epoch", "momentum", "predictor", "step"],
            "dataset": ["n", "sample_shape", "split"]}[kind]

    @pytest.mark.parametrize("kind", MALFORMED)
    @given(data=st.data(), flip=st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_or_framing_bit_flip_raises_the_kinds_error(self, tmp_path, pristine,
                                                                   kind, data, flip):
        """Every truncation, and every bit flip in the prefix or the header, raises
        the file kind's error."""
        _, _, load, error = MALFORMED[kind]
        raw = pristine[kind]
        if flip:
            bit = data.draw(st.integers(0, 8 * container_file.payload_offset(raw) - 1),
                            label="bit")
            bad = bytearray(raw)
            bad[bit // 8] ^= 1 << bit % 8
        else:
            bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
        path = tmp_path / "f.bin"
        # a new file each example: writing over an old one costs ext4 a flush (40-70 ms)
        path.unlink(missing_ok=True)
        path.write_bytes(bytes(bad))
        with pytest.raises(error):
            load(str(path))

    @pytest.mark.parametrize("kind", MALFORMED)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_payload_bit_flip_raises_the_kinds_error(self, tmp_path, pristine, kind, data):
        """The prefix's CRC-32 catches every single-bit flip in the payload."""
        _, _, load, error = MALFORMED[kind]
        raw = pristine[kind]
        bit = data.draw(st.integers(8 * container_file.payload_offset(raw), 8 * len(raw) - 1),
                        label="bit")
        bad = bytearray(raw)
        bad[bit // 8] ^= 1 << bit % 8
        path = tmp_path / "f.bin"
        path.unlink(missing_ok=True)
        path.write_bytes(bytes(bad))
        with pytest.raises(error, match="CRC-32 .* of the header and payload"):
            load(str(path))


class FailsAfterFirstWrite:
    """A file that takes one write, then raises as a full disk would."""

    def __init__(self, path, mode):
        self.file = builtins.open(path, mode)
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.file.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


class TestAtomicWrites:
    @pytest.mark.parametrize("save,value", [
        (save_checkpoint, make_checkpoint()),
        (save_dataset, gen_gaussian_mixture(2, 5, 3, 1.0, seed=0)),
    ], ids=["checkpoint", "dataset"])
    def test_write_that_raises_partway_keeps_the_old_file(self, tmp_path, monkeypatch,
                                                          save, value):
        path = tmp_path / "target.bin"
        save(value, str(path))
        before = path.read_bytes()
        monkeypatch.setattr(simdistill.container, "open", FailsAfterFirstWrite, raising=False)
        with pytest.raises(OSError, match="no space"):
            save(value, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]
