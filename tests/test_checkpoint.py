"""Tests for the binary checkpoint container."""

import builtins
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import simdistill.container
from simdistill.bank import AnchorBank
from simdistill.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from simdistill.data import gen_gaussian_mixture, load_dataset, save_dataset
from simdistill.errors import CheckpointError, FormatError
from simdistill.nn import MlpSpec, ModelPair, SgdState, default_predictor_spec


def make_checkpoint(seed=0):
    pair = ModelPair.create(MlpSpec((3, 5, 2), final_normalize=True),
                            default_predictor_spec(2, hidden=4), 0.97, seed)
    sgd = SgdState.for_params(pair.student_parameters(), lr=0.05)
    for v in sgd.velocities:
        v += 0.25
    bank = AnchorBank(6, 2)
    rows = np.random.default_rng(seed + 1).standard_normal((4, 2))
    bank.enqueue(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    rng = np.random.default_rng(seed + 2)
    rng.random(13)
    return Checkpoint(pair=pair, sgd=sgd, bank=bank, epoch=7, step=123,
                      rng_states={"data": rng.bit_generator.state})


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
        assert back.rng_states == ckpt.rng_states
        for a, b in zip(ckpt.pair.student_parameters(), back.pair.student_parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(ckpt.pair.teacher_encoder.parameters(),
                        back.pair.teacher_encoder.parameters()):
            assert np.array_equal(a.data, b.data)
            assert not b.requires_grad
        for a, b in zip(ckpt.sgd.velocities, back.sgd.velocities):
            assert np.array_equal(a, b)
        assert np.array_equal(back.bank.snapshot(), ckpt.bank.snapshot())
        assert back.bank.head == ckpt.bank.head

    def test_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_checkpoint(make_checkpoint(), p1)
        save_checkpoint(make_checkpoint(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_restored_rng_resumes_the_stream(self, tmp_path):
        ckpt = make_checkpoint()
        path = str(tmp_path / "c.bin")
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)

        reference = np.random.default_rng(2)
        reference.random(13)
        resumed = np.random.default_rng()
        resumed.bit_generator.state = back.rng_states["data"]
        assert np.array_equal(resumed.random(5), reference.random(5))


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
        path = str(tmp_path / "v9.bin")
        save_checkpoint(make_checkpoint(), path)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 9
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


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
    @given(data=st.data(), flip=st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_truncation_or_framing_bit_flip_raises_the_kinds_error(self, tmp_path, pristine,
                                                                   kind, data, flip):
        """Every truncation raises the file kind's error; a bit flip in the prefix or the
        header loads or raises that same error. (A payload flip changes a value and
        loads: the format has no checksum.)"""
        _, _, load, error = MALFORMED[kind]
        raw = pristine[kind]
        if flip:
            framed = 16 + struct.unpack("<Q", raw[8:16])[0]
            bit = data.draw(st.integers(0, 8 * framed - 1), label="bit")
            bad = bytearray(raw)
            bad[bit // 8] ^= 1 << bit % 8
        else:
            bad = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
        path = tmp_path / "f.bin"
        # a new file each example: writing over an old one costs ext4 a flush (40-70 ms)
        path.unlink(missing_ok=True)
        path.write_bytes(bytes(bad))
        try:
            load(str(path))
        except error:
            return
        assert flip, "a truncated file loaded"


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
