"""Every command, fuzzed against one exit contract.

Each example runs one command on a tiny corpus with one to three ``--set``
overrides drawn from the fields of ``RunConfig``, each set to an edge value
of its type. Whatever the values, the command must end with a documented
exit code (0 ok, 3 config, 4 data, 5 checkpoint), write at most one line to
stderr and no traceback, and leave nothing under ``--out`` when it rejects
its config. A fixed sample of the same argvs must give the same exit code
with and without ``python -O``.

No drawn value may make a run allocate or loop for real: ``epochs`` and
``probe_epochs`` take only small values, and the one large size, 2**62, is
one whose arrays numpy cannot index, so the config check rejects it before
anything is allocated. The subprocesses run under a capped address space
all the same.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdistill.cli import main
from simdistill.config import RunConfig

# A tiny corpus and network for every command. The rare-class protocol keeps 2
# classes whole and cuts the others, so its corpus has 4 classes.
TINY = ["epochs=1", "bank_capacity=16", "batch_size=8", "encoder_widths=6,12,4",
        "eval_every=1", "data_classes=2", "data_per_class=12", "data_eval_per_class=6",
        "data_dim=6", "probe_epochs=5"]
TINY_UNBALANCED = [*TINY, "data_classes=4", "data_per_class=26", "data_eval_per_class=5"]

COMMANDS = {
    "train": ["train"],
    "eval": ["eval", "--checkpoint", "{checkpoint}"],
    "unbalanced": ["unbalanced", "--reps", "1"],
    "ablate-temperature": ["ablate-temperature", "--taus", "0.1"],
    "gen-data": ["gen-data"],
}

# Edge values per field type, as --set text. 2**62 is the one large size: every
# size field it can reach fails the config check before it allocates.
EDGES = {
    "int": ["0", "1", "-1", "2", str(2**62)],
    "float": ["0.0", "-0.0", "1.0", "-1.0", "1e-300", "1e300", "nan", "inf", "-inf"],
    "str": ["", "isd", "moco", "byol", "cosine", "mild", "aggressive", "noisy", "custom",
            "a#b", "missing.bin"],
    "tuple[int, ...]": ["", "0", "1", "2,1", "6,1,4", f"6,{2**62},4"],
}
# a run asked for 2**62 epochs rightly runs for ever
CAPPED = {"epochs": ["0", "1", "2", "-1"], "probe_epochs": ["0", "1", "-1"]}
FIELDS = [f.name for f in fields(RunConfig)]


def edges(name):
    return CAPPED.get(name) or EDGES[next(f.type for f in fields(RunConfig) if f.name == name)]


def argv(command, overrides, out, checkpoint):
    """The command line of ``command`` on the tiny corpus with ``overrides`` last."""
    base = TINY_UNBALANCED if command == "unbalanced" else TINY
    args = [a.format(checkpoint=checkpoint) for a in COMMANDS[command]]
    for entry in (*base, *overrides):
        args += ["--set", entry]
    return [*args, "--out", out]


override = st.sampled_from(FIELDS).flatmap(
    lambda name: st.sampled_from(edges(name)).map(lambda value: f"{name}={value}"))


def check_outcome(code, err, out):
    assert code in (0, 3, 4, 5), err
    assert "Traceback" not in err, err
    if code == 0:
        assert err == "", err
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    if code == 3:
        assert not os.path.exists(out), os.listdir(out)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fuzz") / "run")
    assert main(argv("train", [], out, None)) == 0
    return os.path.join(out, "checkpoint.bin")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)),
       overrides=st.lists(override, min_size=1, max_size=3))
def test_every_command_keeps_the_exit_contract(checkpoint, command, overrides):
    """In-process runs: a documented exit code, one stderr line at most, no
    traceback, and nothing under --out after a config error. A warning counts
    as stderr, since the command line would print it there."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv(command, overrides, out, checkpoint))
        text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
        check_outcome(code, text, out)


def _cap_address_space():
    cap = 2 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


# One argv per command, with exits 0, 3 and 4 among them. The first draws views
# whose every feature is masked: it once exited 4 without -O and 0 with it.
FIXED_SAMPLE = [
    ("train", ["data_dim=2", "encoder_widths=", "teacher_policy=aggressive",
               "student_policy=aggressive"]),
    ("eval", ["data_sep=1e300"]),
    ("unbalanced", ["lr=1e300"]),
    ("ablate-temperature", ["data_train=missing.bin", "data_eval=missing.bin"]),
    ("gen-data", [f"data_dim={2**62}"]),
]


def test_fixed_sample_exits_alike_with_and_without_O(tmp_path, checkpoint):
    """Each argv of the sample, run as ``python -m simdistill.cli`` in a subprocess
    whose address space is capped at 2 GiB, exits with the same code in both
    interpreter modes, and each run keeps the exit contract."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for i, (command, overrides) in enumerate(FIXED_SAMPLE):
        codes = []
        for flags in ([], ["-O"]):
            out = str(tmp_path / f"{i}{''.join(flags)}")
            done = subprocess.run([sys.executable, *flags, "-m", "simdistill.cli",
                                   *argv(command, overrides, out, checkpoint)],
                                  env=env, capture_output=True, text=True, timeout=120,
                                  preexec_fn=_cap_address_space)
            check_outcome(done.returncode, done.stderr, out)
            codes.append(done.returncode)
        assert codes[0] == codes[1], (command, overrides, codes)
