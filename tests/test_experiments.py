"""Tests for the drivers of ``simdistill.experiments``: their input checks,
their config echo, and the fan-out of independent runs.

``fan_out`` sizes itself from ``os.sched_getaffinity``, so each fan-out
test pins the mask it needs: ``{0}`` for the inline path, ``{0, 1}`` (or
more) for forked workers.
"""

import functools
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from simdistill import evaluation, experiments
from simdistill.checkpoint import load_checkpoint
from simdistill.cli import main
from simdistill.config import RunConfig, apply_overrides, load_config
from simdistill.data import LabeledDataset
from simdistill.errors import (ConfigError, ContractError, FormatError, LengthError,
                               NumericDomainError, SimDistillError)
from simdistill.experiments import (evaluate_checkpoint, fan_out, run_training,
                                    temperature_sweep, unbalanced_protocol,
                                    write_synthetic_datasets)
from simdistill.nn import init_params

# One-epoch runs on a 4-class corpus, as config overrides.
TINY = ["epochs=1", "bank_capacity=16", "batch_size=8", "encoder_widths=6,12,4",
        "data_classes=4", "data_per_class=26", "data_eval_per_class=5", "data_dim=6"]


@pytest.fixture
def cpus(monkeypatch):
    """Set the affinity mask that ``fan_out`` sees to ``count`` CPUs."""
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return pin


@pytest.fixture
def deadline():
    """Raise TimeoutError in a test that waits more than 60 s on its workers."""
    def expire(signum, frame):
        raise TimeoutError("fan_out did not return within 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def square_with_pid(x):
    return x * x, os.getpid()


def fail_at(bad, error, x):
    if x == bad:
        raise error(f"task {x} failed")
    return x


def die_outside(caller, x):
    """Ends a worker without a result; the calling process is never ended."""
    if os.getpid() != caller:
        os._exit(3)
    return x


def blas_threads(x):
    return experiments._openblas_threads()[0]()


def slow_outside(caller, x):
    """Raises in the calling process and sleeps in a worker."""
    if os.getpid() == caller:
        raise NumericDomainError("caller failed")
    time.sleep(60)
    return x


class TestFanOut:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_in_task_order(self, cpus, count):
        cpus(count)
        tasks = list(range(7))
        results = fan_out(square_with_pid, tasks)
        assert [r for r, _ in results] == [x * x for x in tasks]
        pids = [pid for _, pid in results]
        # The caller runs every count-th task, starting with the first.
        assert [pid == os.getpid() for pid in pids] == [i % count == 0 for i in tasks]
        assert len(set(pids)) == count
        assert multiprocessing.active_children() == []

    def test_one_cpu_starts_no_process(self, cpus, monkeypatch):
        cpus(1)

        def no_fork():
            raise AssertionError("fan_out forked with one CPU")
        monkeypatch.setattr(os, "fork", no_fork)
        assert fan_out(square_with_pid, [1, 2, 3]) == [(1, os.getpid()), (4, os.getpid()),
                                                       (9, os.getpid())]

    def test_fewer_tasks_than_cpus(self, cpus):
        cpus(2)
        assert fan_out(square_with_pid, [5]) == [(25, os.getpid())]
        assert fan_out(square_with_pid, []) == []

    @pytest.mark.parametrize("error", [NumericDomainError, ContractError, FormatError,
                                       LengthError, SimDistillError])
    def test_worker_error_reaches_caller(self, cpus, error, deadline):
        cpus(2)
        with pytest.raises(error) as raised:
            fan_out(functools.partial(fail_at, 3, error), list(range(6)))
        assert type(raised.value) is error
        assert str(raised.value) == "task 3 failed"
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_contract_error(self, cpus, deadline):
        cpus(2)
        with pytest.raises(ContractError, match="exited with status 3"):
            fan_out(functools.partial(die_outside, os.getpid()), [0, 1, 2, 3])
        assert multiprocessing.active_children() == []

    def test_caller_error_ends_the_workers(self, cpus, deadline):
        cpus(2)
        started = time.perf_counter()
        with pytest.raises(NumericDomainError, match="caller failed"):
            fan_out(functools.partial(slow_outside, os.getpid()), [0, 1])
        assert time.perf_counter() - started < 30
        assert multiprocessing.active_children() == []


class TestForkedRunsMatchInline:
    """The CSVs of a forked run are byte-equal to those of the inline path."""

    def run_both(self, cpus, tmp_path, name, run):
        outputs = {}
        for count in (1, 2, 3):
            cpus(count)
            out = str(tmp_path / f"cpus{count}")
            run(out)
            with open(os.path.join(out, name), "rb") as f:
                outputs[count] = f.read()
        assert outputs[1] == outputs[2] == outputs[3]
        return outputs[1]

    def test_unbalanced_csv(self, cpus, tmp_path):
        cfg = apply_overrides(experiments.unbalanced_base_config(), TINY)
        text = self.run_both(cpus, tmp_path, "unbalanced.csv",
                             lambda out: unbalanced_protocol(cfg, 2, 1, out))
        assert len(text.decode().splitlines()) == 3

    def test_eval_csv(self, cpus, tmp_path, trained):
        """The caller scores the teacher and the worker the student."""
        cfg = apply_overrides(RunConfig(), TINY)
        text = self.run_both(cpus, tmp_path, "eval.csv",
                             lambda out: evaluate_checkpoint(cfg, trained, out))
        values = {}
        for line in text.decode().splitlines()[1:]:
            metric, k, value, source, _ = line.split(",")
            values.setdefault(source, []).append((metric, k, value))
        assert list(values) == ["teacher", "student"]
        assert [row[:2] for row in values["teacher"]] == [row[:2] for row in values["student"]]
        assert values["teacher"] != values["student"]

    def test_temperature_csv(self, cpus, tmp_path):
        cfg = apply_overrides(experiments.ablation_base_config(), TINY)
        text = self.run_both(cpus, tmp_path, "temperature.csv",
                             lambda out: temperature_sweep(cfg, (0.02, 0.05, 0.1), out))
        assert [line.split(",")[0] for line in text.decode().splitlines()] == \
            ["tau", "0.02", "0.05", "0.1"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Checkpoint of a 4-epoch run, trained long enough that teacher and student differ."""
    out = str(tmp_path_factory.mktemp("trained"))
    run_training(apply_overrides(RunConfig(), [*TINY, "epochs=4"]), out)
    return os.path.join(out, "checkpoint.bin")


# Each driver called as a library, as (overrides, call(cfg, out, checkpoint)).
FAULTY_CALLS = {
    "train": (["lr=-1"], lambda cfg, out, ckpt: run_training(cfg, out)),
    "train-tau": (["temperature=1e-320"], lambda cfg, out, ckpt: run_training(cfg, out)),
    "train-echo": (["data_train=runs#1/t.bin", "data_eval=e.bin"],
                   lambda cfg, out, ckpt: run_training(cfg, out)),
    "distill": (["lr=-1"], lambda cfg, out, ckpt: run_training(cfg, out, teacher_path=ckpt)),
    "eval": (["probe_lr=-1"], lambda cfg, out, ckpt: evaluate_checkpoint(cfg, ckpt, out)),
    "eval-recall": (["data_eval_per_class=1"],
                    lambda cfg, out, ckpt: evaluate_checkpoint(cfg, ckpt, out)),
    "sweep": (["lr=-1"], lambda cfg, out, ckpt: temperature_sweep(cfg, (0.1,), out)),
    "sweep-tau": ([], lambda cfg, out, ckpt: temperature_sweep(cfg, (0.1, -1.0), out)),
    "sweep-tau-inverse": ([], lambda cfg, out, ckpt: temperature_sweep(cfg, (0.1, 1e-320), out)),
    "sweep-empty": ([], lambda cfg, out, ckpt: temperature_sweep(cfg, (), out)),
    "unbalanced": (["lr=-1"], lambda cfg, out, ckpt: unbalanced_protocol(cfg, 1, 1, out)),
    "unbalanced-seed": ([], lambda cfg, out, ckpt: unbalanced_protocol(cfg, 1, -1, out)),
    "gen-data": (["lr=-1"], lambda cfg, out, ckpt: write_synthetic_datasets(cfg, out)),
}


class TestDriverInputChecks:
    @pytest.mark.parametrize("case", FAULTY_CALLS)
    def test_invalid_config_is_config_error_before_any_output(self, tmp_path, trained, case):
        """A library caller gets the checks the command line gets."""
        overrides, call = FAULTY_CALLS[case]
        cfg = apply_overrides(RunConfig(), [*TINY, *overrides])
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            call(cfg, str(out), trained)
        assert not out.exists()

    def test_unbalanced_echo_replays_the_protocol(self, tmp_path):
        """resolved.cfg holds the seed the protocol ran with, not the config's
        seed_init, so replaying it writes the same CSV."""
        cfg = apply_overrides(experiments.unbalanced_base_config(), TINY)
        assert cfg.seed_init != 5
        library, replay = tmp_path / "library", tmp_path / "replay"
        unbalanced_protocol(cfg, 1, 5, str(library))
        assert load_config(str(library / "resolved.cfg")).seed_init == 5
        assert main(["unbalanced", "--config", str(library / "resolved.cfg"), "--reps", "1",
                     "--out", str(replay)]) == 0
        assert (library / "unbalanced.csv").read_bytes() == (replay / "unbalanced.csv").read_bytes()


class TestEvalCommandErrors:
    @pytest.mark.parametrize("failing", ["teacher", "student"])
    def test_error_in_one_half_is_exit_4(self, cpus, monkeypatch, capsys, tmp_path, deadline,
                                         trained, failing):
        """The teacher half runs in the caller, the student half in the worker."""
        cpus(2)
        pair = load_checkpoint(trained).pair
        weights = (pair.teacher_encoder if failing == "teacher" else pair.student_encoder).data
        real_embed = experiments.embed_dataset

        def embed_dataset(encoder, ds):
            if np.array_equal(encoder.data, weights):
                raise NumericDomainError(f"{failing} embedding diverged")
            return real_embed(encoder, ds)
        monkeypatch.setattr(experiments, "embed_dataset", embed_dataset)
        code = main(["eval", "--checkpoint", trained, "--out", str(tmp_path / "e"),
                     *(arg for kv in TINY for arg in ("--set", kv))])
        assert code == 4
        assert f"error: {failing} embedding diverged" in capsys.readouterr().err
        assert not (tmp_path / "e" / "eval.csv").exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergent_probe_is_exit_4(self, cpus, capsys, tmp_path, deadline, trained):
        cpus(2)
        code = main(["eval", "--checkpoint", trained, "--out", str(tmp_path / "e"),
                     *(arg for kv in [*TINY, "probe_lr=1.5e308"] for arg in ("--set", kv))])
        assert code == 4
        assert "linear_probe: logits became non-finite" in capsys.readouterr().err
        assert not (tmp_path / "e" / "eval.csv").exists()
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(experiments._openblas_threads() is None,
                    reason="numpy's BLAS is not scipy-openblas")
class TestBlasThreads:
    """``fan_out`` runs one OpenBLAS thread per process and restores the caller's count;
    a training run writes the same bytes at any thread count."""

    @pytest.fixture
    def two_threads(self, monkeypatch):
        """Two BLAS threads in this process, as if no thread count had been set."""
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        get_threads, set_threads = experiments._openblas_threads()
        previous = get_threads()
        set_threads(2)
        yield get_threads
        set_threads(previous)

    def test_one_thread_per_process_while_forked(self, cpus, two_threads):
        cpus(2)
        assert fan_out(blas_threads, [0, 1, 2]) == [1, 1, 1]
        assert two_threads() == 2

    def test_inline_run_keeps_the_count(self, cpus, two_threads):
        cpus(1)
        assert fan_out(blas_threads, [0, 1]) == [2, 2]

    @pytest.mark.parametrize("fn", [functools.partial(fail_at, 1, ContractError),
                                    functools.partial(slow_outside, os.getpid())],
                             ids=["worker", "caller"])
    def test_count_restored_after_a_raise(self, cpus, two_threads, deadline, fn):
        cpus(2)
        with pytest.raises(SimDistillError):
            fan_out(fn, [0, 1])
        assert two_threads() == 2

    @pytest.mark.parametrize("objective", ["isd", "moco"])
    def test_trained_bytes_do_not_depend_on_the_thread_count(self, tmp_path, objective):
        """A default prefill leaves K = 984 of the 1024 anchors, and OpenBLAS would
        round the student-gradient product with them differently at 1 and 2
        threads; padded to a multiple of 32, a default run writes the same
        ``metrics.csv`` and ``checkpoint.bin`` at both."""
        get_threads, set_threads = experiments._openblas_threads()
        previous = get_threads()
        runs = []
        try:
            for threads in (1, 2):
                set_threads(threads)
                out = tmp_path / f"threads{threads}"
                assert main(["train", "--out", str(out), "--set", "epochs=2",
                             "--set", f"objective={objective}"]) == 0
                runs.append([(out / name).read_bytes()
                             for name in ("metrics.csv", "checkpoint.bin")])
        finally:
            set_threads(previous)
        assert runs[0] == runs[1]

    def test_user_setting_wins(self):
        """With ``OPENBLAS_NUM_THREADS`` set at start-up, ``fan_out`` leaves the count alone."""
        script = ("import os\n"
                  "os.sched_getaffinity = lambda pid: {0, 1}\n"
                  "from simdistill import experiments\n"
                  "get_threads, set_threads = experiments._openblas_threads()\n"
                  "set_threads(2)\n"
                  "print(experiments.fan_out(lambda x: get_threads(), [0, 1]), get_threads())\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.split() == ["[2,", "2]", "2"]


class TestUnbalancedCommandErrors:
    def test_error_in_moco_worker_is_exit_4(self, cpus, monkeypatch, capsys, tmp_path,
                                            deadline):
        """ISD trains in the caller, MoCo in the worker; only MoCo raises."""
        cpus(2)
        real_train = experiments.train

        def train(cfg, *args, **kwargs):
            if cfg.objective == "moco":
                raise NumericDomainError("moco diverged")
            return real_train(cfg, *args, **kwargs)
        monkeypatch.setattr(experiments, "train", train)
        code = main(["unbalanced", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "u"),
                     *(arg for kv in TINY for arg in ("--set", kv))])
        assert code == 4
        assert "error: moco diverged" in capsys.readouterr().err
        assert not (tmp_path / "u" / "unbalanced.csv").exists()
        assert multiprocessing.active_children() == []


class TestProtocolScoringMemory:
    def test_knn_scores_hold_the_tables_and_a_few_blocks(self):
        """The scoring half of an unbalanced repetition, at its shape (2080 balanced
        rows, 400 eval rows, 300 rare-class rows, 64 dims) with a random encoder:
        the traced peak is the three tables, two k-NN blocks and one 512-row chunk
        of encoder activations. The one [400, 2080] similarity product (6.66 MB)
        took it to 8.2 MB."""
        cfg = experiments.unbalanced_base_config()
        balanced, eval_ds = experiments.build_datasets(cfg)
        rare = eval_ds.labels >= experiments.UNBALANCED_LARGE_CLASSES
        rare_eval = LabeledDataset(eval_ds.samples[rare], eval_ds.labels[rare], split="eval")
        encoder_spec = cfg.model_specs(balanced.feature_dim)[0]
        encoder = init_params(encoder_spec, 1)
        tables = 8 * encoder_spec.output_dim * (len(balanced) + len(eval_ds) + len(rare_eval))
        activations = 8 * 512 * sum(encoder_spec.layer_widths[1:])
        tracemalloc.start()
        try:
            experiments._knn_scores(encoder, balanced, eval_ds, rare_eval, cfg.eval_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(balanced), len(eval_ds), len(rare_eval)) == (2080, 400, 300)
        assert peak <= tables + 2 * evaluation._BLOCK_BUDGET + activations
