"""Tests for the fan-out of independent trainings in ``simdistill.experiments``.

``fan_out`` sizes itself from ``os.sched_getaffinity``, so each test pins
the mask it needs: ``{0}`` for the inline path, ``{0, 1}`` (or more) for
forked workers.
"""

import functools
import multiprocessing
import os
import signal
import time

import pytest

from simdistill import experiments
from simdistill.cli import main
from simdistill.config import apply_overrides
from simdistill.errors import (ContractError, FormatError, LengthError, NumericDomainError,
                               SimDistillError)
from simdistill.experiments import fan_out, temperature_sweep, unbalanced_protocol

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

    def test_temperature_csv(self, cpus, tmp_path):
        cfg = apply_overrides(experiments.ablation_base_config(), TINY)
        text = self.run_both(cpus, tmp_path, "temperature.csv",
                             lambda out: temperature_sweep(cfg, (0.02, 0.05, 0.1), out))
        assert [line.split(",")[0] for line in text.decode().splitlines()] == \
            ["tau", "0.02", "0.05", "0.1"]


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
