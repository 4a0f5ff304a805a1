"""Test-session settings, loaded before any test module imports numpy.

The suite runs with one BLAS thread, the reference setting of the
benchmark, so its wall time is comparable between runs and machines.
Every test must also end with no child process left running.
"""

import multiprocessing
import os

import pytest

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


@pytest.fixture(autouse=True)
def no_process_left_behind():
    """Fail the test after which a child process still runs; end that child,
    so the next test starts clean."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join(timeout=10)
    if children:
        pytest.fail(f"test left child processes running: {children}")
