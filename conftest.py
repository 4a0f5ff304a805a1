"""Test-session settings, loaded before any test module imports numpy.

The suite runs with one BLAS thread, the reference setting of the
benchmark, so its wall time is comparable between runs and machines.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
