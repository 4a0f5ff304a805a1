"""Effect of the softmax temperature on feature quality.

Sharp temperatures push the teacher's target toward one-hot (contrastive
behaviour, and at this scale a collapse risk); flat ones wash out the
neighbourhood signal. The sweep exposes the interior sweet spot.

Run: OPENBLAS_NUM_THREADS=1 python demos/05_temperature_sweep.py
(about 5 seconds on 2 CPUs: the three temperatures share them, one BLAS
thread each)
"""

import tempfile
from dataclasses import replace

from simdistill.experiments import ablation_base_config, temperature_sweep

cfg = replace(ablation_base_config(), data_per_class=120, epochs=40)
with tempfile.TemporaryDirectory() as tmp:
    rows = temperature_sweep(cfg, (0.01, 0.04, 0.2), tmp)

print(f"{'tau':>6} {'teacher_knn':>12} {'student_knn':>12}")
for r in rows:
    print(f"{r['tau']:>6} {r['teacher_knn']:>12.3f} {r['student_knn']:>12.3f}")
