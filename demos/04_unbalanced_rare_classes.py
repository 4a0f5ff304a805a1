"""Soft similarity targets vs one-hot targets when a few classes dominate.

Two repetitions of the unbalanced protocol: 8-class corpora where 2
random classes keep all their samples and 6 are cut 13-fold, both
objectives trained with identical budgets and seeds, k-NN evaluated on
balanced data. The distillation objective tends to give up less accuracy
on the rare classes, because the contrastive loss treats the abundant
same-class bank entries as negatives.

Run: OPENBLAS_NUM_THREADS=1 python demos/04_unbalanced_rare_classes.py
(about 15 seconds on 2 CPUs: the ISD and MoCo runs share them, one BLAS
thread each)
"""

import tempfile
from dataclasses import replace

import numpy as np

from simdistill.experiments import unbalanced_base_config, unbalanced_protocol

cfg = replace(unbalanced_base_config(), epochs=100)   # half budget, demo speed
with tempfile.TemporaryDirectory() as tmp:
    rows = unbalanced_protocol(cfg, reps=2, seed=1, out_dir=tmp)

print(f"{'rep':>3} {'isd_all':>8} {'moco_all':>9} {'isd_rare':>9} {'moco_rare':>10} "
      f"{'diff_all':>9} {'diff_rare':>10}")
for i, r in enumerate(rows):
    print(f"{i:>3} {r['isd_all']:>8.3f} {r['moco_all']:>9.3f} {r['isd_rare']:>9.3f} "
          f"{r['moco_rare']:>10.3f} {r['diff_all']:>+9.3f} {r['diff_rare']:>+10.3f}")

print(f"\nmean all-class gain:  {np.mean([r['diff_all'] for r in rows]):+.3f}")
print(f"mean rare-class gain: {np.mean([r['diff_rare'] for r in rows]):+.3f}")
