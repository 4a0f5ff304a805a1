"""Frozen-teacher distillation: train a teacher under aggressive views, then
distill it into a fresh student that only ever sees mild views.

The student inherits the teacher's similarity structure without the
distortion statistics of heavy augmentation, and here ends up slightly
ahead of its teacher.

Run: python demos/03_distill_mild_views.py   (about 30 seconds)
"""

import os
import tempfile
from dataclasses import replace

import numpy as np

import simdistill as sd

train_ds = sd.gen_gaussian_mixture(3, 200, 32, 2.0, seed=31, split="train")
eval_ds = sd.gen_gaussian_mixture(3, 50, 32, 2.0, seed=31, split="eval")

rng = np.random.default_rng(0)
print("expected view distortion (L2):")
print(f"  mild       {sd.mean_distortion(train_ds.samples[:64], sd.MILD, rng):.3f}")
print(f"  aggressive {sd.mean_distortion(train_ds.samples[:64], sd.AGGRESSIVE, rng):.3f}")

cfg = sd.RunConfig(objective="isd", temperature=0.1, momentum=0.97,
                   bank_capacity=256, batch_size=64, epochs=120, lr=0.05,
                   lr_schedule="cosine", teacher_policy="aggressive",
                   student_policy="aggressive", eval_every=1000)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "teacher.bin")
    sd.save_checkpoint(sd.train(cfg, train_ds), path)

    teacher_enc = sd.load_checkpoint(path).pair.teacher_encoder
    teacher_acc = sd.knn_eval(sd.embed_dataset(teacher_enc, train_ds),
                              sd.embed_dataset(teacher_enc, eval_ds), 5)
    print(f"\naggressive-trained teacher k-NN: {teacher_acc:.3f}")

    # momentum is forced to 1 and both view policies to mild inside distill()
    out = sd.distill(replace(cfg, epochs=60), path, train_ds)
    student_enc = out.pair.student_encoder
    student_acc = sd.knn_eval(sd.embed_dataset(student_enc, train_ds),
                              sd.embed_dataset(student_enc, eval_ds), 5)
    print(f"mild-distilled student k-NN:     {student_acc:.3f}")

    frozen = all(np.array_equal(a.data, b.data)
                 for a, b in zip(out.pair.teacher_encoder.parameters(),
                                 teacher_enc.parameters()))
    print(f"teacher weights bitwise untouched by distillation: {frozen}")
