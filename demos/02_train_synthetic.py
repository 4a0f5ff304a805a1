"""Train the distillation objective on a Gaussian-mixture corpus and watch
both networks' k-NN accuracy evolve.

Run: python demos/02_train_synthetic.py   (about 10 seconds)
"""

import simdistill as sd

train_ds = sd.gen_gaussian_mixture(3, 200, 32, 2.0, seed=7, split="train")
eval_ds = sd.gen_gaussian_mixture(3, 50, 32, 2.0, seed=7, split="eval")

baseline_enc = sd.init_params(sd.default_encoder_spec(32), [0, 0])
baseline = sd.knn_eval(sd.embed_dataset(baseline_enc, train_ds),
                       sd.embed_dataset(baseline_enc, eval_ds), 5)
print(f"random-init encoder k-NN: {baseline:.3f}")

cfg = sd.RunConfig(objective="isd", temperature=0.1, momentum=0.97,
                   bank_capacity=256, batch_size=64, epochs=120, lr=0.05,
                   lr_schedule="cosine", teacher_policy="aggressive",
                   student_policy="aggressive", eval_every=10)

trainer = sd.Trainer(cfg, train_ds.feature_dim)
print("epoch  teacher  student")
ckpt = trainer.run(train_ds, eval_ds,
                   on_eval=lambda e, t, s: print(f"{e:5d}  {t:.3f}    {s:.3f}"))

final_enc = ckpt.pair.student_encoder
final = sd.knn_eval(sd.embed_dataset(final_enc, train_ds),
                    sd.embed_dataset(final_enc, eval_ds), 5)
print(f"\ntrained student k-NN: {final:.3f}  (gain {100 * (final - baseline):+.1f} points)")
