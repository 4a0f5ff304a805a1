"""Anatomy of the engine and the three objectives on toy embeddings.

Each objective scores a [b, d] block of queries; one query is a [1, d]
block. Only the student's block is a ``Tensor`` the graph differentiates;
the teacher embeddings, positive keys and anchors are plain arrays.

Run: python demos/01_autodiff_and_losses.py
"""

import numpy as np

import simdistill as sd
import simdistill.tensor as T

rng = np.random.default_rng(0)

print("== reverse-mode engine ==")
x = sd.Tensor.parameter(rng.standard_normal((3, 4)))
loss = T.mul(T.tensor_sum(T.mul(x, x)), 0.5)
T.backward(loss)
print("d/dx of sum(x*x)/2 equals x:", np.allclose(x.grad, x.data))

print("\n== the similarity distribution ==")
anchors = rng.standard_normal((6, 4))
query = rng.standard_normal((1, 4))
for tau in (0.02, 0.1, 0.5):
    p = sd.anchor_distribution_batch(query, anchors, tau)[0]
    print(f"tau={tau}: top mass {p.max():.3f}  entropy {float(sd.distribution_entropy(p)):.3f}")
print("lower temperature sharpens the teacher's view of the neighbourhood")

print("\n== the three objectives ==")
q_t = rng.standard_normal((1, 4))
q_s = sd.Tensor.parameter(rng.standard_normal((1, 4)))
pos = rng.standard_normal((1, 4))
print("distillation  :", sd.isd_loss_batch(q_t, q_s, anchors, 0.1)[0].item())
print("contrastive   :", sd.moco_loss_batch(q_s, pos, anchors, 0.1).item())
print("bootstrap     :", sd.byol_loss_batch(q_s, q_t).item())

print("\n== gradients check out against finite differences ==")
err = T.grad_check(lambda: sd.isd_loss_batch(q_t, q_s, anchors, 0.05)[0], [q_s], step=1e-5)
print(f"max relative error {err:.2e}")

print("\n== a batch loss is the mean of its rows' losses ==")
q_t3 = rng.standard_normal((3, 4))
q_s3 = rng.standard_normal((3, 4))
batch = sd.isd_loss_batch(q_t3, sd.Tensor(q_s3), anchors, 0.1)[0].item()
rows = [sd.isd_loss_batch(q_t3[i:i + 1], sd.Tensor(q_s3[i:i + 1]), anchors, 0.1)[0].item()
        for i in range(3)]
print(f"batch {batch:.6f}  mean of rows {np.mean(rows):.6f}")
