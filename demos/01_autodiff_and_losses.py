"""Anatomy of a step's backward and of the three objectives on toy embeddings.

Each objective scores a [b, d] block of queries; one query is a [1, d]
block. It returns its value and the gradient of that value with respect to
the student's block; the teacher embeddings, positive keys and anchors are
plain arrays and get none. A step carries that gradient back through the
predictor's and the student encoder's closed-form vjps.

Run: python demos/01_autodiff_and_losses.py
"""

import numpy as np

import simdistill as sd
import simdistill.tensor as T

rng = np.random.default_rng(0)

print("== a step's backward: three closed-form calls ==")
x = rng.standard_normal((3, 4))
encoder = sd.init_params(sd.MlpSpec((4, 8, 3), final_normalize=True), 0)
predictor = sd.init_params(sd.default_predictor_spec(3, hidden=5), 1)
emb, encoder_vjp = sd.mlp_forward(encoder, x, grad=True)
pred, predictor_vjp = sd.mlp_forward(predictor, emb, grad=True)
loss, grad = sd.byol_loss_batch(pred, emb)
encoder_vjp(predictor_vjp(grad), input_grad=False)
print(f"objective {grad.shape} -> predictor wrote {predictor.grad.size} gradients "
      f"-> encoder wrote {encoder.grad.size}")


def through_predictor(e):
    p, vjp = sd.mlp_forward(predictor, e, grad=True)
    value, g = sd.byol_loss_batch(p, emb)
    return value, vjp(g)


err = T.grad_check(through_predictor, emb, step=1e-5)
print(f"the predictor's input gradient against finite differences: {err:.2e}")

print("\n== the similarity distribution ==")
anchors = rng.standard_normal((6, 4))
query = rng.standard_normal((1, 4))
for tau in (0.02, 0.1, 0.5):
    p = sd.anchor_distribution_batch(query, anchors, tau)[0]
    print(f"tau={tau}: top mass {p.max():.3f}  entropy {float(sd.distribution_entropy(p)):.3f}")
print("lower temperature sharpens the teacher's view of the neighbourhood")

print("\n== the three objectives ==")
q_t = rng.standard_normal((1, 4))
q_s = rng.standard_normal((1, 4))
pos = rng.standard_normal((1, 4))
print("distillation  :", sd.isd_loss_batch(q_t, q_s, anchors, 0.1)[0])
print("contrastive   :", sd.moco_loss_batch(q_s, pos, anchors, 0.1)[0])
print("bootstrap     :", sd.byol_loss_batch(q_s, q_t)[0])

print("\n== gradients check out against finite differences ==")
err = T.grad_check(lambda q: sd.isd_loss_batch(q_t, q, anchors, 0.05), q_s, step=1e-5)
print(f"max relative error {err:.2e}")

print("\n== a batch loss is the mean of its rows' losses ==")
q_t3 = rng.standard_normal((3, 4))
q_s3 = rng.standard_normal((3, 4))
batch = sd.isd_loss_batch(q_t3, q_s3, anchors, 0.1)[0]
rows = [sd.isd_loss_batch(q_t3[i:i + 1], q_s3[i:i + 1], anchors, 0.1)[0] for i in range(3)]
print(f"batch {batch:.6f}  mean of rows {np.mean(rows):.6f}")
