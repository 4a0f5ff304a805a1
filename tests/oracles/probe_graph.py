"""Reference for ``simdistill.evaluation.linear_probe``: the autodiff-graph fit.

The implementation the closed-form class-major fit replaced, kept verbatim
except that the fit is split out so that tests can compare weights. Each epoch builds matmul, add, log_softmax, mul, sum, neg and scale nodes
and runs ``backward``. Weights agree with the closed form to rounding, and
accuracies must be equal.
"""

import numpy as np

from oracles import graph_ops as G
from simdistill import tensor as T
from simdistill.errors import ContractError
from simdistill.evaluation import EmbeddingTable
from simdistill.tensor import Tensor


def fit(train: EmbeddingTable, epochs: int, lr: float):
    """Weights [d, c], bias [c] and sorted class ids, fitted through the autodiff graph."""
    classes = np.unique(train.labels)
    if len(classes) < 2:
        raise ContractError("linear_probe: need at least 2 classes in the train table")
    col_of = {int(c): i for i, c in enumerate(classes)}
    n, d = train.embeddings.shape
    c = len(classes)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), [col_of[int(y)] for y in train.labels]] = 1.0

    w = Tensor.parameter(np.zeros((d, c)))
    b = Tensor.parameter(np.zeros(c))
    x = Tensor(train.embeddings)
    target = Tensor(onehot)
    for _ in range(epochs):
        logits = T.add(T.matmul(x, w), b)
        logp = G.log_softmax(logits)
        loss = T.mul(G.neg(T.tensor_sum(T.mul(logp, target))), 1.0 / n)
        w.zero_grad()
        b.zero_grad()
        T.backward(loss)
        w.data -= lr * w.grad
        b.data -= lr * b.grad
    return w.data, b.data, classes


def linear_probe(train: EmbeddingTable, test: EmbeddingTable, epochs: int = 200,
                 lr: float = 1.0) -> float:
    """Accuracy of a single affine layer trained by full-batch gradient descent.

    Weights start at zero (no randomness), the inputs are the frozen
    unit-norm embeddings, and prediction argmax breaks ties toward the
    lowest class id.
    """
    w, b, classes = fit(train, epochs, lr)
    scores = test.embeddings @ w + b
    preds = classes[np.argmax(scores, axis=1)]
    return float(np.mean(preds == test.labels))
