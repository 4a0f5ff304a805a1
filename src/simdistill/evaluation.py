"""Feature-quality evaluation: k-NN accuracy, linear probe, recall@k.

All metrics operate on tables of unit-norm embeddings, so cosine
similarity is a plain dot product and every evaluator is invariant to a
common positive rescaling of the features it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .errors import ContractError, NumericDomainError, ShapeError
from .nn import MlpParams, mlp_forward
from .tensor import off_unit


@dataclass
class EmbeddingTable:
    """Unit-norm (or all-zero) embedding rows with their labels."""

    embeddings: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.embeddings.ndim != 2 or len(self.embeddings) < 1:
            raise ContractError(f"embeddings must be a non-empty [N, d] matrix, got {self.embeddings.shape}")
        if len(self.labels) != len(self.embeddings):
            raise ContractError("one label per embedding row required")
        if self.labels.min() < 0:
            raise ContractError(f"labels must be non-negative, got {int(self.labels.min())}")
        if off_unit(self.embeddings) > 1e-10:
            raise ContractError("embedding rows must be unit norm or zero (off by more than 1e-10)")


def embed_dataset(encoder: MlpParams, ds: LabeledDataset) -> EmbeddingTable:
    """Encode a dataset, 512 rows at a time, keeping no activations or vjp; the
    encoder must end in L2 normalisation, as the table checks its rows."""
    x = ds.as_matrix()
    chunks = [mlp_forward(encoder, x[start:start + 512]) for start in range(0, len(x), 512)]
    return EmbeddingTable(np.concatenate(chunks, axis=0), ds.labels)


# Bytes of the similarity block that knn_eval multiplies and selects per
# pass; the selection copies it once more (np.partition), so a call's traced
# peak is about twice this. At the unbalanced protocol's shape (400 test
# rows, 2080 train rows, one BLAS thread) 256 KiB blocks made a call about
# 20% slower than one whole product, and 1 MiB blocks took the peak past
# 2 MB. A block this size stays on the heap in a
# process that built a Trainer (train._keep_step_buffers_on_heap sets a
# 1 MiB mmap threshold); the eval command builds none, so there glibc's
# adaptive threshold decides.
_BLOCK_BUDGET = 768 << 10


def knn_eval(train: EmbeddingTable, test: EmbeddingTable, k: int = 5) -> float:
    """k-nearest-neighbour accuracy under cosine similarity with majority vote.

    A split vote falls back to the label of the single nearest neighbour.
    Equal similarities rank by train-row index (stable sort), so results
    are deterministic.

    Similarities are multiplied, picked and voted a block of test rows at a
    time, so no [n_test, n_train] block is held, only one within
    ``_BLOCK_BUDGET``. Each row's pick and vote read only that row. A block
    holds at least two rows, and a one-row remainder joins the block before
    it: numpy sends a one-row product to gemv, which rounds unlike gemm.
    Whether a row block of a gemm rounds like the whole product depends on
    the BLAS and the shape. On OpenBLAS 0.3.31 it did at the protocol's 2080
    train rows, but not at most train-row counts that are not a multiple of
    8, nor for a 2- or 3-row block against 400 train rows. There a
    similarity may differ from the one-product form in its last bit, which
    changes a prediction only where that bit decides a neighbour or a vote.
    When ``test`` and ``train`` hold one array, numpy computes the whole
    ``A @ A.T`` with syrk, which a row block need not match either; no
    caller scores a table against itself.
    """
    if k < 1:
        raise ContractError("knn_eval: k must be at least 1")
    if k > len(train.labels):
        raise ContractError(f"knn_eval: k={k} exceeds train size {len(train.labels)}")
    if train.embeddings.shape[1] != test.embeddings.shape[1]:
        raise ShapeError("knn_eval: embedding dims disagree")
    classes, codes = np.unique(train.labels, return_inverse=True)
    n_test = len(test.labels)
    rows_per_block = max(2, _BLOCK_BUDGET // (train.embeddings.itemsize * len(train.labels)))
    starts = list(range(0, n_test, rows_per_block))
    if len(starts) > 1 and n_test - starts[-1] == 1:
        starts.pop()
    correct = 0
    for start, stop in zip(starts, starts[1:] + [n_test]):
        sims = test.embeddings[start:stop] @ train.embeddings.T
        pred = _knn_predict(sims, k, train.labels, classes, codes)
        correct += int(np.count_nonzero(pred == test.labels[start:stop]))
    return correct / n_test


def _knn_predict(sims: np.ndarray, k: int, labels: np.ndarray, classes: np.ndarray,
                 codes: np.ndarray) -> np.ndarray:
    """The k-NN label of each row of a [b, n] similarity block against train
    rows of ``labels``; ``classes`` and ``codes`` are ``np.unique(labels,
    return_inverse=True)``."""
    n = sims.shape[1]
    if k < n:
        # every row strictly above the k-th similarity, then the lowest-index
        # ties until there are k: the neighbours a stable sort would rank first.
        # Copy the k-th column so the partitioned block is freed at once.
        kth = np.partition(sims, n - k, axis=1)[:, n - k, None].copy()
        chosen = sims > kth
        ties = sims == kth
        spare = k - chosen.sum(axis=1)
        over = np.flatnonzero(ties.sum(axis=1) > spare)
        ties[over] &= np.cumsum(ties[over], axis=1) <= spare[over, None]
        chosen |= ties
    else:
        chosen = np.ones(sims.shape, dtype=bool)
    rows, cols = np.nonzero(chosen)
    votes = np.bincount(rows * len(classes) + codes[cols],
                        minlength=len(sims) * len(classes)).reshape(len(sims), len(classes))
    pred = classes[votes.argmax(axis=1)]
    split = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
    pred[split] = labels[sims[split].argmax(axis=1)]
    return pred


def _fit_probe(train: EmbeddingTable, epochs: int, lr: float
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights [d, c], bias [c] and sorted class ids of the probe fitted on ``train``.

    Each epoch is one full-batch gradient step on the mean softmax cross
    entropy, whose gradient is (P - Y)/n in closed form. The arrays are
    class-major, [c, n], so the max and sum over classes run across c rows
    of length n instead of along n rows of length c.
    """
    classes = np.unique(train.labels)
    if len(classes) < 2:
        raise ContractError("linear_probe: need at least 2 classes in the train table")
    x = train.embeddings
    n, d = x.shape
    y = (classes[:, None] == train.labels[None, :]).astype(np.float64)
    xt = np.ascontiguousarray(x.T)
    wt = np.zeros((len(classes), d))
    b = np.zeros(len(classes))
    step = lr / n
    for _ in range(epochs):
        p = wt @ xt
        p += b[:, None]
        if not np.isfinite(p).all():
            raise NumericDomainError("linear_probe: logits became non-finite; lr is too large")
        p -= p.max(axis=0)
        np.exp(p, out=p)
        p /= p.sum(axis=0)
        p -= y
        wt -= step * (p @ x)
        b -= step * p.sum(axis=1)
    return wt.T, b, classes


def linear_probe(train: EmbeddingTable, test: EmbeddingTable, epochs: int = 200,
                 lr: float = 1.0) -> float:
    """Accuracy of a single affine layer trained by full-batch gradient descent.

    Weights start at zero (no randomness), the inputs are the frozen
    unit-norm embeddings, and prediction argmax breaks ties toward the
    lowest class id.
    """
    if train.embeddings.shape[1] != test.embeddings.shape[1]:
        raise ShapeError(f"linear_probe: embedding dims disagree: "
                         f"{train.embeddings.shape[1]} vs {test.embeddings.shape[1]}")
    if epochs < 0:
        raise ContractError(f"linear_probe: epochs must be non-negative, got {epochs}")
    if not (math.isfinite(lr) and lr > 0):
        raise ContractError(f"linear_probe: lr must be finite and positive, got {lr}")
    w, b, classes = _fit_probe(train, epochs, lr)
    scores = test.embeddings @ w + b
    if not np.isfinite(scores).all():
        raise NumericDomainError("linear_probe: scores are non-finite; lr is too large")
    preds = classes[np.argmax(scores, axis=1)]
    return float(np.mean(preds == test.labels))


def single_member_class(labels: np.ndarray) -> int | None:
    """The lowest class with exactly one row, which recall@k cannot score, or None."""
    classes, counts = np.unique(labels, return_counts=True)
    singles = classes[counts == 1]
    return int(singles[0]) if len(singles) else None


def recall_at_k(table: EmbeddingTable, ks: list[int]) -> list[float]:
    """R@k: fraction of rows with a same-class row among their k nearest non-self neighbours.

    Neighbours rank by descending similarity, equal similarities by row
    index (a stable sort). A row's first same-class neighbour is the
    lowest-index one at its best same-class similarity m, so its rank is
    the count of rows above m plus the count of rows equal to m before it;
    no sort is needed. Self ranks last, so a rank is at most n - 2, and any
    k >= n - 1 recalls every row.

    The [n, n] similarities stay one product: numpy computes ``E @ E.T``
    with syrk, which row blocks of a gemm did not reproduce bitwise (at
    [37, 5] with 15- and 16-row blocks, and at [400, 64] and [400, 128]
    with 2-row blocks, on OpenBLAS 0.3.31), so blocks could change a rank.
    """
    labels = table.labels
    single = single_member_class(labels)
    if single is not None:
        raise ContractError(f"recall_at_k: class {single} has a single member")
    if any(k < 1 for k in ks):
        raise ContractError("recall_at_k: every k must be at least 1")
    n = len(labels)
    sims = table.embeddings @ table.embeddings.T
    np.fill_diagonal(sims, -np.inf)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    best = np.where(same, sims, -np.inf).max(axis=1, keepdims=True)
    at_best = sims == best
    first = np.argmax(at_best & same, axis=1)
    rank = (sims > best).sum(axis=1) + (at_best & (np.arange(n) < first[:, None])).sum(axis=1)
    return [float(np.mean(rank < k)) for k in ks]
