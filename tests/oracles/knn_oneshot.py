"""Reference for ``simdistill.evaluation.knn_eval``: selection over the whole
similarity block at once.

The one-shot form the row-blocked selection replaced, kept verbatim. Its
``np.partition`` copies all of ``sims``; both must give exactly the same
accuracy, ties included.
"""

import numpy as np

from simdistill.errors import ContractError, ShapeError
from simdistill.evaluation import EmbeddingTable


def knn_eval(train: EmbeddingTable, test: EmbeddingTable, k: int = 5) -> float:
    """k-nearest-neighbour accuracy under cosine similarity with majority vote.

    A split vote falls back to the label of the single nearest neighbour.
    Equal similarities rank by train-row index (stable sort), so results
    are deterministic.
    """
    if k < 1:
        raise ContractError("knn_eval: k must be at least 1")
    if k > len(train.labels):
        raise ContractError(f"knn_eval: k={k} exceeds train size {len(train.labels)}")
    if train.embeddings.shape[1] != test.embeddings.shape[1]:
        raise ShapeError("knn_eval: embedding dims disagree")
    # one product for the whole block: splitting it changes BLAS rounding
    sims = test.embeddings @ train.embeddings.T
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
    classes, codes = np.unique(train.labels, return_inverse=True)
    rows, cols = np.nonzero(chosen)
    votes = np.bincount(rows * len(classes) + codes[cols],
                        minlength=len(sims) * len(classes)).reshape(len(sims), len(classes))
    pred = classes[votes.argmax(axis=1)]
    split = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
    pred[split] = train.labels[sims[split].argmax(axis=1)]
    return int(np.count_nonzero(pred == test.labels)) / len(test.labels)
