"""Reference for ``simdistill.evaluation.knn_eval``: full stable sort, one vote per row.

The loop implementation the vectorised version replaced, kept verbatim.
Both must give exactly the same accuracy, ties included.
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
    sims = test.embeddings @ train.embeddings.T
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    neighbour_labels = train.labels[order]
    correct = 0
    for row, truth in zip(neighbour_labels, test.labels):
        votes = np.bincount(row)
        winners = np.flatnonzero(votes == votes.max())
        pred = winners[0] if len(winners) == 1 else row[0]
        correct += int(pred == truth)
    return correct / len(test.labels)
