"""Reference for ``simdistill.evaluation.recall_at_k``: a full stable argsort per row.

The sorting implementation the rank-counting version replaced, kept
verbatim. Both must give exactly the same recalls, ties included.
"""

import numpy as np

from simdistill.errors import ContractError
from simdistill.evaluation import EmbeddingTable


def recall_at_k(table: EmbeddingTable, ks: list[int]) -> list[float]:
    """R@k: fraction of rows with a same-class row among their k nearest non-self neighbours."""
    labels = table.labels
    counts = np.bincount(labels)
    singles = np.flatnonzero(counts == 1)
    if len(singles):
        raise ContractError(f"recall_at_k: class {int(singles[0])} has a single member")
    if any(k < 1 for k in ks):
        raise ContractError("recall_at_k: every k must be at least 1")
    n = len(labels)
    sims = table.embeddings @ table.embeddings.T
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")
    recalls = []
    for k in ks:
        kk = min(k, n - 1)
        hits = (labels[order[:, :kk]] == labels[:, None]).any(axis=1)
        recalls.append(float(hits.mean()))
    return recalls
