"""Reference for the teacher side of the anchor objectives: out-of-place forms.

``anchor_softmax`` is ``simdistill.losses._anchor_softmax`` and
``distribution_entropy`` is ``simdistill.losses.distribution_entropy`` as
they were before their passes over the [b, K] block ran in place, kept
verbatim. The library forms must give the same bytes.
"""

import numpy as np

from simdistill import tensor as T


def anchor_softmax(queries: np.ndarray, units: np.ndarray, tau: float) -> np.ndarray:
    qs = T.unit_rows(queries)
    logits = qs @ units.T / tau
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def distribution_entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy of one distribution or of each matrix row (nats)."""
    p = np.asarray(p, dtype=np.float64)
    terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)
