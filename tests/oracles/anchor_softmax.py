"""Reference for the teacher side of the anchor objectives: the out-of-place form.

``anchor_softmax`` is ``simdistill.losses._anchor_softmax`` as it was before
its passes over the [b, K] block ran in place and before 1/tau moved onto
the [b, d] queries, kept verbatim. The library form must agree with it to
rounding.
"""

import numpy as np

from simdistill import tensor as T


def anchor_softmax(queries: np.ndarray, units: np.ndarray, tau: float) -> np.ndarray:
    qs = T.unit_rows(queries)
    logits = qs @ units.T / tau
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)
