"""Reference for ``simdistill.augment.augment``: one sample per call.

The per-sample implementation the block version replaced, kept verbatim
apart from the random rotation of feature vectors, which the library no
longer offers.
Stacking its views of b rows, drawn one call after another from one
generator, must equal the block function's output byte for byte and leave
the generator in the same state.
"""

import numpy as np

from simdistill.augment import AugmentPolicy
from simdistill.errors import ContractError


def _crop_resize(img: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    h, w = img.shape
    side = np.sqrt(fraction)
    ch = max(1, int(round(h * side)))
    cw = max(1, int(round(w * side)))
    top = int(rng.integers(0, h - ch + 1))
    left = int(rng.integers(0, w - cw + 1))
    patch = img[top:top + ch, left:left + cw]
    # nearest-neighbour resize back to the original grid
    rows = np.minimum((np.arange(h) * ch) // h, ch - 1)
    cols = np.minimum((np.arange(w) * cw) // w, cw - 1)
    return patch[np.ix_(rows, cols)]


def augment(sample: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    """Draw one stochastic view of a sample under the given policy.

    Deterministic given the generator state; two calls on independent (or
    sequential) streams give the two independent views of a query. The
    identity policy returns a bitwise copy without consuming randomness.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if not np.all(np.isfinite(sample)):
        raise ContractError("augment: sample must be finite")
    view = sample.copy()
    if policy.is_identity:
        return view

    is_image = view.ndim == 2
    if is_image and policy.crop_range is not None:
        lo, hi = policy.crop_range
        view = _crop_resize(view, float(rng.uniform(lo, hi)), rng)
    if is_image and policy.flip_prob > 0 and rng.random() < policy.flip_prob:
        view = view[:, ::-1].copy()
    if policy.scale_range is not None:
        lo, hi = policy.scale_range
        view *= rng.uniform(lo, hi)
    if policy.noise_std > 0:
        view += rng.normal(0.0, policy.noise_std, size=view.shape)
    if policy.mask_prob > 0:
        view[rng.random(view.shape) < policy.mask_prob] = 0.0
    return view
