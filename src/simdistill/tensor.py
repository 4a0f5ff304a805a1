"""Row kernels over dense float64 arrays, and a central-difference gradient check.

A training step's backward is a fixed chain of three closed-form vjps on
plain arrays: the objective's in ``losses``, then the predictor's and the
student encoder's in ``nn``. They share the row kernels here: ``row_norms``,
``l2_rows`` (unit rows and the map's vjp), ``unit_rows`` (unit rows
alone) and ``off_unit`` (the unit-or-zero check of the bank and the
embedding table). :func:`grad_check` compares any function that returns
its value and gradient against central differences.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ContractError, ShapeError

_EPS = 1e-12    # the divisor floor of l2_rows and unit_rows


def row_norms(ad: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a [b, d] array.

    The formula ``np.linalg.norm(ad, axis=1)`` evaluates for real input, so
    the values are bitwise its own, without the wrapper's checks.
    """
    return np.sqrt(np.add.reduce(ad * ad, axis=1))


def l2_rows(ad: np.ndarray):
    """The rows of a [b, d] array scaled to unit norm, and the map's vjp on arrays.

    The divisor is max(norm, 1e-12), so rows below 1e-12 pass through scaled
    by 1e12 instead of dividing by zero; there the map is exactly linear. The
    vjp builds that branch only for a block that has such a row.
    """
    r = row_norms(ad)
    denom = np.maximum(r, _EPS)[:, None]
    out = ad / denom
    big = (r >= _EPS)[:, None]
    every_row_big = bool(big.all())

    def vjp(g):
        dots = (out * g).sum(axis=1, keepdims=True)
        unit = g - out * dots
        unit /= denom
        return unit if every_row_big else np.where(big, unit, g / _EPS)

    return out, vjp


def unit_rows(ad: np.ndarray) -> np.ndarray:
    """The rows of a [b, d] array divided by max(norm, 1e-12), with no vjp."""
    return ad / np.maximum(row_norms(ad), _EPS)[:, None]


def off_unit(ad: np.ndarray) -> float:
    """The largest distance from 1 of the norm of a row of a [b, d] array
    that is not all zero; 0 when every row is zero. An all-masked view
    embeds to a zero row, which the objectives score as cosine 0."""
    return float((np.abs(row_norms(ad) - 1.0) * ad.any(axis=1)).max(initial=0.0))


def grad_check(f: Callable[[np.ndarray], tuple], x, step: float = 1e-5) -> float:
    """Max relative error between the gradient ``f`` returns and central differences.

    ``f(x)`` returns the scalar value at ``x`` and its gradient there (further
    items are ignored) and must be deterministic. It is called on a copy of
    ``x`` whose entries are moved one at a time. The relative error for one
    entry is |a - n| / max(|a|, |n|, 1e-8).
    """
    if step <= 0:
        raise ContractError("grad_check: step must be positive")
    x = np.array(x, dtype=np.float64)
    analytic = np.array(f(x)[1], dtype=np.float64)
    if analytic.shape != x.shape:
        raise ShapeError(f"grad_check: gradient shape {analytic.shape} is not the point's "
                         f"{x.shape}")
    analytic = analytic.ravel()

    worst = 0.0
    flat = x.ravel()
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        fp = float(f(x)[0])
        flat[i] = saved - step
        fm = float(f(x)[0])
        flat[i] = saved
        numeric = (fp - fm) / (2.0 * step)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
