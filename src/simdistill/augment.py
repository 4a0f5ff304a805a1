"""Stochastic view augmentation for feature vectors and small images.

Named policies order themselves by expected distortion: "mild" adds
only a little gaussian noise (plus horizontal flips on images), while
"aggressive" adds strong noise, coordinate masking, random rescaling and,
on images, random crops. "noisy", the rare-class protocol's views, is
"aggressive" with unit-variance noise and, on images, flips. The
identity policy "none" passes samples through bitwise. ``POLICIES``
maps each name to its policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class AugmentPolicy:
    """Per-transform parameters of one augmentation policy.

    ``crop_range`` (area fraction) and ``flip_prob`` apply to images only.
    A zero / empty parameter disables its transform.
    """

    noise_std: float = 0.0
    mask_prob: float = 0.0
    scale_range: tuple[float, float] | None = None
    crop_range: tuple[float, float] | None = None
    flip_prob: float = 0.0

    def __post_init__(self):
        numbers = (self.noise_std, *(self.scale_range or ()), *(self.crop_range or ()))
        if not np.all(np.isfinite(numbers)):
            raise ContractError("AugmentPolicy: every parameter must be finite")
        if self.noise_std < 0:
            raise ContractError("AugmentPolicy: noise_std must be non-negative")
        for p, what in ((self.mask_prob, "mask_prob"), (self.flip_prob, "flip_prob")):
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"AugmentPolicy: {what} must lie in [0, 1]")
        for rng_pair, what in ((self.scale_range, "scale_range"), (self.crop_range, "crop_range")):
            if rng_pair is not None:
                lo, hi = rng_pair
                if lo > hi or lo <= 0:
                    raise ContractError(f"AugmentPolicy: bad {what} {rng_pair}")
        if self.crop_range is not None and self.crop_range[1] > 1.0:
            raise ContractError("AugmentPolicy: crop fraction cannot exceed 1")

    @property
    def is_identity(self) -> bool:
        return (self.noise_std == 0 and self.mask_prob == 0 and self.scale_range is None
                and self.crop_range is None and self.flip_prob == 0)


IDENTITY = AugmentPolicy()
MILD = AugmentPolicy(noise_std=0.05, flip_prob=0.5)
AGGRESSIVE = AugmentPolicy(
    noise_std=0.25,
    mask_prob=0.2,
    scale_range=(0.5, 1.5),
    crop_range=(0.6, 1.0),
)
NOISY = replace(AGGRESSIVE, noise_std=1.0, flip_prob=0.5)
POLICIES = {"none": IDENTITY, "mild": MILD, "aggressive": AGGRESSIVE, "noisy": NOISY}


def augment(samples: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    """Draw one stochastic view of every row of a block of samples.

    ``samples`` is a ``[b, d]`` block of feature vectors or a ``[b, h, w]``
    block of images. Random draws are made row by row, in the order a
    separate call per row would make them, so the views do not depend on
    how a batch is split into calls; the transforms then run once on the
    whole block. Each row draws [crop][flip][scale][noise][mask]; with
    noise and a scale or mask but no crop or flip, row r's mask draws and
    row r + 1's scale come from one generator call, which leaves the
    stream as it is. Deterministic given the generator state;
    two calls on one stream give two independent views of each row. The
    identity policy and an empty block return a bitwise copy without
    consuming randomness.
    """
    views = np.array(samples, dtype=np.float64)
    if views.ndim not in (2, 3):
        raise ContractError(f"augment: samples must be a [b, d] or [b, h, w] block, "
                            f"got shape {views.shape}")
    if not np.isfinite(views).all():
        raise ContractError("augment: samples must be finite")
    b = views.shape[0]
    if policy.is_identity or b == 0:
        return views

    is_image = views.ndim == 3
    crop = is_image and policy.crop_range is not None
    flip = is_image and policy.flip_prob > 0
    scaled, noisy, masked = (policy.scale_range is not None, policy.noise_std > 0,
                             policy.mask_prob > 0)
    if crop:
        h, w = views.shape[1:]
        area_lo, area_hi = policy.crop_range
        crop_h, crop_w, top, left = (np.empty(b, dtype=np.intp) for _ in range(4))
    if flip:
        flipped = np.empty(b, dtype=bool)
    n = views[0].size
    noise = np.empty((b, n)) if noisy else None
    # row r's uniforms: its scale, then its n mask draws. One slot past the end
    # makes row r of ``after_noise`` hold row r's mask draws and row r + 1's
    # scale, the uniforms that follow row r's noise in the stream
    k = scaled + masked * n
    drawn = np.empty(b * k + scaled)
    uniforms, after_noise = drawn[:b * k].reshape(b, k), drawn[scaled:].reshape(b, k)
    random, standard_normal = rng.random, rng.standard_normal

    if noisy and k and not (crop or flip):
        if scaled:
            random(out=drawn[:1])
        for noise_row, after in zip(noise[:-1], after_noise[:-1]):
            standard_normal(out=noise_row)
            random(out=after)
        standard_normal(out=noise[-1])
        if masked:
            random(out=after_noise[-1, :n])
    else:
        for r in range(b):
            if crop:
                # the arithmetic of rng.uniform(area_lo, area_hi)
                side = np.sqrt(area_lo + (area_hi - area_lo) * random())
                crop_h[r] = ch = max(1, int(round(h * side)))
                crop_w[r] = cw = max(1, int(round(w * side)))
                top[r] = rng.integers(0, h - ch + 1)
                left[r] = rng.integers(0, w - cw + 1)
            if flip:
                flipped[r] = random() < policy.flip_prob
            if scaled:
                random(out=uniforms[r, :1])
            if noisy:
                standard_normal(out=noise[r])
            if masked:
                random(out=uniforms[r, scaled:])

    if crop:
        # nearest-neighbour resize of each row's crop back to the full grid
        src_y = top[:, None] + np.minimum((np.arange(h) * crop_h[:, None]) // h, crop_h[:, None] - 1)
        src_x = left[:, None] + np.minimum((np.arange(w) * crop_w[:, None]) // w, crop_w[:, None] - 1)
        views = views[np.arange(b)[:, None, None], src_y[:, :, None], src_x[:, None, :]]
    if flip:
        views[flipped] = views[flipped, :, ::-1]
    flat = views.reshape(b, n)
    if scaled:
        lo, hi = policy.scale_range
        flat *= lo + (hi - lo) * uniforms[:, :1]    # the arithmetic of rng.uniform(lo, hi)
    if noisy:
        flat += 0.0 + policy.noise_std * noise      # the arithmetic of rng.normal(0.0, std)
    if masked:
        flat[uniforms[:, scaled:] < policy.mask_prob] = 0.0
    return flat.reshape(views.shape)


def mean_distortion(samples: np.ndarray, policy: AugmentPolicy, rng: np.random.Generator,
                    draws: int = 1) -> float:
    """Average L2 distance between samples and their augmented views.

    Used to verify that the aggressive policy dominates the mild one on a
    fixed corpus before running the bias-removal distillation experiment.
    """
    samples = np.asarray(samples, dtype=np.float64)
    total = 0.0
    for _ in range(draws):
        for diff in augment(samples, policy, rng) - samples:
            total += float(np.linalg.norm(diff.ravel()))
    return total / max(draws * len(samples), 1)
