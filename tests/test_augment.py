"""Tests for the stochastic view augmentation policies."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import augment_per_sample
from simdistill.augment import (AGGRESSIVE, IDENTITY, MILD, NOISY, AugmentPolicy, augment,
                                mean_distortion)
from simdistill.config import RunConfig
from simdistill.errors import ContractError
from simdistill.experiments import unbalanced_base_config


class TestIdentityPolicy:
    def test_output_equals_input_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(12)
        view = augment(x[None], IDENTITY, rng)[0]
        assert np.array_equal(view, x)

    def test_returns_a_copy(self):
        rng = np.random.default_rng(1)
        x = np.zeros(4)
        view = augment(x[None], IDENTITY, rng)[0]
        view[0] = 9.0
        assert x[0] == 0.0

    def test_consumes_no_randomness(self):
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        augment(np.ones((1, 3)), IDENTITY, rng)
        assert rng.bit_generator.state == state


class TestDeterminism:
    def test_same_seed_same_view(self):
        x = np.random.default_rng(3).standard_normal(10)
        v1 = augment(x[None], AGGRESSIVE, np.random.default_rng(42))[0]
        v2 = augment(x[None], AGGRESSIVE, np.random.default_rng(42))[0]
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("policy", [MILD, AGGRESSIVE])
    def test_independent_streams_differ(self, policy):
        """Two views of a sample under a non-identity policy never coincide."""
        x = np.random.default_rng(4).standard_normal(6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            v1 = augment(x[None], policy, rng)[0]
            v2 = augment(x[None], policy, rng)[0]
            assert not np.array_equal(v1, v2)


class TestNoise:
    def test_empirical_stddev_matches(self):
        """Per-coordinate stddev of noise on a zero vector within 2% of sigma."""
        sigma = 0.37
        policy = AugmentPolicy(noise_std=sigma)
        rng = np.random.default_rng(6)
        draws = np.stack([augment(np.zeros((1, 8)), policy, rng)[0] for _ in range(12500)])
        assert draws.std() == pytest.approx(sigma, rel=0.02)


class TestFeatureTransforms:
    def test_masking_zeroes_expected_fraction(self):
        policy = AugmentPolicy(mask_prob=0.25)
        rng = np.random.default_rng(7)
        views = np.stack([augment(np.ones((1, 16)), policy, rng)[0] for _ in range(4000)])
        assert (views == 0).mean() == pytest.approx(0.25, abs=0.01)

    def test_scaling_stays_in_range(self):
        policy = AugmentPolicy(scale_range=(0.5, 1.5))
        rng = np.random.default_rng(8)
        x = np.ones(4)
        for _ in range(200):
            s = augment(x[None], policy, rng)[0, 0]
            assert 0.5 <= s <= 1.5


class TestImageTransforms:
    def test_crop_resize_preserves_shape(self):
        img = np.random.default_rng(11).random((9, 7))
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = augment(img[None], AGGRESSIVE, rng)[0]
            assert v.shape == img.shape

    def test_flip_only(self):
        policy = AugmentPolicy(flip_prob=1.0)
        img = np.arange(6.0).reshape(2, 3)
        v = augment(img[None], policy, np.random.default_rng(13))[0]
        assert np.array_equal(v, img[:, ::-1])

    def test_full_crop_fraction_is_identity(self):
        policy = AugmentPolicy(crop_range=(1.0, 1.0))
        img = np.random.default_rng(14).random((5, 5))
        v = augment(img[None], policy, np.random.default_rng(15))[0]
        assert np.array_equal(v, img)


CROP_FLIP = AugmentPolicy(noise_std=0.1, mask_prob=0.1, scale_range=(0.8, 1.2),
                          crop_range=(0.3, 0.9), flip_prob=0.5)
# every draw pattern of a policy with no crop or flip; those with
# noise and a scale or mask merge generator calls, the others draw row by row
SCALE_ONLY = AugmentPolicy(scale_range=(0.5, 1.5))
MASK_ONLY = AugmentPolicy(mask_prob=0.3)
NOISE_ONLY = AugmentPolicy(noise_std=0.4)
SCALE_MASK = AugmentPolicy(mask_prob=0.3, scale_range=(0.5, 1.5))
SCALE_NOISE = AugmentPolicy(noise_std=0.4, scale_range=(0.5, 1.5))
NOISE_MASK = AugmentPolicy(noise_std=0.4, mask_prob=0.3)
SCALE_NOISE_MASK = AugmentPolicy(noise_std=0.4, mask_prob=0.3, scale_range=(0.5, 1.5))
DRAW_PATTERNS = [SCALE_ONLY, MASK_ONLY, NOISE_ONLY, SCALE_MASK, SCALE_NOISE, NOISE_MASK,
          SCALE_NOISE_MASK, NOISY]


class TestBlockMatchesPerSampleOracle:
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 9),
           shape=st.sampled_from([(1,), (2,), (32,), (1, 1), (3, 5), (6, 6), (8, 3)]),
           policy=st.sampled_from([IDENTITY, MILD, AGGRESSIVE, CROP_FLIP, *DRAW_PATTERNS]))
    @settings(max_examples=600, deadline=None)
    @example(seed=0, b=1, shape=(32,), policy=CROP_FLIP)
    @example(seed=0, b=1, shape=(6, 6), policy=CROP_FLIP)
    @example(seed=0, b=9, shape=(6, 6), policy=SCALE_NOISE_MASK)
    @example(seed=0, b=9, shape=(32,), policy=NOISY)
    def test_bytes_and_generator_state(self, seed, b, shape, policy):
        """One block call equals b per-sample calls on one stream, byte for byte,
        and leaves the generator where they leave it."""
        samples = np.random.default_rng([seed, 1]).standard_normal((b,) + shape)
        block_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        block = augment(samples, policy, block_rng)
        rows = np.stack([augment_per_sample.augment(x, policy, row_rng) for x in samples])
        assert block.shape == rows.shape
        assert block.tobytes() == rows.tobytes()
        assert block_rng.bit_generator.state == row_rng.bit_generator.state

    @pytest.mark.parametrize("policy", [MILD, AGGRESSIVE, CROP_FLIP, *DRAW_PATTERNS])
    @pytest.mark.parametrize("shape", [(0, 32), (0, 6, 6)])
    def test_empty_block_draws_nothing(self, policy, shape):
        rng = np.random.default_rng(20)
        state = rng.bit_generator.state
        views = augment(np.empty(shape), policy, rng)
        assert views.shape == shape
        assert rng.bit_generator.state == state


class TestPolicyOrdering:
    def test_aggressive_dominates_mild_in_expected_distortion(self):
        """The bias-removal experiment needs mild < aggressive distortion."""
        corpus = np.random.default_rng(16).standard_normal((64, 16))
        mild = mean_distortion(corpus, MILD, np.random.default_rng(17), draws=5)
        aggressive = mean_distortion(corpus, AGGRESSIVE, np.random.default_rng(17), draws=5)
        assert aggressive > mild

    def test_policy_by_name(self):
        cfg = RunConfig()
        assert cfg.augment_policy("none") is IDENTITY
        assert cfg.augment_policy("mild") is MILD
        assert cfg.augment_policy("aggressive") is AGGRESSIVE
        assert cfg.augment_policy("noisy") is NOISY
        for name in ("blur", "custom"):
            with pytest.raises(ContractError, match=f"unknown augmentation policy '{name}'"):
                cfg.augment_policy(name)

    def test_noisy_is_the_rare_class_protocols_views(self):
        """The preset holds the parameters the rare-class protocol has always drawn with."""
        assert NOISY == AugmentPolicy(noise_std=1.0, mask_prob=0.2, scale_range=(0.5, 1.5),
                                      crop_range=(0.6, 1.0), flip_prob=0.5)
        base = unbalanced_base_config()
        assert base.teacher_policy == base.student_policy == "noisy"


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ContractError):
            AugmentPolicy(noise_std=-0.1)
        with pytest.raises(ContractError):
            AugmentPolicy(mask_prob=1.5)
        with pytest.raises(ContractError):
            AugmentPolicy(scale_range=(2.0, 1.0))
        with pytest.raises(ContractError):
            AugmentPolicy(crop_range=(0.5, 1.2))
        with pytest.raises(ContractError):
            AugmentPolicy(scale_range=(1.0, np.inf))
        with pytest.raises(ContractError):
            AugmentPolicy(noise_std=np.inf)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4, 5)])
    def test_non_block_input_rejected(self, shape):
        """A 1-D array is one sample, never a block of scalars; it must be passed as [1, d]."""
        with pytest.raises(ContractError, match="block"):
            augment(np.ones(shape), MILD, np.random.default_rng(19))

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ContractError):
            augment(np.array([[1.0, np.nan]]), MILD, np.random.default_rng(18))
