import dataclasses
import json
import math

import numpy as np
import pytest

from minivla import depth as dp
from minivla.errors import ContractError, DegenerateRangeError, DimensionError


class TestPreprocessDepth:
    def test_invalid_maps_rejected(self):
        stats = dp.DepthStats(0.0, 1.0, 0.5, 0.5)
        for depth, error in (([[np.nan, 1.0]], ContractError),
                             ([[-0.5, 1.0]], ContractError),
                             ([1.0, 2.0], DimensionError)):
            with pytest.raises(error):
                dp.preprocess_depth(depth, stats)


class TestComputeStats:
    def test_four_pixel_hand_example(self):
        # maps [0,4] and [2,6]: extremes 0/6, normalized {0, 2/3, 1/3, 1},
        # mean 1/2, population sigma sqrt(5/36) = sqrt(5)/6.
        stats = dp.compute_stats([np.array([[0.0, 4.0]]), np.array([[2.0, 6.0]])])
        assert stats.d_min == 0.0
        assert stats.d_max == 6.0
        assert abs(stats.mu - 0.5) < 1e-12
        assert abs(stats.sigma - math.sqrt(5.0) / 6.0) < 1e-12
        assert abs(stats.sigma - 0.37268) < 1e-5

    def test_two_point_map(self):
        stats = dp.compute_stats([np.array([[0.0, 1.0]])])
        assert (stats.d_min, stats.d_max) == (0.0, 1.0)
        assert stats.mu == 0.5
        assert stats.sigma == 0.5

    def test_constant_dataset_rejected(self):
        with pytest.raises(DegenerateRangeError):
            dp.compute_stats([np.full((2, 2), 3.0), np.full((1, 4), 3.0)])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            dp.compute_stats([])


class TestNormalizeDepth:
    STATS = dp.DepthStats(0.0, 4.0, 0.5, 0.25)

    def test_midpoint(self):
        out = dp.normalize_depth(np.array([[2.0]]), self.STATS)
        np.testing.assert_array_equal(out, [[0.5]])

    def test_endpoints(self):
        out = dp.normalize_depth(np.array([[0.0, 4.0]]), self.STATS)
        np.testing.assert_array_equal(out, [[0.0, 1.0]])

    def test_out_of_range_clamps(self):
        # 5.0 in range [0,4] gives 1.25 by the formula; clamp pins it to 1.
        out = dp.normalize_depth(np.array([[5.0]]), self.STATS)
        np.testing.assert_array_equal(out, [[1.0]])

    def test_monotone_in_input(self):
        rng = np.random.default_rng(1)
        d = np.sort(rng.random(32) * 6.0).reshape(1, -1)
        out = dp.normalize_depth(d, self.STATS)
        assert (np.diff(out[0]) >= 0).all()

    def test_degenerate_stats_rejected(self):
        with pytest.raises(DegenerateRangeError):
            dp.DepthStats(2.0, 2.0, 0.5, 0.5)


class TestStandardizeDepth:
    def test_centering_and_unit_step(self):
        stats = dp.DepthStats(0.0, 1.0, 0.4, 0.2)
        out = dp.standardize_depth(np.array([[0.4, 0.6]]), stats)
        np.testing.assert_allclose(out[:, :, 0], [[0.0, 1.0]], atol=1e-15)

    def test_replicates_three_channels(self):
        stats = dp.DepthStats(0.0, 1.0, 0.5, 0.5)
        out = dp.standardize_depth(np.array([[0.0, 1.0]]), stats)
        assert out.shape == (1, 2, 3)
        assert np.array_equal(out[:, :, 0], out[:, :, 1])
        assert np.array_equal(out[:, :, 1], out[:, :, 2])

    def test_sigma_must_be_positive(self):
        with pytest.raises(DegenerateRangeError):
            dp.DepthStats(0.0, 1.0, 0.5, 0.0)

    def test_self_standardization_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        maps = [rng.random((8, 8)) * 3.0 for _ in range(5)]
        stats = dp.compute_stats(maps)
        values = np.concatenate(
            [dp.standardize_depth(dp.normalize_depth(m, stats), stats)[:, :, 0].reshape(-1)
             for m in maps]
        )
        assert abs(values.mean()) < 1e-10
        assert abs(values.std() - 1.0) < 1e-10


class TestQuantizeU8:
    def test_endpoints(self):
        out = dp.quantize_u8(np.array([[0.0, 1.0]]))
        np.testing.assert_array_equal(out, [[0, 255]])

    def test_half_up_rounding(self):
        # 0.5 * 255 = 127.5 rounds half-up to 128.
        out = dp.quantize_u8(np.array([[0.5]]))
        np.testing.assert_array_equal(out, [[128]])

    def test_exact_preimage_of_128(self):
        out = dp.quantize_u8(np.array([[128.0 / 255.0, 0.501960]]))
        np.testing.assert_array_equal(out, [[128, 128]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            dp.quantize_u8(np.array([[1.2]]))


class TestPixelChangeCount:
    def test_identity(self):
        a = np.array([[0, 10], [20, 30]], dtype=np.uint8)
        assert dp.pixel_change_count(a, a.copy()) == 0

    def test_single_change(self):
        a = np.array([[0, 10], [20, 30]], dtype=np.uint8)
        b = np.array([[0, 10], [21, 30]], dtype=np.uint8)
        assert dp.pixel_change_count(a, b) == 1

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 256, size=(6, 6)).astype(np.uint8)
        b = rng.integers(0, 256, size=(6, 6)).astype(np.uint8)
        assert dp.pixel_change_count(a, b) == dp.pixel_change_count(b, a)

    def test_extent_mismatch(self):
        with pytest.raises(DimensionError):
            dp.pixel_change_count(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_narrow_range_counts_wide_range_does_not(self):
        # 0.50 m vs 0.51 m: range [0,1] quantizes to 128 vs 130 (counted),
        # range [0,10] quantizes to 13 vs 13 (not counted).
        a = np.array([[0.50]])
        b = np.array([[0.51]])
        narrow = dp.DepthStats(0.0, 1.0, 0.5, 0.5)
        wide = dp.DepthStats(0.0, 10.0, 0.5, 0.5)
        qa_n = dp.quantize_u8(dp.normalize_depth(a, narrow))
        qb_n = dp.quantize_u8(dp.normalize_depth(b, narrow))
        np.testing.assert_array_equal(qa_n, [[128]])
        np.testing.assert_array_equal(qb_n, [[130]])
        assert dp.pixel_change_count(qa_n, qb_n) == 1
        qa_w = dp.quantize_u8(dp.normalize_depth(a, wide))
        qb_w = dp.quantize_u8(dp.normalize_depth(b, wide))
        np.testing.assert_array_equal(qa_w, [[13]])
        np.testing.assert_array_equal(qb_w, [[13]])
        assert dp.pixel_change_count(qa_w, qb_w) == 0

    def test_wider_range_never_counts_more(self):
        rng = np.random.default_rng(4)
        a = rng.random((8, 8)) * 2.0
        b = a + rng.normal(scale=0.02, size=(8, 8)).clip(-0.05, 0.05)
        b = b.clip(0.0, 2.0)
        narrow = dp.DepthStats(0.0, 2.0, 0.5, 0.5)
        wide = dp.DepthStats(0.0, 20.0, 0.5, 0.5)
        assert dp.change_count_for_pair(a, b, wide) <= dp.change_count_for_pair(a, b, narrow)


class TestStatsJson:
    def test_round_trip(self):
        stats = dp.DepthStats(0.1, 2.5, 0.43, 0.21)
        again = dp.DepthStats.from_json(json.dumps(dataclasses.asdict(stats)))
        assert again == stats
