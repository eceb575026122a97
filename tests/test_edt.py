"""Exact Euclidean distance transform: brute-force oracle equivalence and
monotonicity."""

import numpy as np
import pytest

from handstates import raster


def brute_force_edt(mask):
    """All-pairs nearest-foreground distances; the independent oracle."""
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        return np.full((h, w), np.inf)
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy.reshape(-1, 1) - ys) ** 2 + (xx.reshape(-1, 1) - xs) ** 2
    return np.sqrt(d2.min(axis=1)).reshape(h, w).astype(float)


class TestAgainstOracle:
    def test_single_center_pixel(self):
        mask = np.zeros((3, 3), bool)
        mask[1, 1] = True
        d = raster.euclidean_distance_transform(mask)
        assert d[1, 1] == 0.0
        assert d[0, 1] == d[1, 0] == d[1, 2] == d[2, 1] == 1.0
        for y, x in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert d[y, x] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_zero_exactly_at_foreground(self, rng):
        mask = rng.random((20, 30)) < 0.2
        d = raster.euclidean_distance_transform(mask)
        assert np.array_equal(d == 0.0, mask)

    def test_random_masks_match_brute_force(self, rng):
        # long, thin canvases run each min-plus pass along more than 64 pixels
        thin = [(rng.integers(1, 4), rng.integers(65, 301)) for _ in range(10)]
        shapes = [rng.integers(1, 65, 2) for _ in range(40)] + thin + [s[::-1] for s in thin]
        for h, w in shapes:
            density = rng.uniform(0.01, 0.9)
            mask = rng.random((h, w)) < density
            d = raster.euclidean_distance_transform(mask)
            bf = brute_force_edt(mask)
            assert np.abs(d - bf).max() < 1e-9

    def test_all_background_is_infinite(self):
        d = raster.euclidean_distance_transform(np.zeros((7, 5), bool))
        assert np.isinf(d).all()

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_empty_canvas_gives_empty_field(self, shape):
        d = raster.euclidean_distance_transform(np.zeros(shape, bool))
        assert d.shape == shape and d.dtype == np.float64

    def test_finite_values_bounded_by_diagonal(self, rng):
        mask = rng.random((31, 17)) < 0.02
        mask[0, 0] = True
        d = raster.euclidean_distance_transform(mask)
        assert d.max() <= np.hypot(17, 31)


def test_monotonicity_adding_foreground_never_increases(rng):
    mask = rng.random((24, 24)) < 0.05
    base = raster.euclidean_distance_transform(mask)
    grown = mask.copy()
    ys, xs = np.nonzero(~mask)
    pick = rng.integers(0, xs.size)
    grown[ys[pick], xs[pick]] = True
    after = raster.euclidean_distance_transform(grown)
    assert (after <= base + 1e-12).all()
