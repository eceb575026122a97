"""Image primitive tests: Laplacian variance, frame difference, centroids,
hand-object mask distance."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import run_cli

from handstates import features, raster


def brute_force_laplacian_variance(img):
    """Double-loop 4-neighbour Laplacian + population variance."""
    h, w = img.shape
    responses = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            responses.append(
                img[y - 1, x] + img[y + 1, x] + img[y, x - 1] + img[y, x + 1]
                - 4 * img[y, x]
            )
    responses = np.array(responses, dtype=float)
    return float(((responses - responses.mean()) ** 2).mean())


class TestLaplacianVariance:
    def test_constant_image_is_zero(self):
        assert raster.laplacian_variance(np.full((5, 5), 7.0)) == 0.0

    def test_single_interior_pixel(self):
        img = np.zeros((3, 3))
        img[1, 1] = 1.0
        # one interior sample: population variance of a single value
        assert raster.laplacian_variance(img) == 0.0

    def test_matches_brute_force_on_random_image(self, rng):
        img = rng.integers(0, 256, (4, 4)).astype(float)
        assert raster.laplacian_variance(img) == pytest.approx(
            brute_force_laplacian_variance(img), abs=1e-9
        )

    @given(st.integers(-1000, 1000))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, k):
        img = np.random.default_rng(7).integers(0, 256, (6, 8)).astype(float)
        base = raster.laplacian_variance(img)
        assert abs(raster.laplacian_variance(img + k) - base) <= 1e-9

    @pytest.mark.parametrize("shape", [(2, 5), (5, 2), (1, 1)])
    def test_too_small_raises(self, shape):
        with pytest.raises(ValueError, match="too small"):
            raster.laplacian_variance(np.zeros(shape))


class TestFrameDiffEnergy:
    def test_identical_frames(self, rng):
        a = rng.random((6, 6))
        assert raster.frame_diff_energy(a, a.copy()) == 0.0

    def test_single_pixel_difference(self):
        a = np.zeros((2, 2))
        b = a.copy()
        b[0, 1] = 10.0
        assert raster.frame_diff_energy(a, b) == 25.0

    def test_symmetry_is_exact(self, rng):
        a = rng.random((5, 9)) * 255
        b = rng.random((5, 9)) * 255
        assert raster.frame_diff_energy(a, b) == raster.frame_diff_energy(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            raster.frame_diff_energy(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMaskCentroid:
    def test_single_pixel(self):
        mask = np.zeros((8, 8), bool)
        mask[5, 3] = True
        assert raster.mask_centroid(mask) == (3.0, 5.0)

    def test_symmetric_corners(self):
        mask = np.zeros((3, 3), bool)
        mask[0, 0] = mask[0, 2] = mask[2, 0] = mask[2, 2] = True
        assert raster.mask_centroid(mask) == (1.0, 1.0)

    def test_matches_enumeration(self, rng):
        mask = rng.random((12, 17)) < 0.3
        mask[0, 0] = True
        ys, xs = np.nonzero(mask)
        x, y = raster.mask_centroid(mask)
        assert x == pytest.approx(xs.mean(), abs=1e-12)
        assert y == pytest.approx(ys.mean(), abs=1e-12)

    def test_empty_mask_has_none(self):
        assert raster.mask_centroid(np.zeros((4, 4), bool)) is None


def all_pairs_distance(a, b):
    """Minimum over every (a, b) pixel pair, +inf if there is none; the
    independent oracle."""
    ay, ax = np.nonzero(a)
    by, bx = np.nonzero(b)
    d2 = (ay[:, None] - by) ** 2 + (ax[:, None] - bx) ** 2
    return math.sqrt(d2.min()) if d2.size else math.inf


def edt_distance(a, b):
    """The distance field of ``b`` sampled over ``a``, +inf where either is
    empty: the path mask_distance replaced in the feature pipeline."""
    return float(raster.euclidean_distance_transform(b)[a].min(initial=math.inf))


def ragged_pair(rng):
    """Two disjoint non-empty noise masks on a random canvas."""
    h, w = rng.integers(2, 48, 2)
    a = rng.random((h, w)) < rng.uniform(0.005, 0.3)
    b = (rng.random((h, w)) < rng.uniform(0.005, 0.3)) & ~a
    a[0, 0] = b[-1, -1] = True
    a[-1, -1] = b[0, 0] = False
    return a, b


@st.composite
def mask_pairs(draw):
    """Two masks, either of them possibly empty, on one canvas of up to
    12x12 pixels."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    return draw(arrays(np.bool_, shape)), draw(arrays(np.bool_, shape))


class TestMaskDistance:
    @given(mask_pairs())
    @example((np.ones((3, 3), bool), np.zeros((3, 3), bool)))  # +inf from an empty mask
    @example((np.zeros((3, 3), bool), np.ones((3, 3), bool)))
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_and_edt_bit_for_bit(self, pair):
        a, b = pair
        got = raster.mask_distance(a, b)
        assert got == all_pairs_distance(a, b)
        assert got == edt_distance(a, b)

    def test_overlap_gives_zero(self):
        obj = np.zeros((6, 6), bool)
        obj[2:4, 2:4] = True
        hand = np.zeros((6, 6), bool)
        hand[3:5, 3:5] = True
        assert raster.mask_distance(hand, obj) == 0.0

    def test_touching_masks(self):
        hand = np.zeros((5, 8), bool)
        hand[1:4, 0:3] = True
        obj = np.zeros((5, 8), bool)
        obj[0:5, 3:8] = True
        assert raster.mask_distance(hand, obj) == 1.0

    def test_three_four_five(self):
        obj = np.zeros((6, 6), bool)
        obj[0, 0] = True
        hand = np.zeros((6, 6), bool)
        hand[4, 3] = True  # (x=3, y=4): hypotenuse 5
        assert raster.mask_distance(hand, obj) == 5.0

    def test_opposite_canvas_corners(self):
        a = np.zeros((7, 11), bool)
        b = np.zeros((7, 11), bool)
        a[0, 0] = b[6, 10] = True
        assert raster.mask_distance(a, b) == math.sqrt(6 * 6 + 10 * 10)
        a[:, :3] = True  # a full-height band: every pixel touches an edge
        b[:, 8:] = True
        assert raster.mask_distance(a, b) == 6.0

    def test_ragged_noise_matches_oracles(self, rng):
        for _ in range(30):
            a, b = ragged_pair(rng)
            got = raster.mask_distance(a, b)
            assert got == all_pairs_distance(a, b)
            assert got == edt_distance(a, b)

    def test_pairwise_symmetry(self, rng):
        obj = rng.random((10, 10)) < 0.15
        hand = rng.random((10, 10)) < 0.15
        obj[1, 1] = hand[8, 8] = True
        assert raster.mask_distance(obj, hand) == raster.mask_distance(hand, obj)

    def test_pair_matrix_is_built_in_blocks(self, monkeypatch, rng):
        near = np.eye(16, dtype=bool)
        near[8:] = False  # (0, 0) .. (7, 7)
        far = np.eye(16, dtype=bool)
        far[:9] = False  # (9, 9) .. (15, 15): the closest pair is near's last pixel
        pairs = [(near, far), (far, near)] + [ragged_pair(rng) for _ in range(30)]
        want = [all_pairs_distance(a, b) for a, b in pairs]
        monkeypatch.setattr(raster, "PAIR_BLOCK", 3)  # many blocks per call
        assert [raster.mask_distance(a, b) for a, b in pairs] == want

    def test_errors(self):
        full = np.ones((3, 3), bool)
        with pytest.raises(ValueError, match="mismatch"):
            raster.mask_distance(full, np.ones((2, 3), bool))
        with pytest.raises(ValueError, match="2-D"):
            raster.mask_distance(full, np.ones(9, bool))


# ---------------------------------------------------------------------------
# the kernels against their float64, full-canvas formulas


def reference_laplacian_variance(img):
    """The Laplacian variance in float64, as the kernel computed it on
    float64 copies of the frames."""
    img = np.asarray(img, dtype=np.float64)
    lap = (img[:-2, 1:-1] + img[2:, 1:-1] + img[1:-1, :-2] + img[1:-1, 2:]
           - 4.0 * img[1:-1, 1:-1])
    return float(np.var(lap))


def reference_frame_diff_energy(a, b):
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


def reference_centroid(mask):
    ys, xs = np.nonzero(mask)
    return (float(xs.mean()), float(ys.mean())) if xs.size else None


def reference_distance(a, b):
    """Minimum over boundary pairs found on the whole canvas."""
    if not (a.any() and b.any()):
        return math.inf
    if (a & b).any():
        return 0.0

    def boundary(fg):
        inner = fg.copy()
        inner[1:] &= fg[:-1]
        inner[:-1] &= fg[1:]
        inner[:, 1:] &= fg[:, :-1]
        inner[:, :-1] &= fg[:, 1:]
        return np.nonzero(fg & ~inner)

    (ay, ax), (by, bx) = boundary(a), boundary(b)
    return math.sqrt(int(((ay[:, None] - by) ** 2 + (ax[:, None] - bx) ** 2).min()))


@st.composite
def frame_pairs(draw):
    """Two uint8 frames of one shape, from 3x3 up to non-square sizes."""
    shape = (draw(st.integers(3, 40)), draw(st.integers(3, 40)))
    return draw(arrays(np.uint8, shape)), draw(arrays(np.uint8, shape))


@st.composite
def shaped_mask(draw, shape):
    """A union of rectangles (single pixels among them) anywhere on the
    canvas, edges and corners included, or plain noise."""
    h, w = shape
    if draw(st.booleans()):
        return draw(arrays(np.bool_, shape))
    mask = np.zeros(shape, bool)
    for _ in range(draw(st.integers(1, 3))):
        y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        mask[y:y + draw(st.integers(1, h)), x:x + draw(st.integers(1, w))] = True
    return mask


@st.composite
def canvas_mask_pairs(draw):
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    return draw(shaped_mask(shape)), draw(shaped_mask(shape))


def pixels(shape, *points):
    mask = np.zeros(shape, bool)
    for point in points:
        mask[point] = True
    return mask


def l_shape_and_inner_pixel():
    """Disjoint masks whose bounding boxes overlap."""
    a = np.zeros((6, 6), bool)
    a[0, :] = a[:, 0] = True
    b = np.zeros((6, 6), bool)
    b[3, 3] = True
    return a, b


class TestKernelsMatchReference:
    @given(frame_pairs())
    @settings(max_examples=200, deadline=None)
    def test_integer_scores_are_the_float64_bits(self, pair):
        a, b = pair
        assert raster.laplacian_variance(b) == reference_laplacian_variance(b)
        assert raster.frame_diff_energy(a, b) == reference_frame_diff_energy(a, b)

    @pytest.mark.parametrize("shape", [(96, 128), (97, 131), (480, 640)])
    def test_integer_scores_on_canvas_sized_frames(self, rng, shape):
        a, b = (rng.integers(0, 256, shape).astype(np.uint8) for _ in range(2))
        b[: shape[0] // 2] = 255  # extreme values: the largest squares and sums
        a[: shape[0] // 2] = 0
        assert raster.laplacian_variance(b) == reference_laplacian_variance(b)
        assert raster.frame_diff_energy(a, b) == reference_frame_diff_energy(a, b)

    @given(canvas_mask_pairs())
    @settings(max_examples=400, deadline=None)
    def test_cropped_mask_kernels_match_full_canvas(self, pair):
        a, b = pair
        assert raster.mask_centroid(a) == reference_centroid(a)
        assert raster.mask_distance(a, b) == reference_distance(a, b)

    @pytest.mark.parametrize("pair", [
        l_shape_and_inner_pixel(),
        l_shape_and_inner_pixel()[::-1],
        # touching masks on the canvas edges: distance 1.0
        (pixels((1, 5), (0, 0)), pixels((1, 5), (0, 1))),
        (pixels((5, 1), (3, 0), (4, 0)), pixels((5, 1), (2, 0))),
        # single pixels in opposite corners
        (pixels((4, 7), (3, 0)), pixels((4, 7), (0, 6))),
    ])
    def test_edge_cases_match_full_canvas(self, pair):
        a, b = pair
        assert raster.mask_centroid(a) == reference_centroid(a)
        assert raster.mask_distance(a, b) == reference_distance(a, b)

    def test_extract_writes_the_reference_kernels_bytes(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        assert run_cli("synth", "--out", corpus, "--episodes", 2, "--seed", 3) == 0
        assert run_cli("extract", "--manifest-dir", corpus, "--out", tmp_path / "new") == 0
        for name, reference in (
            ("laplacian_variance", reference_laplacian_variance),
            ("frame_diff_energy", reference_frame_diff_energy),
            ("mask_centroid", reference_centroid),
            ("mask_distance", reference_distance),
        ):
            monkeypatch.setattr(features, name, reference)
        assert run_cli("extract", "--manifest-dir", corpus, "--out", tmp_path / "ref") == 0
        new = (tmp_path / "new" / "features.csv").read_bytes()
        assert new.count(b"\n") > 100
        assert new == (tmp_path / "ref" / "features.csv").read_bytes()
