"""Deterministic image primitives used by the feature pipeline.

Conventions: a frame ("raster") is a 2-D uint8 array of intensities in
row-major (height, width) layout, as PGM stores it. The keyframe scores
widen 8-bit frames to int32, where every sum they take is an exact integer,
so they return the bits the float64 formulas give; any other frame is
scored in float64. A mask is a 2-D bool array of the same shape; the mask
kernels work on the bounding box of its foreground. An empty mask is no
error: it has no centroid (None) and is +inf from every mask, as a
distance field is +inf where there is no foreground anywhere. Coordinates
are pixel centers, x = column and y = row.

All functions here are pure and safe to call from any number of workers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Largest number of (a, b) pixel pairs mask_distance holds at once; bounds
# its scratch memory to a few MB however large and ragged the masks are.
PAIR_BLOCK = 1 << 20


# (y0, y1, x0, x1): rows y0..y1-1 and columns x0..x1-1 of a canvas.
Box = tuple[int, int, int, int]


class Point2(NamedTuple):
    """Sub-pixel image coordinate (x = column, y = row)."""

    x: float
    y: float


def _score_dtype(*frames: np.ndarray) -> type:
    """int32 for 8-bit integer frames, float64 for anything else.

    On 8-bit frames every partial sum of the scores is an integer below
    2**53, so float64 holds it exactly whatever the summation order, and
    the integer path returns the bits of the float64 one.
    """
    exact = all(f.dtype.kind in "biu" and f.dtype.itemsize == 1 for f in frames)
    return np.int32 if exact else np.float64


def laplacian_variance(img: np.ndarray) -> float:
    """Population variance of the 4-neighbour Laplacian at interior pixels.

    Kernel is (0,1,0 / 1,-4,1 / 0,1,0) evaluated without padding, so images
    narrower than 3 pixels in either dimension have no interior and are
    rejected.
    """
    img = np.asarray(img)
    img = img.astype(_score_dtype(img), copy=False)
    h, w = img.shape
    if h < 3 or w < 3:
        raise ValueError("image too small for Laplacian (needs at least 3x3)")
    lap = img[:-2, 1:-1] + img[2:, 1:-1]
    lap += img[1:-1, :-2]
    lap += img[1:-1, 2:]
    lap -= 4 * img[1:-1, 1:-1]
    return float(np.var(lap))


def frame_diff_energy(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared per-pixel intensity difference between two frames."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"frame dimension mismatch: {a.shape} vs {b.shape}")
    d = np.subtract(a, b, dtype=_score_dtype(a, b))
    d *= d
    return float(np.mean(d))


def _as_mask(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    return mask.astype(bool, copy=False)


def _min_plus_squares(f: np.ndarray) -> np.ndarray:
    """``out[k, i] = min_j f[k, j] + (i - j)**2`` for each row ``k`` of ``f``.

    The exact 1-D squared distance transform of every row: one ``min`` per
    row over the n x n table of squared offsets. A row of +inf stays +inf.
    """
    offsets = np.arange(f.shape[1], dtype=np.float64)
    table = np.square(offsets[:, None] - offsets)
    out = np.empty_like(f)
    for row, res in zip(f, out):
        np.min(row + table, axis=1, initial=np.inf, out=res)
    return out


def euclidean_distance_transform(mask: np.ndarray) -> np.ndarray:
    """Exact per-pixel distance to the nearest foreground pixel of ``mask``.

    Distances are pixel-center to pixel-center; an all-background mask
    yields +inf everywhere so callers can treat "object absent" uniformly.
    The squared distance is separable: a min-plus pass along the columns,
    then one along the rows. Every finite value is an integer, exact in
    float64, so the one ``sqrt`` is correctly rounded.
    """
    f = np.where(_as_mask(mask), 0.0, np.inf)
    return np.sqrt(_min_plus_squares(_min_plus_squares(f.T).T))


def _bounding_box(fg: np.ndarray) -> Box | None:
    """(y0, y1, x0, x1), the half-open box of the foreground; None if empty."""
    rows = np.nonzero(fg.any(axis=1))[0]
    if rows.size == 0:
        return None
    y0, y1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.nonzero(fg[y0:y1].any(axis=0))[0]
    return y0, y1, int(cols[0]), int(cols[-1]) + 1


def mask_centroid(mask: np.ndarray) -> Point2 | None:
    """Arithmetic mean of foreground pixel coordinates; None if there are none.

    Each mean is (integer coordinate sum in the box + n * box offset) / n,
    one correctly rounded division, so it is the float of the mean over
    the whole canvas.
    """
    fg = _as_mask(mask)
    box = _bounding_box(fg)
    if box is None:
        return None
    y0, y1, x0, x1 = box
    ys, xs = np.nonzero(fg[y0:y1, x0:x1])
    n = xs.size
    return Point2((int(xs.sum()) + n * x0) / n, (int(ys.sum()) + n * y0) / n)


def _boundary_pixels(fg: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of the foreground pixels with a 4-neighbour in the background.

    Off-canvas neighbours count as foreground: stepping towards any other
    pixel of the canvas never leaves it. Only ``box``, grown by one pixel
    wherever the canvas allows, is scanned: that margin is background, so
    every neighbour a box pixel has on the canvas is inside the scan.
    """
    h, w = fg.shape
    y0, y1, x0, x1 = box
    y0, x0 = max(y0 - 1, 0), max(x0 - 1, 0)
    crop = fg[y0:min(y1 + 1, h), x0:min(x1 + 1, w)]
    inner = crop.copy()
    inner[1:] &= crop[:-1]
    inner[:-1] &= crop[1:]
    inner[:, 1:] &= crop[:, :-1]
    inner[:, :-1] &= crop[:, 1:]
    ys, xs = np.nonzero(crop & ~inner)
    return ys + y0, xs + x0


def mask_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Exact minimum pixel-center distance between two masks; +inf if either
    is empty, as the minimum of one's distance field over the other is.

    0.0 when the masks overlap, which they can only where their bounding
    boxes do. Otherwise every closest pair lies on the two 4-connected
    boundaries: a pixel whose 4-neighbours are all in its own mask has one
    strictly closer to the other mask. The minimum squared distance over
    boundary pairs is exact in integers, so the one square root at the end
    is the correctly rounded distance.
    """
    fa = _as_mask(a)
    fb = _as_mask(b)
    if fa.shape != fb.shape:
        raise ValueError(f"mask dimension mismatch: {fa.shape} vs {fb.shape}")
    box_a = _bounding_box(fa)
    box_b = _bounding_box(fb)
    if box_a is None or box_b is None:
        return math.inf
    y0, x0 = max(box_a[0], box_b[0]), max(box_a[2], box_b[2])
    y1, x1 = min(box_a[1], box_b[1]), min(box_a[3], box_b[3])
    if y0 < y1 and x0 < x1 and (fa[y0:y1, x0:x1] & fb[y0:y1, x0:x1]).any():
        return 0.0
    ay, ax = _boundary_pixels(fa, box_a)
    by, bx = _boundary_pixels(fb, box_b)
    step_b = min(by.size, PAIR_BLOCK)
    step_a = max(1, PAIR_BLOCK // step_b)
    best = math.inf
    for i in range(0, ay.size, step_a):
        ya = ay[i:i + step_a, None]
        xa = ax[i:i + step_a, None]
        for j in range(0, by.size, step_b):
            dy = ya - by[j:j + step_b]
            dx = xa - bx[j:j + step_b]
            best = min(best, int((dy * dy + dx * dx).min()))
    return math.sqrt(best)


def image_diagonal(shape: tuple[int, int]) -> float:
    """Length of the image diagonal, the finite stand-in for +inf distances."""
    h, w = shape
    return float(np.hypot(w, h))
