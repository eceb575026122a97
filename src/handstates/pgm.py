"""Binary PGM ("P5", 8-bit, maxval 255) reader and writer.

Frames and masks travel between tools as PGM files; masks use the
convention value >= 128 -> foreground. Write followed by read is bit-exact.
"""

from __future__ import annotations

import os
import re
from typing import Union

import numpy as np

PathLike = Union[str, os.PathLike]


# The header: magic, width, height and maxval, each token preceded by
# whitespace and '#' comments that run to the end of their line. Every part
# may match empty, so the pattern always matches and an empty token is a
# truncated header.
_GAP = rb"(?:\s|#[^\n]*\n?)*"
_HEADER = re.compile((_GAP + rb"(\S*)") * 4)


def read_pgm(path: PathLike) -> np.ndarray:
    """Read a binary PGM file into a uint8 (height, width) array.

    The array is a writable view of the file's bytes, which ``file_bytes``
    returns, so a reader can hash the file without reading it again.
    """
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    header = _HEADER.match(data)
    magic, *fields = header.groups()
    if magic and magic != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {magic!r})")
    if not all(fields):
        raise ValueError(f"{path}: truncated PGM header")
    try:
        width, height, maxval = (int(field) for field in fields)
    except ValueError:
        raise ValueError(f"{path}: bad PGM header {fields}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (want 255)")
    start = header.end() + 1  # one whitespace byte ends the header
    if len(data) - start < width * height:
        raise ValueError(f"{path}: raster truncated")
    return np.frombuffer(data, np.uint8, width * height, start).reshape(height, width)


def file_bytes(img: np.ndarray) -> memoryview | bytearray:
    """Every byte of the file ``read_pgm`` read ``img`` from, header included."""
    base = img
    while isinstance(base, np.ndarray):
        base = base.base
    if not isinstance(base, (memoryview, bytearray)):
        raise ValueError("array was not read by read_pgm")
    return base


def write_pgm(path: PathLike, img: np.ndarray) -> None:
    """Write a 2-D array as binary PGM; values are clipped to 0..255."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise ValueError(f"PGM image must be 2-D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def mask_to_gray(mask: np.ndarray) -> np.ndarray:
    """Encode a boolean mask for PGM storage (foreground -> 255)."""
    return np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8)


def gray_to_mask(img: np.ndarray) -> np.ndarray:
    """Decode a PGM-stored mask (value >= 128 -> foreground)."""
    return np.asarray(img) >= 128
