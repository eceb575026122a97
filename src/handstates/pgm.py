"""Binary PGM ("P5", 8-bit, maxval 255) reader and writer.

A PGM file holds one image or a stream of them: netpbm lets images follow
one another with nothing between them. Frames and masks travel between
tools as such files; masks use the convention value >= 128 -> foreground.
Write followed by read is bit-exact. ``read_pgm`` reads a file's first
image and ``split_pgms`` every image of a file's bytes, which
``read_bytes`` reads; both go through one header parser.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable
from typing import Union

import numpy as np

PathLike = Union[str, os.PathLike]


# The header: magic, width, height and maxval, each token preceded by
# whitespace and '#' comments that run to the end of their line. Every part
# may match empty, so the pattern always matches and an empty token is a
# truncated header.
_GAP = rb"(?:\s|#[^\n]*\n?)*"
_HEADER = re.compile((_GAP + rb"(\S*)") * 4)
# what may follow a file's last image
_TAIL = re.compile(_GAP + rb"\Z")


def _decode(data: bytearray, pos: int, where: str) -> tuple[np.ndarray, int]:
    """The image whose header starts at ``data[pos]``, as a writable uint8
    (height, width) view of ``data``, and the offset just past its raster.
    Errors start with ``where``."""
    header = _HEADER.match(data, pos)
    magic, *fields = header.groups()
    if magic and magic != b"P5":
        raise ValueError(f"{where}: not a binary PGM (magic {magic!r})")
    if not all(fields):
        raise ValueError(f"{where}: truncated PGM header")
    try:
        width, height, maxval = (int(field) for field in fields)
    except ValueError:
        raise ValueError(f"{where}: bad PGM header {fields}") from None
    if width < 1 or height < 1:
        raise ValueError(f"{where}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise ValueError(f"{where}: unsupported maxval {maxval} (want 255)")
    start = header.end() + 1  # one whitespace byte ends the header
    end = start + width * height
    if len(data) < end:
        raise ValueError(f"{where}: raster truncated")
    return np.frombuffer(data, np.uint8, width * height, start).reshape(height, width), end


def read_bytes(path: PathLike) -> bytearray:
    """A file's bytes, read into a bytearray without a second copy."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return data


def read_pgm(path: PathLike) -> np.ndarray:
    """Read the first image of a binary PGM file into a writable uint8
    (height, width) array."""
    return _decode(read_bytes(path), 0, os.fspath(path))[0]


def split_pgms(data: bytearray, name: str) -> list[np.ndarray]:
    """Every image of a PGM file's bytes, in order, each a writable view of
    ``data``. Whitespace and comments may follow the last image, as netpbm
    allows. An error names the file as ``name`` and the image by its
    1-based position in the file."""
    images, pos = [], 0
    while not (images and _TAIL.match(data, pos)):
        image, pos = _decode(data, pos, f"{name} image {len(images) + 1}")
        images.append(image)
    return images


def write_pgm(path: PathLike, img: np.ndarray) -> None:
    """Write a 2-D array as a one-image binary PGM; values are clipped to 0..255."""
    write_pgms(path, [img])


def write_pgms(path: PathLike, images: Iterable[np.ndarray]) -> None:
    """Write 2-D arrays as one binary PGM file, their images in order;
    values are clipped to 0..255."""
    with open(path, "wb") as fh:
        for img in images:
            arr = np.asarray(img)
            if arr.ndim != 2:
                raise ValueError(f"PGM image must be 2-D, got shape {arr.shape}")
            if arr.dtype != np.uint8:
                arr = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
            h, w = arr.shape
            fh.write(b"P5\n%d %d\n255\n" % (w, h))
            fh.write(arr.tobytes())


def mask_to_gray(mask: np.ndarray) -> np.ndarray:
    """Encode a boolean mask for PGM storage (foreground -> 255)."""
    return np.asarray(mask, dtype=bool).astype(np.uint8) * np.uint8(255)


def gray_to_mask(img: np.ndarray) -> np.ndarray:
    """Decode a PGM-stored uint8 mask in place (value >= 128 -> foreground):
    the mask is a bool view of ``img``'s memory, which it overwrites."""
    return np.greater_equal(img, 128, out=img.view(bool))
