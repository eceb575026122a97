"""Binary PGM reader/writer: bit-exact round trips and header handling."""

import numpy as np
import pytest

from handstates import pgm


def test_round_trip_is_bit_exact(tmp_path, rng):
    img = rng.integers(0, 256, (37, 53)).astype(np.uint8)
    path = tmp_path / "x.pgm"
    pgm.write_pgm(path, img)
    back = pgm.read_pgm(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)
    # writing the same array twice produces identical bytes
    path2 = tmp_path / "y.pgm"
    pgm.write_pgm(path2, img)
    assert path.read_bytes() == path2.read_bytes()


def test_float_input_is_rounded_and_clipped(tmp_path):
    img = np.array([[-3.0, 12.4], [12.6, 300.0]])
    path = tmp_path / "f.pgm"
    pgm.write_pgm(path, img)
    assert np.array_equal(pgm.read_pgm(path), np.array([[0, 12], [13, 255]], np.uint8))


def test_comments_and_whitespace_in_header(tmp_path):
    raw = b"P5\n# a comment\n 2 # inline\n2\n255\n" + bytes([1, 2, 3, 4])
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = pgm.read_pgm(path)
    assert np.array_equal(img, np.array([[1, 2], [3, 4]], np.uint8))


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P2\n2 2\n255\n1 2 3 4", "not a binary PGM"),
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2 2\n255\n" + bytes(3), "truncated"),
        (b"", "truncated PGM header"),
        (b"P5\n2 2 # the maxval is missing", "truncated PGM header"),
        (b"P5\n2 two\n255\n" + bytes(4), "bad PGM header"),
        (b"P5\n0 2\n255\n", "invalid dimensions"),
    ],
)
def test_malformed_files_rejected(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message) as exc:
        pgm.read_pgm(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_stream_round_trip_is_bit_exact(tmp_path, rng):
    images = [rng.integers(0, 256, shape).astype(np.uint8)
              for shape in ((37, 53), (37, 53), (5, 2), (37, 53))]
    path = tmp_path / "s.pgm"
    pgm.write_pgms(path, images)
    back = pgm.split_pgms(bytearray(path.read_bytes()), "s.pgm")
    assert len(back) == len(images)
    for img, got in zip(images, back):
        assert got.dtype == np.uint8
        assert np.array_equal(got, img)
    # the stream is its images' one-image files, concatenated
    singles = []
    for i, img in enumerate(images):
        pgm.write_pgm(tmp_path / f"{i}.pgm", img)
        singles.append((tmp_path / f"{i}.pgm").read_bytes())
    assert path.read_bytes() == b"".join(singles)
    # read_pgm reads a stream's first image
    assert np.array_equal(pgm.read_pgm(path), images[0])
    path2 = tmp_path / "s2.pgm"
    pgm.write_pgms(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_stream_may_end_in_whitespace_and_comments():
    raw = b"P5 1 1 255 \x07P5 1 1 255 \x08\n# end\n "
    assert [img.tolist() for img in pgm.split_pgms(bytearray(raw), "s.pgm")] == [[[7]], [[8]]]


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"", "s.pgm image 1: truncated PGM header"),
        (b"P5 1 1 255 \x07P5 2 1 255 \x08", "s.pgm image 2: raster truncated"),
        (b"P5 1 1 255 \x07P5 1 1 255 \x08junk", "s.pgm image 3: not a binary PGM"),
        (b"P5 1 1 255 \x07P5 1 1", "s.pgm image 2: truncated PGM header"),
    ],
)
def test_stream_errors_name_the_file_and_image(raw, message):
    with pytest.raises(ValueError, match=message):
        pgm.split_pgms(bytearray(raw), "s.pgm")


def test_array_views_the_bytes_read(tmp_path, rng):
    images = [rng.integers(0, 256, (5, 7)).astype(np.uint8) for _ in range(2)]
    path = tmp_path / "v.pgm"
    pgm.write_pgms(path, images)
    data = bytearray(path.read_bytes())
    back = pgm.split_pgms(data, "v.pgm")
    for img in back:
        assert np.shares_memory(img, np.frombuffer(data, np.uint8))  # a view, not a copy
    back[1][0, 0] ^= 1  # writable, as a copy would be
    assert data[-images[1].size] == images[1][0, 0] ^ 1


def test_mask_convention_threshold_128():
    gray = np.array([[0, 127], [128, 255]], np.uint8)
    mask = pgm.gray_to_mask(gray)
    assert mask.dtype == bool and np.shares_memory(mask, gray)  # decoded in place
    assert np.array_equal(mask, [[False, False], [True, True]])
    mask = np.array([[True, False]])
    assert np.array_equal(pgm.mask_to_gray(mask), [[255, 0]])


def test_mask_round_trip(tmp_path, rng):
    mask = rng.random((9, 14)) < 0.4
    path = tmp_path / "m.pgm"
    pgm.write_pgm(path, pgm.mask_to_gray(mask))
    assert np.array_equal(pgm.gray_to_mask(pgm.read_pgm(path)), mask)

