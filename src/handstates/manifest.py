"""Episode manifest format: one CSV per episode naming the PGM files that
hold its frames and masks.

The manifest has header ``frame,hand_mask,object_mask,label`` and one row
per frame, with paths relative to the manifest file and labels as lowercase
class names. A file may hold a stream of images (see ``pgm``): the cells
that name one file take its images in order, row by row and left to right
within a row, and the file must hold exactly as many images as cells name
it. ``write_episode`` writes each stream, frames and the two masks, as one
file, ``STREAMS``; a corpus of one image per file, named by one cell each,
reads the same way. A corpus directory holds one episode subdirectory per
episode, each with its own ``manifest.csv``, or a single episode at its
root, never both; ``cli.read_corpus`` reads one.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

from . import pgm
from .features import CLASS_NAMES, Episode, csv_table, parse_label, write_csv

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ("frame", "hand_mask", "object_mask", "label")
# the files write_episode writes, one per manifest column
STREAMS = ("frames.pgm", "hand.pgm", "object.pgm")


def write_episode(episode: Episode, out_dir) -> Path:
    """Write an episode under ``out_dir`` as its three ``STREAMS`` files and
    its manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    frames, hands, objects = STREAMS
    pgm.write_pgms(out / frames, episode.frames)
    pgm.write_pgms(out / hands, map(pgm.mask_to_gray, episode.hand_masks))
    pgm.write_pgms(out / objects, map(pgm.mask_to_gray, episode.object_masks))
    manifest = out / MANIFEST_NAME
    write_csv(manifest, MANIFEST_HEADER,
              (STREAMS + (CLASS_NAMES[label],) for label in episode.labels))
    return manifest


def read_episode(manifest_path, root=None) -> Episode:
    """Load an episode from its manifest; the directory name is its id.

    Each file the manifest names is opened once, its bytes hashed into
    ``Episode.file_digests`` and split into its images. Frames stay the
    uint8 arrays the split returns. The manifest is read by ``csv_table``;
    a file that holds another number of images than cells name it, or a
    frame or mask of another size than the first frame, raises a ValueError
    naming the line and the file. Given ``root``, the corpus directory, so
    does a file that is absolute or lies above ``root``, before any file the
    manifest names is read, and each digest is keyed by the file's normalised path below
    ``root``, the path the corpus walk finds it by. Which files an episode
    may read is the walk's to say: ``cli.read_corpus`` refuses one read
    through a symlinked directory once its episode has been read.
    """
    path = Path(manifest_path)
    base = os.path.dirname(path)
    inside = os.curdir if root is None else os.path.relpath(path.parent, root)
    key = os.path.normpath(os.path.join(inside, path.name))

    def fail(lineno: int, message: str):
        raise ValueError(f"{path}:{lineno}: {message}")

    with open(path, "rb") as fh:
        data = fh.read()

    labels = []
    # file -> (line, row, column) of each cell that names it, in order, by
    # its normalised path, so that two spellings of one file are one file
    cells: dict[str, list[tuple[int, int, int]]] = {}
    for lineno, row in csv_table(data, path, MANIFEST_HEADER):
        for column, rel in enumerate(row[:3]):
            cells.setdefault(os.path.normpath(rel), []).append((lineno, len(labels), column))
        try:
            labels.append(parse_label(row[3]))
        except ValueError as exc:
            fail(lineno, str(exc))
    if not labels:
        raise ValueError(f"{path}: manifest lists no frames")
    below = {rel: os.path.normpath(os.path.join(inside, rel)) for rel in cells}
    if root is not None:
        for rel, named in cells.items():
            if os.path.isabs(below[rel]) or below[rel].split(os.sep, 1)[0] == os.pardir:
                fail(named[0][0], f"{rel} is outside the corpus {os.fspath(root)}")
    digests = {key: hashlib.sha256(data).hexdigest()}

    # frames, hand masks and object masks, by column
    streams: list[list] = [[None] * len(labels) for _ in range(3)]
    first = None  # (file, shape) of the first frame
    for rel, named in cells.items():
        try:
            raw = pgm.read_bytes(os.path.join(base, rel))
            digests[below[rel]] = hashlib.sha256(raw).hexdigest()
            images = pgm.split_pgms(raw, rel)
        except (OSError, ValueError) as exc:
            fail(named[0][0], str(exc))
        if len(images) != len(named):
            fail(named[min(len(images), len(named) - 1)][0],
                 f"{rel} holds {len(images)} images, but {len(named)} cells name it")
        first = first or (rel, images[0].shape)
        for k, ((lineno, i, column), img) in enumerate(zip(named, images), start=1):
            if img.shape != first[1]:
                fail(lineno, f"{rel} image {k} is {img.shape[1]}x{img.shape[0]}, "
                             f"{first[0]} image 1 is {first[1][1]}x{first[1][0]}")
            # a mask is decoded in place, in the bytes its file was read into
            streams[column][i] = img if column == 0 else pgm.gray_to_mask(img)
    return Episode(
        episode_id=path.parent.name,
        frames=streams[0],
        hand_masks=streams[1],
        object_masks=streams[2],
        labels=labels,
        file_digests=digests,
    )


def find_manifests(root) -> list[Path]:
    """Locate episode manifests under a corpus directory (sorted by path):
    the root's own, for a corpus of one episode, or one per episode
    subdirectory. A root with both raises a ValueError naming two of them,
    since reading either kind alone would drop the other's episodes."""
    root = Path(root)
    single = root / MANIFEST_NAME
    found = sorted(p / MANIFEST_NAME for p in root.iterdir()
                   if p.is_dir() and (p / MANIFEST_NAME).is_file())
    if single.is_file():
        if found:
            raise ValueError(f"{single} and {found[0]}: a corpus holds one episode at its root "
                             "or one per subdirectory, not both")
        return [single]
    if not found:
        raise FileNotFoundError(f"no {MANIFEST_NAME} found under {os.fspath(root)}")
    return found
