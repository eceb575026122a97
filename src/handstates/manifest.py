"""Episode manifest format: one CSV per episode naming the PGM files that
hold its frames and masks.

The manifest has header ``frame,hand_mask,object_mask,label`` and one row
per frame, with paths relative to the manifest file and labels as lowercase
class names. A file may hold a stream of images (see ``pgm``): the cells
that name one file take its images in order, row by row and left to right
within a row, and the file must hold exactly as many images as cells name
it. ``write_episode`` writes each stream, frames and the two masks, as one
file, ``STREAMS``; a corpus of one image per file, named by one cell each,
reads the same way. The episodes of a corpus are the ``manifest.csv`` files
that the walk of ``read_corpus`` finds, one per episode directory, the root
or any below it, none inside another.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterator
from pathlib import Path, PurePath

from . import pgm
from .features import (CLASS_NAMES, RUN_MANIFEST, Episode, csv_table, parse_label, sha256_file,
                       write_csv)

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ("frame", "hand_mask", "object_mask", "label")
# the files write_episode writes, one per manifest column
STREAMS = ("frames.pgm", "hand.pgm", "object.pgm")
THROUGH_SYMLINK = ("read through a symlinked directory, which the input digest does not enter; "
                   "copy it into the corpus")


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
    """Load an episode from its manifest. Its id is its directory's POSIX
    path below ``root``, the corpus directory, such as ``group/ep_002``; for
    the root's own episode, or without ``root``, the directory's name.

    Each file the manifest names is opened once, its bytes hashed into
    ``Episode.file_digests`` and split into its images; frames stay uint8.
    The manifest is read by ``csv_table``; a file that holds another number
    of images than cells name it, or a frame or mask of another size than
    the first frame, raises a ValueError naming the line and the file. Given
    ``root``, so does a file that is absolute or lies above ``root``, before
    any file is read, and each digest is keyed by the file's normalised path
    below ``root``, the path the corpus walk finds it by.
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
        episode_id=path.parent.name if inside == os.curdir else Path(inside).as_posix(),
        frames=streams[0],
        hand_masks=streams[1],
        object_masks=streams[2],
        labels=labels,
        file_digests=digests,
    )


def _walk(root: Path) -> tuple[dict[str, Path], list[Path]]:
    """The corpus at ``root``: its files in ``sorted(root.rglob("*"))`` order
    by path below it, bar run manifests (they hold a wall time and an output
    path), and the manifests among them. The walk leaves out symlinked
    directories, refusing one that holds a manifest at any depth, and
    refuses a manifest below another's directory, naming both."""
    walked = {}
    for path in sorted(root.rglob("*")):
        if path.is_symlink() and (hidden := next(path.rglob(MANIFEST_NAME), None)):
            raise ValueError(f"{hidden}: {THROUGH_SYMLINK}")
        if path.is_file() and path.name != RUN_MANIFEST:
            walked[str(path.relative_to(root))] = path
    manifests = [rel for rel in walked if PurePath(rel).name == MANIFEST_NAME]
    for rel in manifests:
        # every ancestor: a/b/manifest.csv sorts before a/manifest.csv
        for above in PurePath(rel).parent.parents:
            if (outer := str(above / MANIFEST_NAME)) in walked:
                raise ValueError(f"{walked[outer]} and {walked[rel]}: a corpus holds one episode "
                                 "at its root or one per subdirectory, not both")
    if not manifests:
        raise FileNotFoundError(f"no {MANIFEST_NAME} found under {os.fspath(root)}")
    return walked, [walked[rel] for rel in manifests]


def find_manifests(root) -> list[Path]:
    """The episode manifests of the corpus at ``root``, in walk order."""
    return _walk(Path(root))[1]


def read_corpus(root, digest) -> Iterator[Episode]:
    """The episodes of the corpus at ``root``, read one at a time as they
    are consumed, after ``_walk`` at call time. An episode that names a file
    outside ``root``, or reads one the walk did not find, raises a ValueError
    naming the file before it is yielded. When they run out, ``digest`` (a
    hashlib object) has taken in the input digest: each walked file's path
    below ``root`` and the hex sha256 of its bytes."""
    root = Path(root)
    return _read_and_hash(root, *_walk(root), digest)


def _read_and_hash(root: Path, walked: dict, manifests: list[Path], digest) -> Iterator[Episode]:
    # digests of the files the episodes read, by path below the root; each
    # episode is dropped once it is consumed, before the next one is read
    read: dict[str, str] = {}
    for path in manifests:
        episode = read_episode(path, root)
        if unwalked := [rel for rel in episode.file_digests if rel not in walked]:
            raise ValueError(f"{root / unwalked[0]}: {THROUGH_SYMLINK}")
        read.update(episode.file_digests)
        yield episode
        del episode
    for rel, path in walked.items():
        digest.update(rel.encode())
        digest.update((read.pop(rel, None) or sha256_file(path)).encode())
