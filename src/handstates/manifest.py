"""Episode manifest format: one CSV per episode referencing PGM files.

The manifest has header ``frame,hand_mask,object_mask,label`` with paths
relative to the manifest file and labels as lowercase class names. A corpus
directory holds one episode subdirectory per episode, each with its own
``manifest.csv``; ``cli.read_corpus`` reads one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from pathlib import Path

import numpy as np

from . import pgm
from .features import CLASS_NAMES, Episode, parse_label

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ("frame", "hand_mask", "object_mask", "label")


class ManifestError(ValueError):
    """Malformed manifest row; message carries file and line number."""


def write_episode(episode: Episode, out_dir) -> Path:
    """Write an episode's PGM files and manifest under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(len(episode)):
        names = (f"frame_{i:04d}.pgm", f"hand_{i:04d}.pgm", f"obj_{i:04d}.pgm")
        pgm.write_pgm(out / names[0], episode.frames[i])
        pgm.write_pgm(out / names[1], pgm.mask_to_gray(episode.hand_masks[i]))
        pgm.write_pgm(out / names[2], pgm.mask_to_gray(episode.object_masks[i]))
        rows.append(names + (CLASS_NAMES[episode.labels[i]],))
    manifest = out / MANIFEST_NAME
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return manifest


def read_episode(manifest_path) -> Episode:
    """Load an episode from its manifest; the directory name is its id.

    Frames stay the uint8 arrays the PGM reader returns. Every file read is
    hashed from the bytes already in memory, into ``Episode.file_digests``.
    A frame or mask of another size than the first frame raises a
    ManifestError naming both files.
    """
    path = Path(manifest_path)
    base = os.path.dirname(path)

    def fail(lineno: int, message: str):
        raise ManifestError(f"{path}:{lineno}: {message}")

    with open(path, "rb") as fh:
        data = fh.read()
    digests = {path.name: hashlib.sha256(data).hexdigest()}

    def read(rel: str) -> np.ndarray:
        img = pgm.read_pgm(os.path.join(base, rel))
        digests[rel] = hashlib.sha256(pgm.file_bytes(img)).hexdigest()
        return img

    frames: list[np.ndarray] = []
    hand_masks: list[np.ndarray] = []
    object_masks: list[np.ndarray] = []
    labels = []
    # decoded as open(path, newline="") would, without reading the file again
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), newline=""))
    header = next(reader, None)
    if header is None or tuple(header) != MANIFEST_HEADER:
        fail(1, f"bad manifest header {header}")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 4:
            fail(lineno, f"expected 4 columns, got {len(row)}")
        frame_rel, hand_rel, obj_rel, label_name = row
        try:
            frame = read(frame_rel)
            hand = pgm.gray_to_mask(read(hand_rel))
            obj = pgm.gray_to_mask(read(obj_rel))
        except (OSError, ValueError) as exc:
            fail(lineno, str(exc))
        if not frames:
            first_rel, first_shape = frame_rel, frame.shape
        for rel, img in ((frame_rel, frame), (hand_rel, hand), (obj_rel, obj)):
            if img.shape != first_shape:
                fail(lineno, f"{rel} is {img.shape[1]}x{img.shape[0]}, "
                             f"{first_rel} is {first_shape[1]}x{first_shape[0]}")
        try:
            label = parse_label(label_name)
        except ValueError as exc:
            fail(lineno, str(exc))
        frames.append(frame)
        hand_masks.append(hand)
        object_masks.append(obj)
        labels.append(label)
    if not frames:
        raise ManifestError(f"{path}: manifest lists no frames")
    return Episode(
        episode_id=path.parent.name,
        frames=frames,
        hand_masks=hand_masks,
        object_masks=object_masks,
        labels=labels,
        file_digests=digests,
    )


def find_manifests(root) -> list[Path]:
    """Locate episode manifests under a corpus directory (sorted by path)."""
    root = Path(root)
    single = root / MANIFEST_NAME
    if single.is_file():
        return [single]
    found = sorted(
        p / MANIFEST_NAME
        for p in root.iterdir()
        if p.is_dir() and (p / MANIFEST_NAME).is_file()
    )
    if not found:
        raise FileNotFoundError(f"no {MANIFEST_NAME} found under {os.fspath(root)}")
    return found
