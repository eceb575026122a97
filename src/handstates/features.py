"""Statistical-kinematic feature pipeline over mask-annotated frame sequences.

The pipeline turns an episode (frames + hand/object masks + per-frame state
labels) into fixed 8-dimensional descriptors in four steps:

1. ``keyframe_indices`` keeps the frames that are sharp and moving;
2. ``select_keyframes`` caches each keyframe's hand centroid and
   hand-object distance, one straight pass over the keyframes;
3. ``slide_windows`` gives the target positions of the windows of N
   consecutive keyframes, each labelled by the state at the keyframe that
   follows it; it is the only definition of window geometry;
4. ``window_feature_vector`` summarises all of a series' windows at once
   into distance/speed statistics plus contact metrics, one row each; a
   contact is a distance within ``contact_epsilon``.

``build_dataset`` runs the four steps episode by episode. The label of a
window needs only steps 1 and 3, which is how ``synth`` counts them.

Every split of a dataset's rows is made here: the holdout split
``stratified_split_indices`` and the folds ``stratified_folds`` cut one
seeded shuffle of each class.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .raster import (
    Point2,
    frame_diff_energy,
    image_diagonal,
    laplacian_variance,
    mask_centroid,
    mask_distance,
)


class ClassLabel(IntEnum):
    """Atomic hand-object interaction states (index order is frozen)."""

    APPROACHING = 0
    GRABBING = 1
    HOLDING = 2
    RELEASING = 3
    UNKNOWN = 4


CLASS_NAMES = tuple(label.name.lower() for label in ClassLabel)
NUM_CLASSES = len(ClassLabel)

FEATURE_NAMES = (
    "mean_dist",
    "std_dist",
    "trend_dist",
    "mean_speed",
    "std_speed",
    "trend_speed",
    "contact_count",
    "contact_duration",
)
FEATURE_DIM = len(FEATURE_NAMES)


def parse_label(name: str) -> ClassLabel:
    try:
        return ClassLabel[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown class label {name!r}") from None


@dataclass
class Episode:
    """Frame sequence with per-frame hand/object masks and state labels.

    Frames are 2-D intensity arrays, uint8 as read from PGM or rendered by
    ``synth``. An episode read from disk keeps the sha256 hex digest of each
    file it was read from in ``file_digests``, its manifest and each image
    file, one entry however many images the file holds. Each is keyed by its
    normalised path below the corpus root ``read_episode`` was given, or
    below the manifest's directory without one.
    """

    episode_id: str
    frames: list[np.ndarray]
    hand_masks: list[np.ndarray]
    object_masks: list[np.ndarray]
    labels: list[ClassLabel]
    file_digests: dict[str, str] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        n = len(self.frames)
        if n < 1:
            raise ValueError("episode must contain at least one frame")
        if not (len(self.hand_masks) == len(self.object_masks) == len(self.labels) == n):
            raise ValueError("episode lists must all have equal length")
        shape = self.frames[0].shape
        for seq in (self.frames, self.hand_masks, self.object_masks):
            for arr in seq:
                if arr.shape != shape:
                    raise ValueError("all frames and masks must share dimensions")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames[0].shape


@dataclass
class PipelineConfig:
    """Thresholds and window geometry for the feature pipeline."""

    sharpness_threshold: float = 10.0
    diff_threshold: float = 1.0
    window_length: int = 10
    stride: int = 1
    contact_epsilon: float = 10.0

    def __post_init__(self):
        if self.window_length < 3:  # the speed trend needs two speeds
            raise ValueError("window_length must be >= 3")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not self.contact_epsilon > 0:
            raise ValueError("contact_epsilon must be > 0")
        if not (self.sharpness_threshold >= 0 and self.diff_threshold >= 0):
            raise ValueError("thresholds must be >= 0")


@dataclass
class KeyframeEntry:
    """Cached per-keyframe signals used by the window descriptors."""

    index: int
    centroid: Point2
    distance: float


@dataclass
class KeyframeSeries:
    episode_id: str
    entries: list[KeyframeEntry]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class LabeledDataset:
    """Feature rows with labels and (episode_id, target_index) provenance."""

    features: np.ndarray  # (n, FEATURE_DIM) float64
    labels: np.ndarray  # (n,) int64
    provenance: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.features.shape[0])


def keyframe_indices(episode: Episode, cfg: PipelineConfig) -> list[int]:
    """Frame indices of the sharp, moving frames of an episode.

    Frame 0 is always kept; frame i > 0 is kept iff its Laplacian variance
    reaches the sharpness threshold and its difference energy against the
    previous original frame reaches the motion threshold. Both scores are
    computed for every frame i > 0, on the frames as stored: the scores
    widen uint8 frames to int32 themselves and are exact on them.
    """
    frames = episode.frames
    kept = [0]
    for i in range(1, len(frames)):
        sharp = laplacian_variance(frames[i])
        moving = frame_diff_energy(frames[i - 1], frames[i])
        if sharp >= cfg.sharpness_threshold and moving >= cfg.diff_threshold:
            kept.append(i)
    return kept


def select_keyframes(episode: Episode, cfg: PipelineConfig) -> KeyframeSeries:
    """The keyframes of an episode with their hand centroid and hand-object
    distance.

    Empty masks never crash the pipeline: an empty hand mask carries the
    previous keyframe's centroid forward (canvas center at the start of an
    episode) and an absent hand or object pins the distance to the image
    diagonal.
    """
    h, w = episode.shape
    centroid = Point2(w / 2.0, h / 2.0)
    diagonal = image_diagonal(episode.shape)
    entries: list[KeyframeEntry] = []
    for i in keyframe_indices(episode, cfg):
        hand = episode.hand_masks[i]
        centroid = mask_centroid(hand) or centroid
        distance = min(mask_distance(hand, episode.object_masks[i]), diagonal)
        entries.append(KeyframeEntry(i, centroid, distance))
    return KeyframeSeries(episode.episode_id, entries)


def slide_windows(n_keyframes: int, cfg: PipelineConfig) -> range:
    """Target positions of the predictive windows over ``n_keyframes``.

    The window with target t holds keyframes t-N .. t-1 as context and is
    labelled by keyframe t. Targets start at N and advance by ``stride``; a
    series shorter than N+1 keyframes has none.
    """
    return range(cfg.window_length, n_keyframes, cfg.stride)


def window_feature_vector(series: KeyframeSeries, targets: range, cfg: PipelineConfig) -> np.ndarray:
    """The (len(targets), 8) descriptors of the windows of one series.

    Layout follows FEATURE_NAMES: distance mean/std/trend, speed
    mean/std/trend (speeds are centroid displacements per keyframe step),
    then contact count and longest contact run, a keyframe being in contact
    when its distance is at most ``cfg.contact_epsilon``. Std is the
    population standard deviation; a trend is the least-squares slope
    against the keyframe step.
    """
    entries = series.entries
    context = np.asarray(targets)[:, None] + np.arange(-cfg.window_length, 0)
    dist = np.array([e.distance for e in entries], dtype=np.float64)[context]
    xy = np.array([e.centroid for e in entries], dtype=np.float64)
    step = np.diff(xy, axis=0)
    speed = np.hypot(step[:, 0], step[:, 1])  # speed[j]: keyframe j -> j+1

    columns = []
    for values in (dist, speed[context[:, :-1]]):
        t = np.arange(values.shape[1], dtype=np.float64)
        t -= t.mean()
        mean = values.mean(axis=1)
        columns += [mean, values.std(axis=1), (values - mean[:, None]) @ t / (t @ t)]

    flags = dist <= cfg.contact_epsilon
    run = longest = np.zeros(len(targets), dtype=np.int64)
    for column in flags.T:
        run = (run + 1) * column
        longest = np.maximum(longest, run)
    columns += [flags.sum(axis=1), longest]
    return np.column_stack(columns)


def build_dataset(episodes: Iterable[Episode], cfg: PipelineConfig) -> LabeledDataset:
    """Run the full pipeline over episodes, concatenating rows in order.

    Episodes are consumed one at a time; each leaves one feature block, and
    is dropped before the next one is drawn from ``episodes``.
    """
    blocks: list[np.ndarray] = []
    labels: list[int] = []
    provenance: list[tuple[str, int]] = []
    for episode in episodes:
        series = select_keyframes(episode, cfg)
        frame_labels = episode.labels
        del episode
        targets = slide_windows(len(series), cfg)
        if not targets:
            import logging  # loaded only when an episode is skipped

            logging.getLogger(__name__).warning(
                "episode %s yields no windows (%d keyframes, window %d); skipped",
                series.episode_id,
                len(series),
                cfg.window_length,
            )
            continue
        blocks.append(window_feature_vector(series, targets, cfg))
        labels.extend(int(frame_labels[series.entries[t].index]) for t in targets)
        provenance.extend((series.episode_id, t) for t in targets)
    if blocks:
        features = np.concatenate(blocks)
    else:
        features = np.empty((0, FEATURE_DIM), dtype=np.float64)
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=provenance,
    )


def _class_ranks(labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's rank in a shuffle of its class, and the class counts: the
    classes present, ascending, each take one ``rng.permutation`` of their
    rows from one generator seeded with ``seed``."""
    counts = np.bincount(labels)  # np.unique would import numpy.ma
    rng = np.random.default_rng(seed)
    rank = np.empty(labels.size, dtype=np.int64)
    for c in np.flatnonzero(counts):
        rank[np.flatnonzero(labels == c)[rng.permutation(counts[c])]] = np.arange(counts[c])
    return rank, counts


def stratified_split_indices(
    labels: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) index arrays; test size per class = round(count * fraction).

    Rounding is half-away-from-zero so the split is platform independent;
    classes absent from ``labels`` are simply absent from both partitions.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    labels = np.asarray(labels, dtype=np.int64)
    rank, counts = _class_ranks(labels, seed)
    test = rank < np.floor(counts[labels] * test_fraction + 0.5)
    return np.flatnonzero(~test), np.flatnonzero(test)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, held-out) index pairs of k folds; each shuffled class is dealt
    round robin over the held-out sets, and a fold trains on all other rows."""
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = np.asarray(labels, dtype=np.int64)
    rank, counts = _class_ranks(labels, seed)
    small = np.flatnonzero((counts > 0) & (counts < k))
    if small.size:
        raise ValueError(f"class {CLASS_NAMES[small[0]]} has {counts[small[0]]} samples; "
                         f"needs >= {k} for {k}-fold")
    fold = rank % k
    return [(np.flatnonzero(fold != i), np.flatnonzero(fold == i)) for i in range(k)]


CSV_HEADER = FEATURE_NAMES + ("label", "episode_id", "target_index")


def save_dataset_csv(ds: LabeledDataset, path) -> None:
    """Write the dataset as CSV with floats at 9 significant digits."""
    write_csv(path, CSV_HEADER, (
        [format(x, ".9g") for x in row] + [CLASS_NAMES[label], episode_id, target_index]
        for row, label, (episode_id, target_index) in zip(ds.features, ds.labels, ds.provenance)
    ))


def decode_utf8(data: bytes, path) -> str:
    """``data``, the bytes of the text file ``path``, as UTF-8 text; a byte
    that is not UTF-8 raises a ValueError naming ``path`` and its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})") from None


def write_csv(path, header, rows: Iterable) -> None:
    """Write the CSV table ``path``: its ``header`` row, then ``rows``, in
    the csv module's default dialect (CRLF row ends, a cell quoted only when
    it must be); each value is written as its ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def csv_table(data: bytes, path, header) -> Iterator[tuple[int, list[str]]]:
    """The rows below the ``header`` row of the CSV table ``path``, whose
    bytes are ``data``, decoded as ``open(path, newline="", encoding="utf-8")``
    would, each with the line it begins on (a quoted field may span lines).
    An empty file, another first row, a row of another width, a byte that is
    not UTF-8 or a row the csv module cannot split, such as one with a field
    over its size limit, raises a ValueError naming ``path`` and the line."""
    reader = csv.reader(io.StringIO(decode_utf8(data, path), newline=""))
    line = 1
    try:
        if (first := next(reader, None)) != list(header):
            raise ValueError(f"{path}:1: expected the header {list(header)}, got "
                             f"{'an empty file' if first is None else first}")
        line = reader.line_num + 1
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}:{line}: {exc}") from None


def load_dataset_csv(path) -> LabeledDataset:
    """Read a dataset CSV produced by :func:`save_dataset_csv`.

    The table is read by :func:`csv_table`; a row that does not parse, or
    whose feature values are not all finite, also raises a ValueError naming
    ``path`` and its line.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    provenance: list[tuple[str, int]] = []
    lines: list[int] = []  # the line each row begins on
    with open(path, "rb") as fh:
        for lineno, row in csv_table(fh.read(), path, CSV_HEADER):
            lines.append(lineno)
            try:
                rows.append([float(x) for x in row[:FEATURE_DIM]])
                labels.append(int(parse_label(row[FEATURE_DIM])))
                provenance.append((row[FEATURE_DIM + 1], int(row[FEATURE_DIM + 2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    features = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, FEATURE_DIM), dtype=np.float64)
    )
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}:{lines[i]}: {FEATURE_NAMES[j]} is {rows[i][j]}, not finite")
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=provenance,
    )


def sequence_dataset(ds: LabeledDataset, seq_length: int) -> tuple[np.ndarray, np.ndarray]:
    """The targets (last rows) of the sequences of ``seq_length`` consecutive
    rows of one episode, and their labels; ``windows`` gathers their rows.

    Rows are consumed in dataset order; sequences never span episodes. For
    seq_length > 1 the rows of each episode must be one run of strictly
    increasing target index, or a ValueError names the episode and the
    index. At seq_length=1 every row is a target, in any row order.
    """
    if seq_length < 1:
        raise ValueError("seq_length must be >= 1")
    if seq_length == 1:
        return np.arange(len(ds)), ds.labels.copy()
    targets: list[int] = []
    start = 0
    n = len(ds)
    seen: set[str] = set()
    while start < n:
        episode_id, last = ds.provenance[start]
        if episode_id in seen:
            raise ValueError(f"episode {episode_id}: target_index {last} is apart from the "
                             "episode's earlier rows; sequences need one run per episode")
        seen.add(episode_id)
        end = start + 1
        while end < n and ds.provenance[end][0] == episode_id:
            index = ds.provenance[end][1]
            if index <= last:
                raise ValueError(f"episode {episode_id}: target_index {index} follows {last}; "
                                 "sequences need strictly increasing target_index")
            last = index
            end += 1
        targets.extend(range(start + seq_length - 1, end))
        start = end
    rows = np.array(targets, dtype=np.int64)
    return rows, ds.labels[rows]


def windows(rows: np.ndarray, seq_length: int) -> np.ndarray:
    """The model input of each row of ``rows`` as a target: ``rows`` itself at
    seq_length 1, else a read-only (len(rows), seq_length, dim) view over
    ``rows`` after seq_length - 1 zero rows; item i is the window ending at i."""
    if seq_length == 1:
        return rows
    padded = np.concatenate([np.zeros((seq_length - 1, rows.shape[1]), rows.dtype), rows])
    return np.lib.stride_tricks.sliding_window_view(padded, (seq_length, rows.shape[1]))[:, 0]
