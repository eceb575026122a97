"""Statistical-kinematic feature pipeline over mask-annotated frame sequences.

The pipeline turns an episode (frames + hand/object masks + per-frame state
labels) into fixed 8-dimensional descriptors: keyframes are selected by
sharpness and motion energy, a sliding window of N consecutive keyframes is
summarised into distance/speed statistics plus contact metrics, and the
window's training label is the state at the keyframe that follows it.
"""

from __future__ import annotations

import csv
import logging
from collections.abc import Iterable
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

log = logging.getLogger(__name__)


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
    ``synth``; the keyframe scores convert each to float64 once.
    """

    episode_id: str
    frames: list[np.ndarray]
    hand_masks: list[np.ndarray]
    object_masks: list[np.ndarray]
    labels: list[ClassLabel]

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
        if self.window_length < 2:
            raise ValueError("window_length must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.contact_epsilon <= 0:
            raise ValueError("contact_epsilon must be > 0")
        if self.sharpness_threshold < 0 or self.diff_threshold < 0:
            raise ValueError("thresholds must be >= 0")


@dataclass
class KeyframeEntry:
    """Cached per-keyframe signals used by the window descriptors."""

    index: int
    centroid: Point2
    distance: float
    contact: bool


@dataclass
class KeyframeSeries:
    episode_id: str
    entries: list[KeyframeEntry]

    @property
    def indices(self) -> list[int]:
        return [e.index for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class PredictiveWindow:
    """N consecutive keyframe entries plus the label of the next keyframe."""

    context: list[KeyframeEntry]
    target_label: ClassLabel
    episode_id: str
    target_index: int  # position of the target keyframe within its series


@dataclass
class LabeledDataset:
    """Feature rows with labels and (episode_id, target_index) provenance."""

    features: np.ndarray  # (n, FEATURE_DIM) float64
    labels: np.ndarray  # (n,) int64
    provenance: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=NUM_CLASSES)


def _keyframe_signals(
    episode: Episode, index: int, prev_centroid: Point2 | None, epsilon: float
) -> KeyframeEntry:
    """Centroid, hand-object distance and contact flag for one frame.

    Empty masks never crash the pipeline: an empty hand mask carries the
    previous centroid forward (canvas center at the start of an episode) and
    an absent hand or object pins the distance to the image diagonal.
    """
    hand = episode.hand_masks[index]
    obj = episode.object_masks[index]

    if hand.any():
        centroid = mask_centroid(hand)
    elif prev_centroid is not None:
        centroid = prev_centroid
    else:
        h, w = episode.shape
        centroid = Point2(w / 2.0, h / 2.0)

    if hand.any() and obj.any():
        distance = mask_distance(hand, obj)
    else:
        distance = image_diagonal(episode.shape)
    return KeyframeEntry(
        index=index,
        centroid=centroid,
        distance=distance,
        contact=bool(distance <= epsilon),
    )


def select_keyframes(episode: Episode, cfg: PipelineConfig) -> KeyframeSeries:
    """Retain sharp, moving frames and cache their kinematic signals.

    Frame 0 is always retained; frame i > 0 is retained iff its Laplacian
    variance reaches the sharpness threshold and its difference energy
    against the previous original frame reaches the motion threshold. Each
    frame is converted to float64 once; only the previous frame's copy is
    kept.
    """
    entries: list[KeyframeEntry] = []
    prev_centroid: Point2 | None = None
    prev_frame: np.ndarray | None = None
    for i, frame in enumerate(episode.frames):
        frame = np.asarray(frame, dtype=np.float64)
        previous, prev_frame = prev_frame, frame
        if previous is not None:
            sharp = laplacian_variance(frame)
            moving = frame_diff_energy(previous, frame)
            if sharp < cfg.sharpness_threshold or moving < cfg.diff_threshold:
                continue
        entry = _keyframe_signals(episode, i, prev_centroid, cfg.contact_epsilon)
        entries.append(entry)
        prev_centroid = entry.centroid
    return KeyframeSeries(episode_id=episode.episode_id, entries=entries)


def slide_windows(
    series: KeyframeSeries, cfg: PipelineConfig, episode: Episode
) -> list[PredictiveWindow]:
    """Predictive windows: N keyframes of context, labelled by the next one.

    Offsets advance by ``stride`` while a target keyframe exists; a series
    shorter than N+1 keyframes yields no windows.
    """
    n = cfg.window_length
    windows: list[PredictiveWindow] = []
    offset = 0
    while offset + n < len(series):
        target_entry = series.entries[offset + n]
        windows.append(
            PredictiveWindow(
                context=series.entries[offset : offset + n],
                target_label=episode.labels[target_entry.index],
                episode_id=series.episode_id,
                target_index=offset + n,
            )
        )
        offset += cfg.stride
    return windows


def contact_metrics(flags: list[bool], n: int = 10) -> tuple[int, int]:
    """Contact count and the longest run of consecutive contact flags."""
    if len(flags) != n:
        raise ValueError(f"expected {n} contact flags, got {len(flags)}")
    count = 0
    duration = 0
    run = 0
    for flag in flags:
        if flag:
            count += 1
            run += 1
            duration = max(duration, run)
        else:
            run = 0
    return count, duration


def linear_trend(values) -> float:
    """Ordinary least-squares slope of ``values`` against indices 0..n-1."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise ValueError("linear trend requires at least 2 values")
    t = np.arange(v.size, dtype=np.float64)
    t -= t.mean()
    return float(np.dot(t, v - v.mean()) / np.dot(t, t))


def window_feature_vector(window: PredictiveWindow) -> np.ndarray:
    """8-dimensional descriptor of one predictive window.

    Layout follows FEATURE_NAMES: distance mean/std/trend, speed
    mean/std/trend (speeds are centroid displacements per keyframe step),
    then contact count and longest contact run. Std is the population
    standard deviation.
    """
    ctx = window.context
    dist = np.array([e.distance for e in ctx], dtype=np.float64)
    cx = np.array([e.centroid.x for e in ctx], dtype=np.float64)
    cy = np.array([e.centroid.y for e in ctx], dtype=np.float64)
    speed = np.hypot(np.diff(cx), np.diff(cy))
    count, duration = contact_metrics([e.contact for e in ctx], n=len(ctx))
    return np.array(
        [
            dist.mean(),
            dist.std(),
            linear_trend(dist),
            speed.mean(),
            speed.std(),
            linear_trend(speed),
            float(count),
            float(duration),
        ],
        dtype=np.float64,
    )


def build_dataset(episodes: Iterable[Episode], cfg: PipelineConfig) -> LabeledDataset:
    """Run the full pipeline over episodes, concatenating rows in order.

    Episodes are consumed one at a time; each leaves one feature block.
    """
    blocks: list[np.ndarray] = []
    labels: list[int] = []
    provenance: list[tuple[str, int]] = []
    for episode in episodes:
        series = select_keyframes(episode, cfg)
        windows = slide_windows(series, cfg, episode)
        if not windows:
            log.warning(
                "episode %s yields no windows (%d keyframes, window %d); skipped",
                episode.episode_id,
                len(series),
                cfg.window_length,
            )
            continue
        blocks.append(np.vstack([window_feature_vector(w) for w in windows]))
        labels.extend(int(w.target_label) for w in windows)
        provenance.extend((w.episode_id, w.target_index) for w in windows)
    if blocks:
        features = np.concatenate(blocks)
    else:
        features = np.empty((0, FEATURE_DIM), dtype=np.float64)
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=provenance,
    )


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
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for c in range(NUM_CLASSES):
        members = np.nonzero(labels == c)[0]
        if members.size == 0:
            continue
        order = rng.permutation(members.size)
        n_test = int(np.floor(members.size * test_fraction + 0.5))
        test_idx.append(members[order[:n_test]])
        train_idx.append(members[order[n_test:]])
    train = np.sort(np.concatenate(train_idx)) if train_idx else np.empty(0, np.int64)
    test = np.sort(np.concatenate(test_idx)) if test_idx else np.empty(0, np.int64)
    return train, test


CSV_HEADER = FEATURE_NAMES + ("label", "episode_id", "target_index")


def save_dataset_csv(ds: LabeledDataset, path) -> None:
    """Write the dataset as CSV with floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row, label, (episode_id, target_index) in zip(
            ds.features, ds.labels, ds.provenance
        ):
            writer.writerow(
                [format(x, ".9g") for x in row]
                + [CLASS_NAMES[label], episode_id, target_index]
            )


def load_dataset_csv(path) -> LabeledDataset:
    """Read a dataset CSV produced by :func:`save_dataset_csv`."""
    rows: list[list[float]] = []
    labels: list[int] = []
    provenance: list[tuple[str, int]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected feature CSV header {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{path}:{lineno}: expected {len(CSV_HEADER)} columns")
            rows.append([float(x) for x in row[:FEATURE_DIM]])
            labels.append(int(parse_label(row[FEATURE_DIM])))
            provenance.append((row[FEATURE_DIM + 1], int(row[FEATURE_DIM + 2])))
    features = (
        np.asarray(rows, dtype=np.float64)
        if rows
        else np.empty((0, FEATURE_DIM), dtype=np.float64)
    )
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        provenance=provenance,
    )


def sequence_dataset(ds: LabeledDataset, seq_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Group consecutive rows of one episode into fixed-length sequences.

    Rows are consumed in dataset order (ascending target index per episode);
    sequences never span episodes and take the label of their last element.
    seq_length=1 is a plain per-row reshape.
    """
    if seq_length < 1:
        raise ValueError("seq_length must be >= 1")
    if seq_length == 1:
        return ds.features[:, None, :], ds.labels.copy()
    xs: list[np.ndarray] = []
    ys: list[int] = []
    start = 0
    n = len(ds)
    while start < n:
        episode_id = ds.provenance[start][0]
        end = start
        while end < n and ds.provenance[end][0] == episode_id:
            end += 1
        for i in range(start, end - seq_length + 1):
            xs.append(ds.features[i : i + seq_length])
            ys.append(int(ds.labels[i + seq_length - 1]))
        start = end
    if xs:
        return np.stack(xs), np.asarray(ys, dtype=np.int64)
    return (
        np.empty((0, seq_length, FEATURE_DIM), dtype=np.float64),
        np.empty(0, dtype=np.int64),
    )
