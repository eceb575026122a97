"""Scripted synthetic episodes: a hand disc approaches, grabs, holds and
releases a static rectangular object, with ground-truth state labels.

The hand center follows a straight line through a contact position that
overlaps the object, parameterised by the remaining distance ``s``:
constant ``s`` while idle, constant-velocity approach, a short decelerating
grab band ending at contact (s = 0), s = 0 throughout hold, then
constant-velocity separation through release and retreat. With zero jitter
and zero mask noise every frame labelled holding has hand-object distance 0
and every approaching frame strictly closes the distance.

Frames render the hand and object at distinct gray levels over a static
textured background, so sharpness and motion-energy keyframe criteria are
exercised rather than degenerate. Mask noise flips pixels only within a
one-pixel band around mask boundaries (ragged segmentation edges); flips far
from an object would corrupt the minimum-distance signal and with it the
scripted ground truth.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .features import ClassLabel, Episode


class InfeasibleScenarioError(ValueError):
    """The scripted geometry does not fit the canvas."""


@dataclass(frozen=True)
class PhaseDurations:
    """Frames spent in each scripted phase."""

    idle: int = 12
    approach: int = 16
    grab: int = 4
    hold: int = 45
    release: int = 8
    retreat: int = 12

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if value < 0:
                raise ValueError(f"phase duration {name} must be >= 0")

    def as_dict(self) -> dict[str, int]:
        """Each phase's frames, in script order."""
        return {phase.name: getattr(self, phase.name) for phase in fields(self)}

    def total(self) -> int:
        return sum(self.as_dict().values())


# Phase name -> state label of every frame in that phase.
PHASE_LABELS = {
    "idle": ClassLabel.UNKNOWN,
    "approach": ClassLabel.APPROACHING,
    "grab": ClassLabel.GRABBING,
    "hold": ClassLabel.HOLDING,
    "release": ClassLabel.RELEASING,
    "retreat": ClassLabel.UNKNOWN,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, kinematics and noise for one scripted scenario."""

    canvas: tuple[int, int] = (128, 96)  # (width, height)
    object_rect: tuple[int, int, int, int] = (86, 40, 22, 22)  # x0, y0, w, h
    hand_radius: int = 7
    durations: PhaseDurations = field(default_factory=PhaseDurations)
    approach_speed: float = 3.0
    jitter_sigma: float = 0.3
    noise_flip_prob: float = 0.003
    contact_epsilon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not self.approach_speed > 0:
            raise ValueError("approach_speed must be > 0")
        if not 0.0 <= self.noise_flip_prob < 0.5:
            raise ValueError("noise_flip_prob must be in [0, 0.5)")
        if not self.jitter_sigma >= 0:
            raise ValueError("jitter_sigma must be >= 0")
        if self.hand_radius < 1:
            raise ValueError("hand_radius must be >= 1")
        if not self.contact_epsilon > 0:
            raise ValueError("contact_epsilon must be > 0")


# Rendering constants: static background texture plus flat object/hand tones.
BACKGROUND_LEVEL = 28
TEXTURE_AMPLITUDE = 8
OBJECT_LEVEL = 120
HAND_LEVEL = 220
CONTACT_OVERLAP = 3.0  # how deep the hand center sits past the object edge


def _contact_geometry(cfg: ScenarioConfig) -> tuple[np.ndarray, float]:
    """Contact-position hand center and grab-band length ``s_grab``."""
    x0, y0, rw, rh = cfg.object_rect
    w, h = cfg.canvas
    if not (0 <= x0 and x0 + rw <= w and 0 <= y0 and y0 + rh <= h and rw > 0 and rh > 0):
        raise InfeasibleScenarioError("object rectangle does not fit the canvas")
    contact = np.array(
        [x0 - cfg.hand_radius + CONTACT_OVERLAP, y0 + rh / 2.0], dtype=np.float64
    )
    if cfg.durations.grab > 0:
        s_grab = min(
            2.0 * cfg.contact_epsilon,
            cfg.approach_speed * cfg.durations.grab / 2.0,
        )
    else:
        s_grab = 0.0
    return contact, s_grab


def _check_disc_in_canvas(center: np.ndarray, cfg: ScenarioConfig, what: str) -> None:
    w, h = cfg.canvas
    r = cfg.hand_radius
    if not (r <= center[0] <= w - 1 - r and r <= center[1] <= h - 1 - r):
        raise InfeasibleScenarioError(
            f"{what} at ({center[0]:.1f}, {center[1]:.1f}) leaves the canvas"
        )


def _distance_schedule(cfg: ScenarioConfig) -> tuple[np.ndarray, list[ClassLabel]]:
    """Per-frame hand centers along the approach line, plus labels.

    The hand starts left of the contact position, far enough to cover the
    approach at ``approach_speed`` and then the grab band. Returns (centers,
    labels). Raises InfeasibleScenarioError when the object, the start or
    the contact position does not fit the canvas.
    """
    d = cfg.durations
    if d.total() < 1:
        raise ValueError("scenario has no frames")
    contact, s_grab = _contact_geometry(cfg)

    direction = np.array([-1.0, 0.0])
    start_dist = s_grab + cfg.approach_speed * d.approach
    start = contact + direction * start_dist
    _check_disc_in_canvas(start, cfg, "hand start")
    _check_disc_in_canvas(contact, cfg, "contact position")

    s_values: list[float] = []
    labels: list[ClassLabel] = []

    def emit(phase: str, s: float):
        s_values.append(max(0.0, s))
        labels.append(PHASE_LABELS[phase])

    for _ in range(d.idle):
        emit("idle", start_dist)
    if d.approach > 0:
        step = (start_dist - s_grab) / d.approach
        for j in range(1, d.approach + 1):
            emit("approach", start_dist - step * j)
    if d.grab > 0:
        v0 = 2.0 * s_grab / d.grab
        for j in range(1, d.grab + 1):
            emit("grab", s_grab - v0 * j + (v0 / (2.0 * d.grab)) * j * j)
    for _ in range(d.hold):
        emit("hold", 0.0)
    for j in range(1, d.release + 1):
        emit("release", min(start_dist, cfg.approach_speed * j))
    s_rel = min(start_dist, cfg.approach_speed * d.release)
    for j in range(1, d.retreat + 1):
        emit("retreat", min(start_dist, s_rel + cfg.approach_speed * j))

    centers = contact[None, :] + direction[None, :] * np.asarray(s_values)[:, None]
    return centers, labels


def _disc_mask(shape: tuple[int, int], center: np.ndarray, radius: float) -> np.ndarray:
    h, w = shape
    ys, xs = np.ogrid[:h, :w]
    return (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius * radius


def _rect_mask(shape: tuple[int, int], rect: tuple[int, int, int, int]) -> np.ndarray:
    mask = np.zeros(shape, dtype=bool)
    x0, y0, rw, rh = rect
    mask[y0 : y0 + rh, x0 : x0 + rw] = True
    return mask


def _boundary_band(mask: np.ndarray) -> np.ndarray:
    """Pixels within one 4-neighbour step of the mask boundary (both sides);
    off-canvas neighbours count as background."""
    grown, shrunk = mask.copy(), mask.copy()
    for to, src in ((np.s_[1:], np.s_[:-1]), (np.s_[:-1], np.s_[1:]),
                    (np.s_[:, 1:], np.s_[:, :-1]), (np.s_[:, :-1], np.s_[:, 1:])):
        grown[to] |= mask[src]
        shrunk[to] &= mask[src]
    shrunk[[0, -1]] = shrunk[:, [0, -1]] = False
    return grown & ~shrunk


def _flip_boundary(mask: np.ndarray, band: np.ndarray, prob: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Flip each pixel of ``band``, the mask's boundary, with probability ``prob``."""
    if prob <= 0.0:
        return mask
    return mask ^ (band & (rng.random(mask.shape) < prob))


def generate_episode(cfg: ScenarioConfig, episode_id: str = "episode") -> Episode:
    """Render one scripted episode; fully reproducible from ``cfg.seed``."""
    centers, labels = _distance_schedule(cfg)
    w, h = cfg.canvas
    shape = (h, w)
    rng = np.random.default_rng(cfg.seed)
    texture = rng.integers(
        BACKGROUND_LEVEL - TEXTURE_AMPLITUDE,
        BACKGROUND_LEVEL + TEXTURE_AMPLITUDE + 1,
        size=shape,
    ).astype(np.uint8)
    object_mask_clean = _rect_mask(shape, cfg.object_rect)
    object_band = _boundary_band(object_mask_clean)  # the same every frame
    radius = cfg.hand_radius

    frames: list[np.ndarray] = []
    hand_masks: list[np.ndarray] = []
    object_masks: list[np.ndarray] = []
    for center in centers:
        if cfg.jitter_sigma > 0:
            center = center + rng.normal(0.0, cfg.jitter_sigma, size=2)
        center = np.clip(center, radius, [w - 1 - radius, h - 1 - radius])
        hand = _disc_mask(shape, center, radius)
        hand = _flip_boundary(hand, _boundary_band(hand), cfg.noise_flip_prob, rng)
        obj = _flip_boundary(object_mask_clean, object_band, cfg.noise_flip_prob, rng)
        frame = texture.copy()
        frame[obj] = OBJECT_LEVEL
        frame[hand] = HAND_LEVEL
        frames.append(frame)
        hand_masks.append(hand)
        object_masks.append(obj)
    return Episode(
        episode_id=episode_id,
        frames=frames,
        hand_masks=hand_masks,
        object_masks=object_masks,
        labels=list(labels),
    )


def episode_config(cfg: ScenarioConfig, ep_seed: int) -> ScenarioConfig:
    """Per-episode config: derived seed plus phase durations jittered +/-30%."""
    rng = np.random.default_rng([ep_seed, 0x5EED])
    jittered = {}
    for name, value in cfg.durations.as_dict().items():
        factor = rng.uniform(0.7, 1.3)
        jittered[name] = max(1, round(value * factor)) if value > 0 else 0
    return replace(cfg, seed=ep_seed, durations=PhaseDurations(**jittered))


def generate_corpus(
    cfg: ScenarioConfig, n_episodes: int, seed: int
) -> Iterator[Episode]:
    """Episodes ``ep_000``, ``ep_001``, ... with derived seeds ``seed + index``,
    rendered one at a time as they are consumed.

    A count below 1, or an episode whose scripted geometry is infeasible,
    raises at call time, before any episode is rendered.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    configs = [episode_config(cfg, seed + i) for i in range(n_episodes)]
    for ep_cfg in configs:
        _distance_schedule(ep_cfg)
    return (
        generate_episode(ep_cfg, episode_id=f"ep_{i:03d}")
        for i, ep_cfg in enumerate(configs)
    )

