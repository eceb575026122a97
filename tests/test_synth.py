"""Scripted-scenario generator: ground-truth coherence, determinism,
feasibility checks and corpus statistics."""

import dataclasses

import numpy as np
import pytest

from handstates import raster, synth
from handstates.features import ClassLabel, PipelineConfig, build_dataset
from handstates.synth import (
    InfeasibleScenarioError,
    PhaseDurations,
    ScenarioConfig,
    generate_corpus,
    generate_episode,
)

CLEAN = ScenarioConfig(jitter_sigma=0.0, noise_flip_prob=0.0, seed=11)


def mask_distance(episode, i):
    return raster.mask_distance(episode.hand_masks[i], episode.object_masks[i])


@pytest.fixture(scope="module")
def clean_episode():
    return generate_episode(CLEAN)


def test_phase_script_label_mapping_is_fixed():
    assert list(synth.PHASE_LABELS.items()) == [
        ("idle", ClassLabel.UNKNOWN),
        ("approach", ClassLabel.APPROACHING),
        ("grab", ClassLabel.GRABBING),
        ("hold", ClassLabel.HOLDING),
        ("release", ClassLabel.RELEASING),
        ("retreat", ClassLabel.UNKNOWN),
    ]
    # phases are scripted in the order of their durations, and as_dict
    # names every duration field in that order
    assert list(synth.PHASE_LABELS) == list(PhaseDurations().as_dict())
    assert list(PhaseDurations().as_dict()) == [f.name for f in dataclasses.fields(PhaseDurations)]


def test_episodes_match_phase_script(clean_episode):
    d = CLEAN.durations
    expected = (
        [ClassLabel.UNKNOWN] * d.idle
        + [ClassLabel.APPROACHING] * d.approach
        + [ClassLabel.GRABBING] * d.grab
        + [ClassLabel.HOLDING] * d.hold
        + [ClassLabel.RELEASING] * d.release
        + [ClassLabel.UNKNOWN] * d.retreat
    )
    assert clean_episode.labels == expected
    assert len(clean_episode) == d.total()


def test_hold_frames_overlap(clean_episode):
    for i, label in enumerate(clean_episode.labels):
        if label == ClassLabel.HOLDING:
            assert mask_distance(clean_episode, i) == 0.0


def test_idle_frames_static_and_separated(clean_episode):
    idle = range(CLEAN.durations.idle)
    first = clean_episode.hand_masks[idle[0]]
    for i in idle:
        assert clean_episode.labels[i] == ClassLabel.UNKNOWN
        assert np.array_equal(clean_episode.hand_masks[i], first)
        assert mask_distance(clean_episode, i) > CLEAN.contact_epsilon


def test_approach_distance_strictly_decreases(clean_episode):
    dists = [
        mask_distance(clean_episode, i)
        for i, label in enumerate(clean_episode.labels)
        if label == ClassLabel.APPROACHING
    ]
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_grab_band_is_close_and_ends_in_contact(clean_episode):
    grab = [
        i for i, label in enumerate(clean_episode.labels) if label == ClassLabel.GRABBING
    ]
    dists = [mask_distance(clean_episode, i) for i in grab]
    assert all(d <= 2 * CLEAN.contact_epsilon for d in dists)
    assert dists[-1] <= CLEAN.contact_epsilon


def test_same_seed_is_byte_identical():
    a = generate_episode(CLEAN)
    b = generate_episode(CLEAN)
    for seq_a, seq_b in (
        (a.frames, b.frames),
        (a.hand_masks, b.hand_masks),
        (a.object_masks, b.object_masks),
    ):
        assert all(np.array_equal(x, y) for x, y in zip(seq_a, seq_b))
    assert a.labels == b.labels


def test_infeasible_when_start_leaves_canvas():
    cfg = ScenarioConfig(
        durations=PhaseDurations(approach=60), approach_speed=4.0
    )
    with pytest.raises(InfeasibleScenarioError, match="canvas"):
        generate_episode(cfg)


def test_noise_flips_stay_on_mask_boundaries():
    noisy_cfg = ScenarioConfig(jitter_sigma=0.0, noise_flip_prob=0.2, seed=4)
    clean_cfg = ScenarioConfig(jitter_sigma=0.0, noise_flip_prob=0.0, seed=4)
    noisy = generate_episode(noisy_cfg)
    clean = generate_episode(clean_cfg)
    changed_any = False
    for i in range(len(clean)):
        flips = noisy.object_masks[i] ^ clean.object_masks[i]
        changed_any |= bool(flips.any())
        band = synth._boundary_band(clean.object_masks[i])
        assert not (flips & ~band).any()
    assert changed_any


def rolled_boundary_band(mask):
    """The band as first written: four ``np.roll`` shifts, each with its
    wrapped edge line cleared."""
    grown = mask.copy()
    shrunk = mask.copy()
    for shift, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        rolled = np.roll(mask, shift, axis=axis)
        if axis == 0:
            rolled[0 if shift == 1 else -1, :] = False
        else:
            rolled[:, 0 if shift == 1 else -1] = False
        grown |= rolled
        shrunk &= rolled
    return grown & ~shrunk


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (2, 2), (5, 9), (24, 17)])
def test_boundary_band_matches_rolled_formula(shape):
    rng = np.random.default_rng(sum(shape))
    masks = [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
    masks += [rng.random(shape) < p for p in (0.1, 0.5, 0.9) for _ in range(4)]
    edge = np.zeros(shape, dtype=bool)
    edge[: max(1, shape[0] // 2), : max(1, shape[1] // 3)] = True  # touches two edges
    masks += [edge, ~edge]
    for mask in masks:
        assert np.array_equal(synth._boundary_band(mask), rolled_boundary_band(mask))


def test_corpus_first_episode_matches_derived_config():
    cfg = ScenarioConfig()
    first = next(iter(generate_corpus(cfg, 1, seed=21)))
    direct = generate_episode(synth.episode_config(cfg, 21), episode_id="ep_000")
    assert first.labels == direct.labels
    assert all(np.array_equal(a, b) for a, b in zip(first.frames, direct.frames))


def test_corpus_rejects_zero_episodes_at_call_time():
    with pytest.raises(ValueError, match="n_episodes"):
        generate_corpus(ScenarioConfig(), 0, seed=1)


def test_corpus_rejects_infeasible_episode_before_rendering(monkeypatch):
    rendered = []
    monkeypatch.setattr(synth, "generate_episode", lambda *a, **k: rendered.append(a))
    cfg = ScenarioConfig(durations=PhaseDurations(approach=200), approach_speed=5.0)
    with pytest.raises(InfeasibleScenarioError):
        generate_corpus(cfg, 3, seed=1)
    assert rendered == []


def test_corpus_is_deterministic():
    cfg = ScenarioConfig()
    a = generate_corpus(cfg, 3, seed=5)
    b = generate_corpus(cfg, 3, seed=5)
    for ea, eb in zip(a, b):
        assert all(np.array_equal(x, y) for x, y in zip(ea.frames, eb.frames))


def test_duration_jitter_within_30_percent():
    cfg = ScenarioConfig()
    base = cfg.durations.as_dict()
    for ep_seed in range(12):
        derived = synth.episode_config(cfg, ep_seed).durations.as_dict()
        for name, value in derived.items():
            if base[name] == 0:
                assert value == 0
            else:
                assert round(base[name] * 0.7) - 1 <= value <= round(base[name] * 1.3) + 1


def test_default_corpus_covers_all_classes_with_grabbing_rarest():
    corpus = generate_corpus(ScenarioConfig(), 6, seed=7)
    ds = build_dataset(corpus, PipelineConfig())
    counts = np.bincount(ds.labels, minlength=len(ClassLabel))
    assert (counts > 0).all()
    assert counts[ClassLabel.GRABBING] == counts.min()
    assert counts[ClassLabel.HOLDING] == counts.max()


def test_zero_total_frames_rejected():
    cfg = ScenarioConfig(
        durations=PhaseDurations(idle=0, approach=0, grab=0, hold=0, release=0, retreat=0)
    )
    with pytest.raises(ValueError, match="no frames"):
        generate_episode(cfg)
