"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy fixtures (the
default 20-episode corpus and the full model ladder) are built once and
shared; criterion 6 times the ladder itself.
"""

import csv
import hashlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import run_cli

from handstates import metrics, pgm, raster, synth
from handstates.features import (
    CLASS_NAMES,
    ClassLabel,
    PipelineConfig,
    build_dataset,
)
from handstates.nn import checkpoint as ckpt_mod
from handstates.nn.checkpoint import predict
from handstates.nn.gradcheck import gradient_check
from handstates.nn.model import ModelSpec
from handstates.nn.train import TrainConfig, train


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def corpus_dir(workdir):
    out = workdir / "corpus"
    assert run_cli("synth", "--out", out, "--episodes", 20, "--seed", 7) == 0
    return out


@pytest.fixture(scope="module")
def features_csv(workdir, corpus_dir):
    out = workdir / "features"
    assert run_cli("extract", "--manifest-dir", corpus_dir, "--out", out) == 0
    return out / "features.csv"


@pytest.fixture(scope="module")
def ladder(workdir, features_csv):
    out = workdir / "ladder"
    started = time.time()
    code = run_cli(
        "ladder", "--features", features_csv, "--out", out, "--seed", 7, "--budget", 6
    )
    elapsed = time.time() - started
    assert code == 0
    with open(out / "ladder_summary.csv") as fh:
        rows = {int(r["model"]): r for r in csv.DictReader(fh)}
    return rows, elapsed


# ---------------------------------------------------------------------------
# criterion 1: exact EDT vs all-pairs brute force


def brute_force_edt(mask):
    h, w = mask.shape
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        return np.full((h, w), np.inf)
    yy, xx = np.mgrid[0:h, 0:w]
    d2 = (yy.reshape(-1, 1) - ys) ** 2 + (xx.reshape(-1, 1) - xs) ** 2
    return np.sqrt(d2.min(axis=1)).reshape(h, w).astype(float)


def test_criterion_1_edt_oracle_suite():
    with criterion(1, "EDT matches brute-force oracle on 200 random masks"):
        rng = np.random.default_rng(2024)
        started = time.time()
        for i in range(200):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            density = rng.uniform(0.01, 0.90)
            mask = rng.random((h, w)) < density
            got = raster.euclidean_distance_transform(mask)
            want = brute_force_edt(mask)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite), f"mask {i}"
            if finite.any():
                assert np.abs(got[finite] - want[finite]).max() < 1e-9, f"mask {i}"
        elapsed = time.time() - started
        assert elapsed < 30.0, f"EDT oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity


def test_criterion_2_gradient_fidelity():
    with criterion(2, "analytic gradients within 1e-5 of finite differences"):
        rng = np.random.default_rng(99)
        started = time.time()
        y = rng.integers(0, 5, 4)
        mlp = ModelSpec(kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=1e-4,
                        use_batchnorm=False)
        assert gradient_check(mlp, rng.normal(size=(4, 8)), y) <= 1e-5
        mlp_bn = ModelSpec(kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=1e-4,
                           use_batchnorm=True)
        assert gradient_check(mlp_bn, rng.normal(size=(4, 8)), y) <= 1e-5
        bi1 = ModelSpec(kind="birnn", rnn_units=8, seq_length=1, dropout_p=0.0,
                        l2_lambda=1e-4, use_batchnorm=False)
        assert gradient_check(bi1, rng.normal(size=(4, 1, 8)), y) <= 1e-5
        bi5 = ModelSpec(kind="birnn", rnn_units=6, seq_length=5, dropout_p=0.0,
                        l2_lambda=1e-4, use_batchnorm=False)
        assert gradient_check(bi5, rng.normal(size=(4, 5, 8)), y) <= 1e-5
        elapsed = time.time() - started
        assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: metric oracle suite


def test_criterion_3_metric_oracle_suite():
    with criterion(3, "confusion/report fields match formula oracles (1e-12)"):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 300))
            y_true = rng.integers(0, 5, n)
            y_pred = rng.integers(0, 5, n)
            cm = metrics.confusion_matrix(y_true, y_pred, 5)
            # counting oracle
            for i in range(5):
                for j in range(5):
                    assert cm[i, j] == int(np.sum((y_true == i) & (y_pred == j)))
            rep = metrics.classification_report(cm)
            support = cm.sum(axis=1)
            col = cm.sum(axis=0)
            for c in range(5):
                p = cm[c, c] / col[c] if col[c] else 0.0
                r = cm[c, c] / support[c] if support[c] else 0.0
                f = 2 * p * r / (p + r) if p + r else 0.0
                assert abs(rep.precision[c] - p) < 1e-12
                assert abs(rep.recall[c] - r) < 1e-12
                assert abs(rep.f1[c] - f) < 1e-12
            assert abs(rep.accuracy - np.trace(cm) / n) < 1e-12
            present = support > 0
            assert abs(rep.macro_f1 - rep.f1[present].mean()) < 1e-12
            assert abs(rep.weighted_f1 - (support / n * rep.f1).sum()) < 1e-12


# ---------------------------------------------------------------------------
# criterion 4: feature pipeline vs independent recomputation


ORACLE_SCENARIO = synth.ScenarioConfig(
    canvas=(64, 44),
    object_rect=(42, 16, 12, 12),
    hand_radius=5,
    durations=synth.PhaseDurations(idle=6, approach=10, grab=3, hold=14,
                                   release=5, retreat=5),
    approach_speed=2.0,
    jitter_sigma=0.0,
    noise_flip_prob=0.0,
)


def oracle_laplacian_variance(img):
    h, w = img.shape
    vals = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            vals.append(
                float(img[y - 1, x]) + float(img[y + 1, x])
                + float(img[y, x - 1]) + float(img[y, x + 1])
                - 4.0 * float(img[y, x])
            )
    return statistics.pvariance(vals)


def oracle_min_distance(hand, obj):
    hy, hx = np.nonzero(hand)
    oy, ox = np.nonzero(obj)
    d2 = (hy[:, None] - oy) ** 2 + (hx[:, None] - ox) ** 2
    return float(np.sqrt(d2.min()))


def oracle_slope(values):
    t = list(range(len(values)))
    tm = statistics.fmean(t)
    vm = statistics.fmean(values)
    return sum((a - tm) * (b - vm) for a, b in zip(t, values)) / sum(
        (a - tm) ** 2 for a in t
    )


def oracle_episode_features(episode, cfg):
    """Straightforward recomputation of the whole pipeline for one episode."""
    frames = [f.astype(float) for f in episode.frames]
    kept = [0]
    for i in range(1, len(frames)):
        sharp = oracle_laplacian_variance(frames[i])
        diff = float(np.mean((frames[i] - frames[i - 1]) ** 2))
        if sharp >= cfg.sharpness_threshold and diff >= cfg.diff_threshold:
            kept.append(i)
    signals = []
    for i in kept:
        ys, xs = np.nonzero(episode.hand_masks[i])
        centroid = (statistics.fmean(xs.tolist()), statistics.fmean(ys.tolist()))
        dist = oracle_min_distance(episode.hand_masks[i], episode.object_masks[i])
        signals.append((centroid, dist, dist <= cfg.contact_epsilon))

    rows = []
    n = cfg.window_length
    for start in range(0, len(kept) - n, cfg.stride):
        ctx = signals[start : start + n]
        dists = [s[1] for s in ctx]
        speeds = [
            ((ctx[i][0][0] - ctx[i - 1][0][0]) ** 2
             + (ctx[i][0][1] - ctx[i - 1][0][1]) ** 2) ** 0.5
            for i in range(1, n)
        ]
        flags = [s[2] for s in ctx]
        run = best = 0
        for f in flags:
            run = run + 1 if f else 0
            best = max(best, run)
        rows.append(
            (
                [
                    statistics.fmean(dists),
                    statistics.pstdev(dists),
                    oracle_slope(dists),
                    statistics.fmean(speeds),
                    statistics.pstdev(speeds),
                    oracle_slope(speeds),
                    float(sum(flags)),
                    float(best),
                ],
                int(episode.labels[kept[start + n]]),
                (episode.episode_id, start + n),
            )
        )
    return rows


def test_criterion_4_feature_pipeline_oracle():
    with criterion(4, "feature vectors match independent recomputation (1e-9)"):
        cfg = PipelineConfig()
        episodes = [
            synth.generate_episode(
                synth.episode_config(ORACLE_SCENARIO, 300 + i), episode_id=f"oracle_{i}"
            )
            for i in range(10)
        ]
        ds = build_dataset(episodes, cfg)
        expected = []
        for ep in episodes:
            expected.extend(oracle_episode_features(ep, cfg))
        assert len(ds) == len(expected) > 0
        for row_idx, (feats, label, prov) in enumerate(expected):
            got = ds.features[row_idx]
            assert np.abs(got[:6] - np.asarray(feats[:6])).max() < 1e-9, row_idx
            assert got[6] == feats[6] and got[7] == feats[7], row_idx
            assert int(ds.labels[row_idx]) == label
            assert ds.provenance[row_idx] == prov


# ---------------------------------------------------------------------------
# criterion 5: published-table format fidelity


def test_criterion_5_report_format_fidelity():
    with criterion(5, "imbalanced-support report reproduces published cells"):
        cm = np.array(
            [
                [366, 0, 3, 0, 8],
                [17, 235, 8, 0, 0],
                [0, 15, 2742, 17, 0],
                [0, 0, 16, 389, 0],
                [0, 12, 3, 0, 291],
            ]
        )
        rep = metrics.classification_report(cm)
        assert list(rep.support) == [377, 260, 2774, 405, 306]
        text = metrics.render_report(rep, list(CLASS_NAMES))
        rows = {
            line.split()[0]: line.split()[1:]
            for line in text.splitlines()
            if line.strip()
        }
        assert rows["approaching"][:3] == ["0.96", "0.97", "0.96"]
        assert rows["grabbing"][:3] == ["0.90", "0.90", "0.90"]
        assert rows["holding"][:3] == ["0.99", "0.99", "0.99"]
        assert rows["releasing"][:3] == ["0.96", "0.96", "0.96"]
        assert rows["unknown"][:3] == ["0.97", "0.95", "0.96"]
        assert rows["accuracy"] == ["0.98", "4122"]
        assert rows["macro"][1:] == ["0.95", "0.95", "0.95", "4122"]
        assert rows["weighted"][1:] == ["0.98", "0.98", "0.98", "4122"]


# ---------------------------------------------------------------------------
# criterion 6: desk-scale ladder analogue


def test_criterion_6_ladder_analogue(features_csv, ladder):
    with criterion(6, "ladder directionally reproduces the static-encoder gain"):
        rows, elapsed = ladder
        assert elapsed < 900.0, f"ladder took {elapsed:.0f}s"
        assert len(rows) == 8
        acc7 = float(rows[7]["accuracy"])
        acc5 = float(rows[5]["accuracy"])
        grab7 = float(rows[7]["grabbing_f1"])
        grab2 = float(rows[2]["grabbing_f1"])
        assert acc7 >= 0.90, f"static encoder accuracy {acc7:.4f} < 0.90"
        assert acc7 >= acc5 - 0.02, f"seq1 {acc7:.4f} vs seq5 {acc5:.4f}"
        assert grab7 >= grab2 - 0.05, f"grabbing F1 {grab7:.4f} vs MLP {grab2:.4f}"
        print(
            f"\n  ladder: seq1 acc={acc7:.4f}, seq5 acc={acc5:.4f}, "
            f"grabbing F1 seq1={grab7:.4f} vs MLP={grab2:.4f} ({elapsed:.0f}s)"
        )


# ---------------------------------------------------------------------------
# criterion 7: subcommand determinism


def tree_digest(root, skip_names=("run_manifest.json",)):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name in skip_names:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


MINI_SYNTH = (
    "--episodes", 3, "--seed", 5,
    "--idle", 10, "--approach", 10, "--grab", 4, "--hold", 12,
    "--release", 5, "--retreat", 5,
)


def test_criterion_7_subcommand_determinism(workdir):
    with criterion(7, "identical inputs and seed give hash-identical outputs"):
        base = workdir / "determinism"

        corpora = []
        for name in ("c1", "c2"):
            out = base / name
            assert run_cli("synth", "--out", out, *MINI_SYNTH) == 0
            corpora.append(out)
        assert tree_digest(corpora[0]) == tree_digest(corpora[1])

        feats = []
        for name in ("f1", "f2"):
            out = base / name
            assert run_cli("extract", "--manifest-dir", corpora[0], "--out", out) == 0
            feats.append(out / "features.csv")
        assert feats[0].read_bytes() == feats[1].read_bytes()

        fast = ("--epochs", 3, "--units", 8, "--patience", 0)
        runs = []
        for name in ("t1", "t2"):
            out = base / name
            assert run_cli("train", "--features", feats[0], "--out", out,
                           "--arch", "birnn", *fast) == 0
            runs.append(out)
        assert tree_digest(runs[0]) == tree_digest(runs[1])

        evals = []
        for name in ("e1", "e2"):
            out = base / name
            assert run_cli("eval", "--features", feats[0], "--out", out,
                           "--checkpoint", runs[0] / "checkpoint.json") == 0
            evals.append(out)
        assert tree_digest(evals[0]) == tree_digest(evals[1])

        searches = []
        for name in ("s1", "s2"):
            out = base / name
            assert run_cli("search", "--features", feats[0], "--out", out,
                           "--budget", 2, "--epochs", 2, "--patience", 0) == 0
            searches.append(out)
        assert tree_digest(searches[0]) == tree_digest(searches[1])

        xvals = []
        for name in ("x1", "x2"):
            out = base / name
            assert run_cli("xval", "--features", feats[0], "--out", out,
                           "--arch", "mlp", "--k", 2, *fast) == 0
            xvals.append(out)
        assert tree_digest(xvals[0]) == tree_digest(xvals[1])

        ladders = []
        for name in ("l1", "l2"):
            out = base / name
            assert run_cli("ladder", "--features", feats[0], "--out", out,
                           "--epochs", 2, "--budget", 1, "--patience", 0) == 0
            ladders.append(out)
        assert tree_digest(ladders[0]) == tree_digest(ladders[1])


# ---------------------------------------------------------------------------
# criterion 8: round trips


def test_criterion_8_round_trips(workdir):
    with criterion(8, "PGM and checkpoint round trips are bit-exact"):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (45, 33)).astype(np.uint8)
        path = workdir / "roundtrip.pgm"
        pgm.write_pgm(path, img)
        assert np.array_equal(pgm.read_pgm(path), img)
        pgm.write_pgm(workdir / "roundtrip2.pgm", pgm.read_pgm(path))
        assert path.read_bytes() == (workdir / "roundtrip2.pgm").read_bytes()

        x = rng.normal(size=(60, 8))
        y = rng.integers(0, 5, 60)
        spec = ModelSpec(kind="birnn", rnn_units=12, seq_length=1)
        all_rows = np.arange(len(y))
        ckpt, _ = train(spec, x, y, all_rows, all_rows, TrainConfig(epochs=3, seed=1))
        before, labels_before = predict(ckpt, x)
        ckpt_path = workdir / "roundtrip_ckpt.json"
        ckpt_mod.save(ckpt, ckpt_path)
        reloaded = ckpt_mod.load(ckpt_path)
        after, labels_after = predict(reloaded, x)
        assert np.array_equal(before, after)
        assert np.array_equal(labels_before, labels_after)
        assert np.abs(before.sum(axis=1) - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# golden outputs (not a criterion): the seed-7, 20-episode corpus and its
# features come from integer and float64 work, the features written at 9
# significant digits, so their bytes are pinned here. A change that moves
# them on purpose says which digest moved and why.

SYNTH_TREE_SHA256 = "9f870ef9bd4fdd2849f1888a53c2ae42b0a59a8d492add6aa5c117e158cec18a"
FEATURES_CSV_SHA256 = "a675fe7a1280ab7b40e7f000218dec1b32f976e551d5d278120bd6acfdd5e815"


def test_golden_output_digests(corpus_dir, features_csv):
    assert hashlib.sha256(features_csv.read_bytes()).hexdigest() == FEATURES_CSV_SHA256
    assert tree_digest(corpus_dir) == SYNTH_TREE_SHA256
