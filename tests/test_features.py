"""Feature pipeline tests: keyframe selection, windowing, descriptors,
dataset assembly, splitting and CSV round trips."""

import hashlib
import statistics

import numpy as np
import pytest

from handstates import features as F
from handstates import manifest
from handstates.features import (
    ClassLabel,
    Episode,
    KeyframeSeries,
    PipelineConfig,
)


def textured(rng, shape=(12, 16), amplitude=30.0):
    return rng.random(shape) * amplitude


def make_episode(frames, hand_masks=None, object_masks=None, labels=None, eid="ep"):
    n = len(frames)
    shape = frames[0].shape
    if hand_masks is None:
        hand_masks = []
        for i in range(n):
            m = np.zeros(shape, bool)
            m[1, 1] = True
            hand_masks.append(m)
    if object_masks is None:
        object_masks = []
        for i in range(n):
            m = np.zeros(shape, bool)
            m[-2, -2] = True
            object_masks.append(m)
    if labels is None:
        labels = [ClassLabel.UNKNOWN] * n
    return Episode(eid, list(frames), hand_masks, object_masks, list(labels))


def kept(ep, cfg):
    """The keyframe indices, which select_keyframes's entries carry in order."""
    indices = F.keyframe_indices(ep, cfg)
    assert F.select_keyframes(ep, cfg).entries.index.tolist() == indices
    return indices


class TestSelectKeyframes:
    def test_vacuous_thresholds_keep_everything(self, rng):
        ep = make_episode([textured(rng) for _ in range(6)])
        cfg = PipelineConfig(sharpness_threshold=0.0, diff_threshold=0.0)
        assert kept(ep, cfg) == list(range(6))

    def test_infinite_diff_threshold_keeps_only_frame_zero(self, rng):
        ep = make_episode([textured(rng) for _ in range(5)])
        cfg = PipelineConfig(diff_threshold=float("inf"))
        assert kept(ep, cfg) == [0]

    def test_static_prefix_dropped_against_per_frame_oracle(self, rng):
        base = textured(rng)
        moving = [base + rng.random(base.shape) * 20 for _ in range(4)]
        frames = [base, base.copy(), base.copy()] + moving
        ep = make_episode(frames)
        cfg = PipelineConfig(sharpness_threshold=1.0, diff_threshold=0.5)
        indices = kept(ep, cfg)

        from handstates.raster import frame_diff_energy, laplacian_variance

        expected = [0]
        for i in range(1, len(frames)):
            if (
                laplacian_variance(frames[i]) >= cfg.sharpness_threshold
                and frame_diff_energy(frames[i - 1], frames[i]) >= cfg.diff_threshold
            ):
                expected.append(i)
        assert indices == expected
        assert 1 not in indices and 2 not in indices

    def test_monotone_in_thresholds(self, rng):
        ep = make_episode([textured(rng) for _ in range(10)])
        base = set(kept(ep, PipelineConfig(1.0, 0.5)))
        for tau_s, tau_d in [(2.0, 0.5), (1.0, 2.0), (5.0, 5.0)]:
            tighter = set(kept(ep, PipelineConfig(tau_s, tau_d)))
            assert tighter <= base

    def test_uint8_and_float64_frames_give_identical_entries(self):
        from handstates.synth import ScenarioConfig, generate_episode

        ep = generate_episode(ScenarioConfig(seed=13))
        assert ep.frames[0].dtype == np.uint8
        widened = Episode(ep.episode_id, [f.astype(np.float64) for f in ep.frames],
                          ep.hand_masks, ep.object_masks, ep.labels)
        cfg = PipelineConfig()
        a, b = F.select_keyframes(ep, cfg), F.select_keyframes(widened, cfg)
        assert a.episode_id == b.episode_id
        assert a.entries.tobytes() == b.entries.tobytes()

    def test_empty_masks_never_crash(self, rng):
        shape = (12, 16)
        frames = [textured(rng, shape) for _ in range(3)]
        empty = np.zeros(shape, bool)
        hand = np.zeros(shape, bool)
        hand[2, 3] = True
        ep = Episode(
            "e",
            frames,
            [empty, hand, empty],
            [empty, empty, empty],
            [ClassLabel.UNKNOWN] * 3,
        )
        series = F.select_keyframes(ep, PipelineConfig(0.0, 0.0))
        diag = float(np.hypot(16, 12))
        assert series.entries.distance.tolist() == [diag] * 3
        # frame 0: no previous centroid -> canvas center; frame 2 carries frame 1's
        assert series.entries.centroid.tolist() == [[8.0, 6.0], [3.0, 2.0], [3.0, 2.0]]

    def test_keyframe_table_answers_column_and_row_reads(self):
        # perfbench's distance oracle and tracer read the table row by row
        from handstates.synth import ScenarioConfig, generate_episode

        series = F.select_keyframes(generate_episode(ScenarioConfig(seed=13)), PipelineConfig())
        entries = series.entries
        assert len(series) == len(entries) > 10
        assert entries.index.dtype == np.int64 and entries.distance.dtype == np.float64
        for k in range(len(series)):
            assert entries[k].index == entries.index[k] == int(entries.index[k])
            assert entries[k].distance == entries.distance[k] == float(entries.distance[k])


def episode_with_labels(n, shape=(6, 8)):
    frames = [np.zeros(shape) for _ in range(n)]
    labels = [ClassLabel(i % 5) for i in range(n)]
    return make_episode(frames, labels=labels)


class TestSlideWindows:
    def test_eleven_keyframes_one_window(self):
        assert list(F.slide_windows(11, PipelineConfig())) == [10]

    def test_fifteen_keyframes_five_windows(self):
        assert list(F.slide_windows(15, PipelineConfig())) == [10, 11, 12, 13, 14]
        # flat frames at zero thresholds: every frame is a keyframe
        ds = F.build_dataset([episode_with_labels(15)], PipelineConfig(0.0, 0.0))
        assert [t for _, t in ds.provenance] == [10, 11, 12, 13, 14]
        assert list(ds.labels) == [ClassLabel(i % 5) for i in range(10, 15)]

    def test_ten_keyframes_no_window(self):
        assert not F.slide_windows(10, PipelineConfig())

    @pytest.mark.parametrize("k,stride", [(23, 2), (30, 3), (11, 5)])
    def test_counting_formula_with_stride(self, k, stride):
        cfg = PipelineConfig(stride=stride)
        n = cfg.window_length
        expected = (k - n - 1) // stride + 1 if k >= n + 1 else 0
        assert len(F.slide_windows(k, cfg)) == expected


def series_from_signals(dists, centroids):
    return KeyframeSeries("ep", np.rec.array(
        [(i, c, d) for i, (d, c) in enumerate(zip(dists, centroids))], dtype=F.KEYFRAME))


def contact_distances(flags):
    """Distances whose contact flags, at the default epsilon of 10, are ``flags``."""
    return [0.0 if f else 50.0 for f in flags]


def descriptor(dists, centroids=None):
    """The descriptor of the one window whose context is the given signals."""
    n = len(dists)
    centroids = [(5.0, 5.0)] * n if centroids is None else centroids
    # the target keyframe is never read; it only makes the window whole
    series = series_from_signals(list(dists) + [0.0], list(centroids) + [(0.0, 0.0)])
    block = F.window_feature_vector(series, range(n, n + 1), PipelineConfig(window_length=n))
    assert block.shape == (1, F.FEATURE_DIM)
    return block[0]


def contact_metrics(flags):
    count, duration = descriptor(contact_distances(flags))[6:]
    return count, duration


class TestContactMetrics:
    def test_mixed_flags(self):
        flags = [True, True, False, True, True, True, False, False, False, False]
        assert contact_metrics(flags) == (5, 3)

    def test_all_false(self):
        assert contact_metrics([False] * 10) == (0, 0)

    def test_all_true(self):
        assert contact_metrics([True] * 10) == (10, 10)

    def test_matches_linear_scan_oracle(self, rng):
        # 50 windows of one block, each against a scan of its own flags
        flags = list(rng.random(59) < 0.5)
        series = series_from_signals(contact_distances(flags), [(0.0, 0.0)] * 59)
        targets = range(10, 59)
        block = F.window_feature_vector(series, targets, PipelineConfig())
        for t, (count, duration) in zip(targets, block[:, 6:]):
            window = flags[t - 10 : t]
            assert count == sum(window)
            best = run = 0
            for f in window:
                run = run + 1 if f else 0
                best = max(best, run)
            assert duration == best


def linear_trend(values):
    """Slope of ``values`` as the distance trend of one window."""
    return descriptor(values)[2]


class TestLinearTrend:
    def test_constant_series(self):
        assert linear_trend([4.2] * 7) == 0.0

    def test_unit_slope(self):
        assert linear_trend([0, 1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_two_points(self):
        # three keyframes give two speeds, 3 then 1
        vec = descriptor([50.0] * 3, centroids=[(0.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
        assert vec[5] == pytest.approx(-2.0, abs=1e-12)

    def test_too_short(self):
        # two keyframes give one speed, too few for its trend
        with pytest.raises(ValueError, match=">= 3"):
            PipelineConfig(window_length=2)

    def test_matches_closed_form(self, rng):
        v = rng.random(10) * 100
        t = np.arange(10.0)
        slope = ((t - t.mean()) * (v - v.mean())).sum() / ((t - t.mean()) ** 2).sum()
        assert linear_trend(v) == pytest.approx(slope, abs=1e-12)


def independent_descriptor(dists, centroids, contacts):
    """The 8 descriptors of one window, from the standard library alone."""
    speeds = [
        ((centroids[i][0] - centroids[i - 1][0]) ** 2
         + (centroids[i][1] - centroids[i - 1][1]) ** 2) ** 0.5
        for i in range(1, len(centroids))
    ]

    def ols(vals):
        t = list(range(len(vals)))
        tm = statistics.fmean(t)
        vm = statistics.fmean(vals)
        return sum((a - tm) * (b - vm) for a, b in zip(t, vals)) / sum(
            (a - tm) ** 2 for a in t
        )

    run = best = 0
    for f in contacts:
        run = run + 1 if f else 0
        best = max(best, run)
    return [
        statistics.fmean(dists),
        statistics.pstdev(dists),
        ols(dists),
        statistics.fmean(speeds),
        statistics.pstdev(speeds),
        ols(speeds),
        float(sum(contacts)),
        float(best),
    ]


class TestWindowFeatureVector:
    def test_stationary_far_hand(self):
        vec = descriptor([50.0] * 10, [(5.0, 5.0)] * 10)
        assert np.allclose(vec, [50, 0, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_linear_approach_closed_form(self):
        dists = [45.0 - 5 * i for i in range(10)]  # 45 .. 0
        centroids = [(float(i), 0.0) for i in range(10)]  # unit steps
        vec = descriptor(dists, centroids)  # contact within the default epsilon of 10
        assert vec[0] == pytest.approx(np.mean(dists))
        assert vec[2] == pytest.approx(-5.0, abs=1e-12)  # trend per keyframe step
        assert vec[3] == pytest.approx(1.0, abs=1e-12)  # mean speed = step length
        assert vec[4] == pytest.approx(0.0, abs=1e-12)
        assert vec[6] == 3.0  # distances 10, 5, 0
        assert vec[7] == 3.0

    def test_matches_independent_recomputation(self, rng):
        # every window of one block, strided, against its own recomputation
        dists = list(rng.random(40) * 25)  # 40% within the default epsilon of 10
        centroids = [tuple(p) for p in rng.random((40, 2)) * 30]
        contacts = [d <= 10.0 for d in dists]
        series = series_from_signals(dists, centroids)
        targets = range(10, 40, 3)
        block = F.window_feature_vector(series, targets, PipelineConfig())
        assert block.shape == (len(targets), F.FEATURE_DIM)
        for t, vec in zip(targets, block):
            context = slice(t - 10, t)
            expected = independent_descriptor(
                dists[context], centroids[context], contacts[context]
            )
            assert np.allclose(vec, expected, atol=1e-9)


def tiny_corpus(rng, n_episodes=3, frames_per=14):
    episodes = []
    for e in range(n_episodes):
        frames = [textured(rng) for _ in range(frames_per)]
        labels = [ClassLabel(int(rng.integers(0, 5))) for _ in range(frames_per)]
        episodes.append(make_episode(frames, labels=labels, eid=f"ep{e}"))
    return episodes


class TestBuildDataset:
    def test_empty_input(self):
        ds = F.build_dataset([], PipelineConfig())
        assert len(ds) == 0
        assert ds.features.shape == (0, F.FEATURE_DIM)

    def test_single_window_boundary(self, rng):
        ep = make_episode([textured(rng) for _ in range(11)])
        ds = F.build_dataset([ep], PipelineConfig(0.0, 0.0))
        assert len(ds) == 1
        assert ds.provenance == [("ep", 10)]

    def test_row_count_matches_window_counting(self, rng):
        episodes = tiny_corpus(rng, n_episodes=5, frames_per=16)
        cfg = PipelineConfig(0.0, 0.0)
        ds = F.build_dataset(episodes, cfg)
        expected = sum(
            len(F.slide_windows(len(F.keyframe_indices(ep, cfg)), cfg)) for ep in episodes
        )
        assert len(ds) == expected

    def test_short_episode_skipped_with_warning(self, rng, caplog):
        ep = make_episode([textured(rng) for _ in range(4)])
        with caplog.at_level("WARNING"):
            ds = F.build_dataset([ep], PipelineConfig(0.0, 0.0))
        assert len(ds) == 0
        assert any("no windows" in r.message for r in caplog.records)

    def test_deterministic(self, rng):
        episodes = tiny_corpus(rng)
        cfg = PipelineConfig(0.0, 0.0)
        a = F.build_dataset(episodes, cfg)
        b = F.build_dataset(episodes, cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.provenance == b.provenance

    def test_window_label_alignment(self, rng):
        episodes = tiny_corpus(rng)
        cfg = PipelineConfig(0.0, 0.0)
        ds = F.build_dataset(episodes, cfg)
        by_id = {ep.episode_id: ep for ep in episodes}
        for (eid, target_index), label in zip(ds.provenance, ds.labels):
            series = F.select_keyframes(by_id[eid], cfg)
            frame_index = series.entries[target_index].index
            assert by_id[eid].labels[frame_index] == label

    def test_all_features_finite(self, rng):
        ds = F.build_dataset(tiny_corpus(rng), PipelineConfig(0.0, 0.0))
        assert np.isfinite(ds.features).all()

    def test_strided_windows_match_per_window_formulas(self):
        from handstates.synth import ScenarioConfig, generate_episode

        ep = generate_episode(ScenarioConfig(seed=13))
        cfg = PipelineConfig(window_length=4, stride=3)
        ds = F.build_dataset([ep], cfg)
        entries = F.select_keyframes(ep, cfg).entries

        def trend(v):
            t = np.arange(v.size, dtype=np.float64)
            t -= t.mean()
            return np.dot(t, v - v.mean()) / np.dot(t, t)

        rows, labels, provenance = [], [], []
        offset = 0
        while offset + 4 < len(entries):  # one window at a time
            context = entries[offset : offset + 4]
            dist = np.array([e.distance for e in context])
            cx = np.array([e.centroid[0] for e in context])
            cy = np.array([e.centroid[1] for e in context])
            speed = np.hypot(np.diff(cx), np.diff(cy))
            run = best = 0
            contact = dist <= cfg.contact_epsilon
            for f in contact:
                run = run + 1 if f else 0
                best = max(best, run)
            rows.append([dist.mean(), dist.std(), trend(dist),
                         speed.mean(), speed.std(), trend(speed),
                         contact.sum(), best])
            labels.append(ep.labels[entries[offset + 4].index])
            provenance.append((ep.episode_id, offset + 4))
            offset += 3
        assert len(rows) > 10
        assert ds.provenance == provenance
        assert list(ds.labels) == labels
        assert np.allclose(ds.features, rows, rtol=0.0, atol=1e-12)


def labels_with_counts(counts):
    return np.repeat(np.arange(len(counts)), counts).astype(np.int64)


def dataset_with_counts(counts, rng):
    labels = labels_with_counts(counts)
    feats = rng.random((labels.size, F.FEATURE_DIM))
    prov = [(f"e{i}", i) for i in range(labels.size)]
    return F.LabeledDataset(feats, labels, prov)


class TestStratifiedSplit:
    def test_per_class_rounding(self):
        labels = labels_with_counts([60, 40])
        train, test = F.stratified_split_indices(labels, 0.2, seed=5)
        assert len(test) == 20 and len(train) == 80
        assert list(np.bincount(labels[test])) == [12, 8]
        assert list(np.bincount(labels[train])) == [48, 32]

    def test_determinism(self):
        labels = labels_with_counts([30, 20, 10])
        a = F.stratified_split_indices(labels, 0.25, seed=9)
        b = F.stratified_split_indices(labels, 0.25, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_partition_preserves_rows(self):
        labels = labels_with_counts([17, 23, 11])
        train, test = F.stratified_split_indices(labels, 0.3, seed=2)
        assert len(train) + len(test) == labels.size
        assert sorted(np.concatenate([train, test])) == list(range(labels.size))
        assert not set(train) & set(test)

    def test_invalid_fraction(self):
        labels = labels_with_counts([4, 4])
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                F.stratified_split_indices(labels, bad, seed=0)


def pinned_labels():
    """83 shuffled labels, uneven per class, with class 3 absent."""
    labels = labels_with_counts([37, 9, 23, 0, 14])
    return np.random.default_rng(2024).permutation(labels)


def index_digest(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


class TestSplitsArePinned:
    """The holdout split and the k-fold folds keep the exact index arrays
    they were first recorded with."""

    @pytest.mark.parametrize("seed, fraction, expected", [
        (0, 0.15, "67475e4a3b611f18"), (0, 0.2, "3e0179b162efe1ee"),
        (0, 0.5, "6ddc2f843babb958"), (0, 0.6, "fabe6fd95ec4a1e4"),
        (7, 0.15, "576bbce790afabbf"), (7, 0.2, "fc4dff774f82d482"),
        (7, 0.5, "e830dc21cf792eea"), (7, 0.6, "1b4ef038358d1552"),
        (123, 0.15, "fc680c0ab213f33e"), (123, 0.2, "dd4f0bb90a4598c3"),
        (123, 0.5, "c290415bcab01c57"), (123, 0.6, "05a5fe627167c2da"),
    ])
    def test_holdout(self, seed, fraction, expected):
        train, test = F.stratified_split_indices(pinned_labels(), fraction, seed)
        assert index_digest(train, test) == expected

    @pytest.mark.parametrize("k, expected", [
        (2, "bcf950501cba5688"), (3, "4d95a7bcb53a6a9c"), (5, "e131fe62bcd6020b"),
    ])
    def test_folds(self, k, expected):
        labels = pinned_labels()
        folds = F.stratified_folds(labels, k, seed=7)
        assert index_digest(*(held for _, held in folds)) == expected
        for train, held in folds:
            assert np.array_equal(train, np.setdiff1d(np.arange(labels.size), held))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, rng):
        ds = dataset_with_counts([5, 3, 2], rng)
        path = tmp_path / "features.csv"
        F.save_dataset_csv(ds, path)
        back = F.load_dataset_csv(path)
        assert np.allclose(back.features, ds.features, rtol=1e-8, atol=1e-12)
        assert np.array_equal(back.labels, ds.labels)
        assert back.provenance == ds.provenance

    def test_write_is_deterministic(self, tmp_path, rng):
        ds = dataset_with_counts([4, 4], rng)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        F.save_dataset_csv(ds, p1)
        F.save_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            F.load_dataset_csv(path)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, "abc", "could not convert string to float: 'abc'"),
            (F.FEATURE_DIM, "flying", "unknown class label 'flying'"),
            (F.FEATURE_DIM + 2, "x7", "invalid literal for int"),
            (2, "inf", "trend_dist is inf, not finite"),
            (5, "-inf", "trend_speed is -inf, not finite"),
            (7, "nan", "contact_duration is nan, not finite"),
        ],
        ids=["float", "label", "target-index", "inf", "minus-inf", "nan"],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, rng, column, value, message):
        path = tmp_path / "features.csv"
        F.save_dataset_csv(dataset_with_counts([3, 2], rng), path)
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")  # the third row, on line 4
        cells[column] = value
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            F.load_dataset_csv(path)
        assert str(err.value).startswith(f"{path}:4: ")
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (F.FEATURE_DIM, "flying", "unknown class label 'flying'"),
            (2, "inf", "trend_dist is inf, not finite"),
        ],
        ids=["label", "inf"],
    )
    def test_row_after_a_two_line_field_is_named_by_its_first_line(self, tmp_path, rng,
                                                                   column, value, message):
        path = tmp_path / "features.csv"
        F.save_dataset_csv(dataset_with_counts([3, 2], rng), path)
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[F.FEATURE_DIM + 1] = '"ep\nx"'  # the first row spans lines 2 and 3
        lines[1] = ",".join(cells)
        cells = lines[2].split(",")  # the second row, on line 4
        cells[column] = value
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            F.load_dataset_csv(path)
        assert str(err.value).startswith(f"{path}:4: ")
        assert message in str(err.value)


def feature_table(tmp_path, rng):
    path = tmp_path / "features.csv"
    F.save_dataset_csv(dataset_with_counts([3, 2], rng), path)
    return path, F.load_dataset_csv


def manifest_table(tmp_path, rng):
    frames = [rng.integers(0, 256, (4, 5), dtype=np.uint8) for _ in range(4)]
    return manifest.write_episode(make_episode(frames), tmp_path / "ep"), manifest.read_episode


# name: (the table's lines -> the broken table's lines, line named, message)
TABLE_DEFECTS = {
    "header": (lambda lines: ["x" + lines[0]] + lines[1:], 1, "header"),
    "empty": (lambda lines: [], 1, "header"),
    "short-row": (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], 3,
                  "columns"),
    "long-row": (lambda lines: lines[:2] + [lines[2] + ",x"] + lines[3:], 3, "columns"),
}


@pytest.mark.parametrize("defect", TABLE_DEFECTS)
@pytest.mark.parametrize("table", [feature_table, manifest_table], ids=["features", "manifest"])
def test_csv_table_refusals_name_file_and_line(tmp_path, rng, table, defect):
    """Both tables are read by ``csv_table``, which checks the header and
    each row's width."""
    path, read = table(tmp_path, rng)
    edit, line, message = TABLE_DEFECTS[defect]
    path.write_text("".join(f"{row}\n" for row in edit(path.read_text().splitlines())))
    with pytest.raises(ValueError) as err:
        read(path)
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert message in str(err.value)


class TestInvariants:
    def test_class_label_enumeration_frozen(self):
        assert len(ClassLabel) == 5
        assert [int(c) for c in ClassLabel] == [0, 1, 2, 3, 4]
        assert F.CLASS_NAMES == (
            "approaching", "grabbing", "holding", "releasing", "unknown"
        )
        assert F.parse_label("HOLDING") == ClassLabel.HOLDING
        with pytest.raises(ValueError, match="unknown class"):
            F.parse_label("flying")

    def test_pipeline_config_validation(self):
        for kwargs in (
            {"window_length": 1},
            {"window_length": 2},
            {"stride": 0},
            {"contact_epsilon": 0.0},
            {"sharpness_threshold": -1.0},
        ):
            with pytest.raises(ValueError):
                PipelineConfig(**kwargs)

    def test_episode_validation(self, rng):
        frames = [textured(rng) for _ in range(3)]
        with pytest.raises(ValueError, match="equal length"):
            Episode("e", frames, [frames[0] > 0] * 2, [frames[0] > 0] * 3,
                    [ClassLabel.UNKNOWN] * 3)

    def test_contact_coherence_over_real_windows(self):
        from handstates.synth import ScenarioConfig, generate_episode

        ep = generate_episode(ScenarioConfig(seed=13))
        cfg = PipelineConfig()
        n = cfg.window_length
        series = F.select_keyframes(ep, cfg)
        targets = F.slide_windows(len(series), cfg)
        assert targets
        block = F.window_feature_vector(series, targets, cfg)
        for t, vec in zip(targets, block):
            count, duration = vec[6], vec[7]
            min_dist = min(e.distance for e in series.entries[t - n : t])
            assert (count > 0) == (min_dist <= cfg.contact_epsilon)
            assert duration <= count <= n


class TestSequenceDataset:
    def test_seq1_is_row_reshape(self, rng):
        ds = dataset_with_counts([6, 4], rng)
        targets, y = F.sequence_dataset(ds, 1)
        assert np.array_equal(targets, np.arange(10))
        assert F.windows(ds.features, 1) is ds.features
        assert np.array_equal(y, ds.labels)

    def test_sequences_never_span_episodes(self, rng):
        feats = rng.random((7, F.FEATURE_DIM))
        labels = np.arange(7, dtype=np.int64) % 5
        prov = [("a", i) for i in range(4)] + [("b", i) for i in range(3)]
        ds = F.LabeledDataset(feats, labels, prov)
        targets, y = F.sequence_dataset(ds, 3)
        # episode a: rows 0..3 -> 2 sequences; episode b: rows 4..6 -> 1
        assert list(targets) == [2, 3, 6]
        x = F.windows(feats, 3)[targets]
        assert x.shape == (3, 3, F.FEATURE_DIM)
        assert np.array_equal(x[0], feats[0:3])
        assert np.array_equal(x[1], feats[1:4])
        assert np.array_equal(x[2], feats[4:7])
        assert list(y) == [int(labels[2]), int(labels[3]), int(labels[6])]

    @pytest.mark.parametrize("seq_length", [1, 2, 5])
    def test_windows_gather_the_stacked_sequences(self, rng, seq_length):
        # a stride-3 corpus of 1, 9, 2 and 4 rows per episode: all but one
        # episode are shorter than 5 rows, and the first shorter than 2
        cfg = PipelineConfig(0.0, 0.0, window_length=3, stride=3)
        episodes = [
            make_episode([textured(rng) for _ in range(k)],
                         labels=[ClassLabel(i % 5) for i in range(k)], eid=f"ep{e}")
            for e, k in enumerate((4, 30, 8, 14))
        ]
        ds = F.build_dataset(episodes, cfg)
        episode_ids = [episode_id for episode_id, _ in ds.provenance]
        sizes = [episode_ids.count(f"ep{e}") for e in range(4)]
        assert sizes == [1, 9, 2, 4]
        # the stacking loop that sequence_dataset once ran, as the oracle
        stacked, labels, start = [], [], 0
        for size in sizes:
            for i in range(start, start + size - seq_length + 1):
                stacked.append(ds.features[i : i + seq_length])
                labels.append(int(ds.labels[i + seq_length - 1]))
            start += size
        targets, y = F.sequence_dataset(ds, seq_length)
        gathered = F.windows(ds.features, seq_length)[targets]
        assert np.array_equal(gathered.reshape(-1, seq_length, F.FEATURE_DIM), np.stack(stacked))
        assert np.array_equal(
            gathered.reshape(-1, seq_length, F.FEATURE_DIM),
            np.stack([ds.features[t - seq_length + 1 : t + 1] for t in targets]),
        )
        assert list(y) == labels
        for t in targets:
            window = ds.provenance[t - seq_length + 1 : t + 1]
            # the window lies in its target's episode, and the target is its last row
            assert {episode_id for episode_id, _ in window} == {ds.provenance[t][0]}
            assert max(index for _, index in window) == ds.provenance[t][1]

    @pytest.mark.parametrize(
        "prov, message",
        [
            ([("a", 3), ("a", 2), ("a", 1), ("b", 0)], "episode a: target_index 2 follows 3"),
            ([("a", 0), ("a", 1), ("a", 1), ("b", 0)], "episode a: target_index 1 follows 1"),
            ([("a", 0), ("b", 0), ("a", 1), ("a", 2)],
             "episode a: target_index 1 is apart from the episode's earlier rows"),
        ],
        ids=["reversed", "repeated", "split"],
    )
    def test_rows_out_of_order_are_refused(self, rng, prov, message):
        ds = F.LabeledDataset(rng.random((4, F.FEATURE_DIM)), np.zeros(4, np.int64), prov)
        with pytest.raises(ValueError, match=message):
            F.sequence_dataset(ds, 2)
        targets, _ = F.sequence_dataset(ds, 1)  # a row model takes any row order
        assert np.array_equal(targets, np.arange(4))
