"""Subcommand behaviour: determinism, validation errors, config precedence."""

import argparse
import collections
import csv
import ctypes
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli

from handstates import cli, features, manifest, pgm, synth
from handstates.features import ClassLabel, Episode, PipelineConfig, build_dataset
from handstates.nn import search
from handstates.nn.model import KINDS, ModelSpec
from handstates.nn.train import CLASS_WEIGHTINGS, TrainConfig
from handstates.synth import ScenarioConfig


def tree_digest(root, skip_names=("run_manifest.json",)):
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name in skip_names:
            continue
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def assert_manifest_lists_every_file(out):
    """The run manifest hashes every file under ``out`` but itself."""
    manifest_path = out / "run_manifest.json"
    outputs = json.loads(manifest_path.read_text())["outputs"]
    files = {str(p) for p in out.rglob("*") if p.is_file() and p != manifest_path}
    assert set(outputs) == files
    for path, digest in outputs.items():
        assert digest == "sha256:" + cli.sha256_file(Path(path))


SMALL_SYNTH = (
    "--episodes", 2, "--seed", 3,
    "--idle", 4, "--approach", 8, "--grab", 2, "--hold", 8,
    "--release", 3, "--retreat", 3,
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus") / "data"
    assert run_cli("synth", "--out", out, *SMALL_SYNTH) == 0
    return out


@pytest.fixture(scope="module")
def small_features(tmp_path_factory, small_corpus):
    out = tmp_path_factory.mktemp("features")
    assert run_cli("extract", "--manifest-dir", small_corpus, "--out", out) == 0
    return out / "features.csv"


class TestSynth:
    def test_same_seed_gives_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("synth", "--out", a, *SMALL_SYNTH) == 0
        assert run_cli("synth", "--out", b, *SMALL_SYNTH) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_writes_three_streams_and_a_manifest_per_episode(self, small_corpus):
        files = sorted(str(p.relative_to(small_corpus))
                       for p in small_corpus.rglob("*") if p.is_file())
        assert files == [
            f"ep_00{i}/{name}" for i in range(2)
            for name in sorted(manifest.STREAMS + (manifest.MANIFEST_NAME,))
        ] + ["run_manifest.json"]

    def test_refuses_an_out_that_holds_a_corpus(self, tmp_path, capsys):
        # fewer episodes over an older corpus would leave its later episodes
        # to be read with the new ones
        out = tmp_path / "x"
        assert run_cli("synth", "--out", out, "--episodes", 3, "--seed", 5) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli("synth", "--out", out, "--episodes", 2, "--seed", 5) == 1
        assert f"{out}: --out already holds files" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_zero_episodes_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", tmp_path / "x", "--episodes", 0)
        assert exc.value.code == 2

    def test_object_rect_needs_four_values(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", tmp_path / "x", "--object-rect", "86,40")
        assert exc.value.code == 2
        assert "--object-rect" in capsys.readouterr().err

    def test_histogram_lists_all_classes(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "h", *SMALL_SYNTH) == 0
        out = capsys.readouterr().out
        for label in ClassLabel:
            assert label.name.lower() in out
        # synth counts window labels without extracting: same counts as extract
        printed = {
            name: int(count)
            for name, _, count in (
                line.strip().partition(": ") for line in out.splitlines()[2:]
            )
        }
        assert list(printed) == [label.name.lower() for label in ClassLabel]
        assert run_cli("extract", "--manifest-dir", tmp_path / "h", "--out", tmp_path / "x") == 0
        with open(tmp_path / "x" / "features.csv", newline="") as fh:
            extracted = collections.Counter(row["label"] for row in csv.DictReader(fh))
        assert sum(printed.values()) > 0
        assert printed == {name: extracted[name] for name in printed}

    def test_counts_labels_without_keyframe_signals(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("synth computed keyframe signals or descriptors")

        for name in ("select_keyframes", "mask_distance", "mask_centroid",
                     "window_feature_vector"):
            monkeypatch.setattr(features, name, forbidden)
        monkeypatch.setattr(cli, "build_dataset", forbidden)
        assert run_cli("synth", "--out", tmp_path / "h", *SMALL_SYNTH) == 0

    @pytest.mark.parametrize("flag,value", [
        ("--epsilon", "0"), ("--approach-speed", "nan"), ("--jitter", "-0.1"),
        ("--mask-noise", "0.5"), ("--idle", "-1"), ("--seed", "-1"), ("--canvas", "64x0"),
        ("--object-rect", "86,40,0,22"), ("--object-rect", "86,-1,22,22"),
    ])
    def test_rejected_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", tmp_path / "o", flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infeasible_scenario_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(
            "synth", "--out", tmp_path / "bad", "--episodes", 1,
            "--approach", 200, "--approach-speed", 5,
        )
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert list((tmp_path / "bad").iterdir()) == []


class LiveEpisodes:
    """Counts the Episode objects made, and the most alive at once."""

    def __init__(self, monkeypatch):
        self.made = self.alive = self.peak = 0
        post_init = Episode.__post_init__

        def counted(episode):
            post_init(episode)
            self.made += 1
            self.alive += 1
            self.peak = max(self.peak, self.alive)
            weakref.finalize(episode, self.dropped)

        monkeypatch.setattr(Episode, "__post_init__", counted)

    def dropped(self):
        self.alive -= 1


FOUR_EPISODES = ("--episodes", 4) + SMALL_SYNTH[2:]


class EarlierEpisodes:
    """Wraps ``owner.name``, a function that makes an episode, to count at
    each call the episodes its earlier calls made that are still alive."""

    def __init__(self, monkeypatch, owner, name):
        self.refs, self.alive_at_call = [], []
        make = getattr(owner, name)

        def checked(*args, **kwargs):
            self.alive_at_call.append(sum(ref() is not None for ref in self.refs))
            episode = make(*args, **kwargs)
            self.refs.append(weakref.ref(episode))
            return episode

        monkeypatch.setattr(owner, name, checked)


class TestEpisodeStreaming:
    """One episode is alive at a time: each is dropped before the next one
    is made or read."""

    def test_synth(self, tmp_path, monkeypatch):
        live = LiveEpisodes(monkeypatch)
        assert run_cli("synth", "--out", tmp_path, *FOUR_EPISODES) == 0
        assert live.made == 4
        assert live.peak == 1

    def test_build_dataset_over_read_corpus(self, tmp_path, monkeypatch):
        assert run_cli("synth", "--out", tmp_path, *FOUR_EPISODES) == 0
        live = LiveEpisodes(monkeypatch)
        ds = build_dataset(cli.read_corpus(tmp_path, hashlib.sha256()), PipelineConfig())
        assert len(ds) > 0
        assert live.made == 4
        assert live.peak == 1

    def test_synth_renders_each_episode_after_the_last_is_dropped(self, tmp_path, monkeypatch):
        calls = EarlierEpisodes(monkeypatch, synth, "generate_episode")
        assert run_cli("synth", "--out", tmp_path, *FOUR_EPISODES) == 0
        assert calls.alive_at_call == [0, 0, 0, 0]

    def test_extract_reads_each_episode_after_the_last_is_dropped(self, tmp_path, monkeypatch):
        assert run_cli("synth", "--out", tmp_path / "corpus", *FOUR_EPISODES) == 0
        calls = EarlierEpisodes(monkeypatch, manifest, "read_episode")
        assert run_cli("extract", "--manifest-dir", tmp_path / "corpus",
                       "--out", tmp_path / "data") == 0
        assert calls.alive_at_call == [0, 0, 0, 0]


class TestExtract:
    def test_single_window_boundary(self, tmp_path, rng):
        shape = (10, 12)
        n = 11
        frames = [rng.integers(0, 255, shape).astype(np.uint8) for _ in range(n)]
        hand = np.zeros(shape, bool)
        hand[2, 2] = True
        obj = np.zeros(shape, bool)
        obj[7, 9] = True
        episode = Episode(
            "only", frames, [hand] * n, [obj] * n, [ClassLabel.HOLDING] * n
        )
        corpus = tmp_path / "corpus"
        manifest.write_episode(episode, corpus / "only")
        out = tmp_path / "out"
        assert run_cli(
            "extract", "--manifest-dir", corpus, "--out", out,
            "--tau-sharp", 0, "--tau-diff", 0,
        ) == 0
        rows = (out / "features.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + exactly one window

    @pytest.mark.parametrize("flag,value", [
        ("--window", "2"), ("--tau-sharp", "-1"), ("--tau-diff", "nan"), ("--epsilon", "0"),
    ])
    def test_rejected_flag_is_usage_error(self, tmp_path, small_corpus, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("extract", "--manifest-dir", small_corpus, "--out", tmp_path / "o",
                    flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path, small_corpus):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("extract", "--manifest-dir", small_corpus, "--out", out) == 0
        assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()

    def test_row_count_monotone_in_diff_threshold(self, tmp_path, small_corpus):
        counts = []
        for i, tau in enumerate((0.5, 5.0, 50.0)):
            out = tmp_path / f"t{i}"
            assert run_cli(
                "extract", "--manifest-dir", small_corpus, "--out", out,
                "--tau-diff", tau,
            ) == 0
            counts.append(len((out / "features.csv").read_text().splitlines()) - 1)
        assert counts[0] >= counts[1] >= counts[2]

    def test_malformed_manifest_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        ep_dir = corpus / "ep"
        ep_dir.mkdir(parents=True)
        pgm.write_pgm(ep_dir / "f.pgm", np.zeros((4, 4), np.uint8))
        (ep_dir / "manifest.csv").write_text(
            "frame,hand_mask,object_mask,label\n"
            "f.pgm,missing.pgm,f.pgm,holding\n"
        )
        code = run_cli("extract", "--manifest-dir", corpus, "--out", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 1
        assert "manifest.csv:2" in err

    def test_non_utf8_manifest_names_file_and_line(self, tmp_path, small_corpus, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        manifest_path = corpus / "ep_001" / "manifest.csv"
        lines = manifest_path.read_bytes().split(b"\n")
        lines[4] += b"\xff"
        manifest_path.write_bytes(b"\n".join(lines))
        assert run_cli("extract", "--manifest-dir", corpus, "--out", tmp_path / "o") == 1
        assert f"error: {manifest_path}:5: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_oversized_manifest_field_names_file_and_line(self, tmp_path, small_corpus,
                                                          capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        manifest_path = corpus / "ep_001" / "manifest.csv"
        lines = manifest_path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + "x" * 200_000
        manifest_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert (f"error: {manifest_path}:3: field larger than field limit"
                in capsys.readouterr().err)
        assert not (out / "features.csv").exists()

    def test_unterminated_quote_names_the_line_it_opens_on(self, tmp_path, small_corpus,
                                                           capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        manifest_path = corpus / "ep_001" / "manifest.csv"
        lines = manifest_path.read_text().splitlines()
        # the quoted field opened on line 3 runs on past the csv field size limit
        lines[2] = '"' + lines[2]
        manifest_path.write_text("\n".join(lines + ["x" * 59] * 3000) + "\n")
        assert run_cli("extract", "--manifest-dir", corpus, "--out", tmp_path / "out") == 1
        assert (f"error: {manifest_path}:3: field larger than field limit"
                in capsys.readouterr().err)

    def test_file_outside_the_corpus_is_refused(self, tmp_path, small_corpus, capsys):
        # the input digest covers the files under the corpus root only
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        outside = tmp_path / "object.pgm"
        (corpus / "ep_001" / "object.pgm").rename(outside)
        manifest_path = corpus / "ep_001" / "manifest.csv"
        text = manifest_path.read_text()
        manifest_path.write_text(text.replace("object.pgm", str(outside)))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert (f"error: {manifest_path}:2: {outside} is outside the corpus {corpus}"
                in capsys.readouterr().err)
        assert not (out / "features.csv").exists()
        # climbing out by a relative path is refused the same way
        manifest_path.write_text(text.replace("object.pgm", "../../object.pgm"))
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert "../../object.pgm is outside the corpus" in capsys.readouterr().err

    def test_shared_directory_inside_the_corpus_is_read(self, tmp_path, small_corpus,
                                                        small_features):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        (corpus / "images").mkdir()
        (corpus / "ep_001" / "object.pgm").rename(corpus / "images" / "object.pgm")
        manifest_path = corpus / "ep_001" / "manifest.csv"
        manifest_path.write_text(
            manifest_path.read_text().replace("object.pgm", "../images/object.pgm"))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 0
        assert (out / "features.csv").read_bytes() == small_features.read_bytes()
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["inputs"][str(corpus)] == "sha256:" + rglob_tree_digest(corpus)

    def test_input_digest_ignores_corpus_run_manifest(self, tmp_path):
        # two synth runs of one corpus differ only in their run manifests
        digests = []
        for name in ("a", "b"):
            corpus, out = tmp_path / name / "corpus", tmp_path / name / "features"
            assert run_cli("synth", "--out", corpus, *SMALL_SYNTH) == 0
            assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 0
            doc = json.loads((out / "run_manifest.json").read_text())
            digests.append(doc["inputs"][str(corpus)])
        assert digests[0] == digests[1]

    def test_corpus_is_read_one_episode_at_a_time(self, small_corpus, monkeypatch):
        read = []
        read_episode = manifest.read_episode
        monkeypatch.setattr(manifest, "read_episode",
                            lambda path, root: read.append(path) or read_episode(path, root))
        episodes = cli.read_corpus(small_corpus, hashlib.sha256())
        assert read == []
        next(episodes)
        assert read == [small_corpus / "ep_000" / "manifest.csv"]

    def test_missing_corpus_raises_at_call_time(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no manifest.csv"):
            cli.read_corpus(tmp_path, hashlib.sha256())

    def test_symlinked_episode_directory_is_refused(self, tmp_path, small_corpus, capsys):
        # the walk that hashes the corpus does not enter symlinked
        # directories, so such an episode would be read but not hashed
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        (corpus / "ep_zzz").symlink_to(small_corpus / "ep_000", target_is_directory=True)
        with pytest.raises(ValueError, match="ep_zzz/"):
            list(cli.read_corpus(corpus, hashlib.sha256()))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert (f"{corpus / 'ep_zzz' / 'manifest.csv'}: read through a symlinked directory"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @staticmethod
    def sublink(tmp_path, small_corpus, episode):
        """The small corpus with ``episode``'s object.pgm read through
        ``episode/imgs``, a symlink to a directory outside the corpus."""
        corpus, outside = tmp_path / "corpus", tmp_path / "outside"
        shutil.copytree(small_corpus, corpus)
        outside.mkdir()
        (corpus / episode / "object.pgm").rename(outside / "object.pgm")
        (corpus / episode / "imgs").symlink_to(outside, target_is_directory=True)
        manifest_path = corpus / episode / "manifest.csv"
        manifest_path.write_text(
            manifest_path.read_text().replace("object.pgm", "imgs/object.pgm"))
        return corpus

    @pytest.fixture
    def sublinked_corpus(self, tmp_path, small_corpus):
        return self.sublink(tmp_path, small_corpus, "ep_000")

    def test_symlinked_subdirectory_is_refused(self, tmp_path, sublinked_corpus, capsys):
        # a file read through a symlinked directory inside an episode would
        # change the features but not the input digest
        corpus = sublinked_corpus
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert (f"error: {corpus / 'ep_000' / 'imgs' / 'object.pgm'}: read through a "
                "symlinked directory" in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_symlinked_subdirectory_is_refused_before_any_episode_is_featurised(
            self, tmp_path, sublinked_corpus, monkeypatch):
        select = features.select_keyframes
        calls = []
        monkeypatch.setattr(features, "select_keyframes",
                            lambda *args: calls.append(args) or select(*args))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", sublinked_corpus, "--out", out) == 1
        assert calls == []

    def test_symlinked_subdirectory_in_the_second_episode_is_refused_after_the_first(
            self, tmp_path, small_corpus, monkeypatch, capsys):
        corpus = self.sublink(tmp_path, small_corpus, "ep_001")
        select = features.select_keyframes
        calls = []
        monkeypatch.setattr(features, "select_keyframes",
                            lambda *args: calls.append(args) or select(*args))
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert [episode.episode_id for episode, _ in calls] == ["ep_000"]
        assert (f"error: {corpus / 'ep_001' / 'imgs' / 'object.pgm'}: read through a "
                "symlinked directory" in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_stray_symlinked_directory_is_not_refused(self, tmp_path, small_corpus,
                                                      small_features):
        # no manifest names a file through either link, so no episode reads
        # a file the walk left out, and the input digest is the walk's
        corpus, outside = tmp_path / "corpus", tmp_path / "outside"
        shutil.copytree(small_corpus, corpus)
        outside.mkdir()
        (outside / "notes.txt").write_text("a file behind a symlinked directory")
        (corpus / "linked").symlink_to(outside, target_is_directory=True)
        (corpus / "ep_000" / "imgs").symlink_to(outside, target_is_directory=True)
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 0
        assert (out / "features.csv").read_bytes() == small_features.read_bytes()
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["inputs"][str(corpus)] == "sha256:" + rglob_tree_digest(corpus)

    def test_corpus_root_manifest_beside_episode_directories_is_refused(
            self, tmp_path, small_corpus, capsys):
        # reading the root's episode alone would leave the other episodes
        # unread, though their files enter the input digest
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        for path in (corpus / "ep_000").iterdir():
            shutil.copy(path, corpus)
        with pytest.raises(ValueError, match="not both"):
            manifest.find_manifests(corpus)
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        assert (f"error: {corpus / 'manifest.csv'} and {corpus / 'ep_000' / 'manifest.csv'}: "
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    def test_symlinked_corpus_root_is_read(self, tmp_path):
        root = tmp_path / "one"
        manifest.write_episode(tiny_episode(), root)
        link = tmp_path / "link"
        link.symlink_to(root, target_is_directory=True)
        digest = hashlib.sha256()
        assert [len(e) for e in cli.read_corpus(link, digest)] == [2]
        assert digest.hexdigest() == rglob_tree_digest(root)

    @pytest.mark.parametrize("column, name", enumerate(manifest.STREAMS))
    def test_mis_sized_pgm_names_its_file(self, tmp_path, small_corpus, capsys, column, name):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        stream = corpus / "ep_001" / name
        images = pgm.split_pgms(bytearray(stream.read_bytes()), name)
        h, w = images[3].shape
        images[3] = images[3][:-1, :]
        pgm.write_pgms(stream, images)
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        manifest_path = corpus / "ep_001" / "manifest.csv"
        assert (f"{manifest_path}:5: {name} image 4 is {w}x{h - 1}, frames.pgm image 1 is {w}x{h}"
                in capsys.readouterr().err)
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("count", ["fewer", "more"])
    def test_stream_of_another_image_count_names_file_and_line(self, tmp_path, small_corpus,
                                                               capsys, count):
        corpus = tmp_path / "corpus"
        shutil.copytree(small_corpus, corpus)
        stream = corpus / "ep_001" / "hand.pgm"
        images = pgm.split_pgms(bytearray(stream.read_bytes()), "hand.pgm")
        rows = len(images)
        if count == "fewer":
            # two images: the third row, on line 4, is the first left without one
            images, line = images[:2], 4
        else:
            # one to spare: named last by the last row
            images, line = images + images[:1], rows + 1
        pgm.write_pgms(stream, images)
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 1
        manifest_path = corpus / "ep_001" / "manifest.csv"
        assert (f"{manifest_path}:{line}: hand.pgm holds {len(images)} images, "
                f"but {rows} cells name it" in capsys.readouterr().err)
        assert not (out / "features.csv").exists()

    def test_one_image_per_file_corpus_gives_the_same_features(self, tmp_path, small_corpus,
                                                               small_features):
        # the layout of a corpus converted from per-frame image files
        corpus = tmp_path / "corpus"
        frames = 0
        for path in manifest.find_manifests(small_corpus):
            episode = manifest.read_episode(path)
            frames += len(episode)
            ep_dir = corpus / episode.episode_id
            ep_dir.mkdir(parents=True)
            lines = [",".join(manifest.MANIFEST_HEADER)]
            for i, label in enumerate(episode.labels):
                names = (f"frame_{i:04d}.pgm", f"hand_{i:04d}.pgm", f"obj_{i:04d}.pgm")
                pgm.write_pgm(ep_dir / names[0], episode.frames[i])
                pgm.write_pgm(ep_dir / names[1], pgm.mask_to_gray(episode.hand_masks[i]))
                pgm.write_pgm(ep_dir / names[2], pgm.mask_to_gray(episode.object_masks[i]))
                lines.append(",".join(names + (features.CLASS_NAMES[label],)))
            (ep_dir / "manifest.csv").write_text("\r\n".join(lines) + "\r\n")
        assert len(list(corpus.rglob("*.pgm"))) == 3 * frames
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 0
        assert (out / "features.csv").read_bytes() == small_features.read_bytes()
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["inputs"][str(corpus)] == "sha256:" + rglob_tree_digest(corpus)

    def test_frames_are_read_as_uint8(self, small_corpus):
        episode = manifest.read_episode(small_corpus / "ep_000" / "manifest.csv")
        assert all(frame.dtype == np.uint8 for frame in episode.frames)


def rglob_tree_digest(root):
    """The input digest as first written: files in ``sorted(rglob)`` order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "run_manifest.json"):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(cli.sha256_file(path).encode())
    return digest.hexdigest()


def tiny_episode(n=2):
    frames = [np.full((3, 4), 10 * i, np.uint8) for i in range(n)]
    masks = [np.eye(3, 4, dtype=bool)] * n
    return Episode("tiny", frames, masks, masks, [ClassLabel.HOLDING] * n)


class TestInputDigest:
    @pytest.fixture
    def tree(self, tmp_path):
        """Two episodes among files and directories that are not episodes."""
        root = tmp_path / "tree"
        for rel in ("a/x", "a/sub/y", "a/run_manifest.json", "a.txt", "a-b/z",
                    "a b", "A/w", ".hidden", "run_manifest.json"):
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(rel)
        (root / "empty").mkdir()
        for name in ("a", "a-b"):
            manifest.write_episode(tiny_episode(), root / name)
        return root

    def test_digest_matches_sorted_rglob_formula(self, tree):
        files = sorted(p for p in tree.rglob("*") if p.is_file())
        # the tree tells path order from plain string order
        assert sorted(files, key=str) != files
        digest = hashlib.sha256()
        episodes = [episode.episode_id for episode in cli.read_corpus(tree, digest)]
        assert episodes == ["a", "a-b"]
        assert digest.hexdigest() == rglob_tree_digest(tree)

    def test_corpus_of_one_episode_at_its_root(self, tmp_path):
        root = tmp_path / "one"
        manifest.write_episode(tiny_episode(), root)
        (root / "sub").mkdir()
        (root / "sub" / "notes").write_text("not a frame")
        digest = hashlib.sha256()
        assert [len(e) for e in cli.read_corpus(root, digest)] == [2]
        assert digest.hexdigest() == rglob_tree_digest(root)

    def test_corpus_root_given_as_the_working_directory(self, tmp_path, monkeypatch):
        manifest.write_episode(tiny_episode(), tmp_path)
        monkeypatch.chdir(tmp_path)
        assert [len(e) for e in cli.read_corpus(".", hashlib.sha256())] == [2]

    def test_extract_opens_each_file_once(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        assert run_cli("synth", "--out", corpus, *SMALL_SYNTH) == 0
        assert (corpus / "run_manifest.json").is_file()
        (corpus / "notes.txt").write_text("a stray file")
        (corpus / "extra" / "deeper").mkdir(parents=True)
        (corpus / "extra" / "deeper" / "blob.bin").write_bytes(bytes(range(256)))
        (corpus / "ep_000" / "README").write_text("a stray file in an episode")
        # an image stream no row names is a stray too
        shutil.copy(corpus / "ep_001" / "hand.pgm", corpus / "ep_001" / "hand_old.pgm")
        # one row names the frames stream by another path to the same file
        listing = corpus / "ep_001" / "manifest.csv"
        rows = listing.read_text().splitlines()
        rows[2] = rows[2].replace("frames.pgm", "./frames.pgm")
        listing.write_text("\n".join(rows) + "\n")
        # an episode's object stream sits in a shared directory
        (corpus / "shared").mkdir()
        (corpus / "ep_000" / "object.pgm").rename(corpus / "shared" / "object.pgm")
        listing = corpus / "ep_000" / "manifest.csv"
        listing.write_text(listing.read_text().replace("object.pgm", "../shared/object.pgm"))

        opened = collections.Counter()
        real_open = open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, Path)):
                opened[Path(file).resolve()] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        out = tmp_path / "out"
        assert run_cli("extract", "--manifest-dir", corpus, "--out", out) == 0
        monkeypatch.undo()

        # every stream is named by every row of its episode, yet opened once
        files = {p.resolve() for p in corpus.rglob("*") if p.is_file()}
        counts = {path: n for path, n in opened.items() if path in files}
        assert set(counts.values()) == {1}
        assert set(counts) == files - {(corpus / "run_manifest.json").resolve()}
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["inputs"][str(corpus)] == "sha256:" + rglob_tree_digest(corpus)


TRAIN_FAST = ("--epochs", 4, "--units", 8, "--patience", 0)


class TestTrainEval:
    @pytest.mark.parametrize("arch, seq_length", [("birnn", 1), ("lstm", 3)])
    def test_train_writes_artifacts_and_eval_reproduces(self, tmp_path, small_features,
                                                        arch, seq_length):
        run_dir = tmp_path / "run"
        assert run_cli(
            "train", "--features", small_features, "--out", run_dir,
            "--arch", arch, "--seq-length", seq_length, *TRAIN_FAST,
        ) == 0
        for name in ("checkpoint.json", "history.csv", "report.txt",
                     "report.json", "confusion.csv", "run_manifest.json"):
            assert (run_dir / name).exists(), name

        eval_dir = tmp_path / "eval"
        assert run_cli(
            "eval", "--features", small_features,
            "--checkpoint", run_dir / "checkpoint.json", "--out", eval_dir,
        ) == 0
        assert (run_dir / "report.txt").read_bytes() == (eval_dir / "report.txt").read_bytes()
        assert (run_dir / "confusion.csv").read_bytes() == (eval_dir / "confusion.csv").read_bytes()
        assert_manifest_lists_every_file(run_dir)
        assert_manifest_lists_every_file(eval_dir)

    def test_eval_without_recorded_split_uses_flag_defaults(self, tmp_path, small_features):
        run_dir = tmp_path / "run"
        assert run_cli("train", "--features", small_features, "--out", run_dir, "--arch", "mlp",
                       "--test-fraction", 0.5, "--seed", 3, *TRAIN_FAST) == 0
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        del doc["meta"]["split"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        assert run_cli("eval", "--features", small_features, "--checkpoint", bare,
                       "--out", tmp_path / "fallback") == 0
        assert run_cli("eval", "--features", small_features, "--out", tmp_path / "flags",
                       "--checkpoint", run_dir / "checkpoint.json",
                       "--test-fraction", 0.2, "--seed", 7) == 0
        fallback, flags = ((tmp_path / name / "confusion.csv").read_bytes()
                           for name in ("fallback", "flags"))
        assert fallback == flags
        # and not the split the checkpoint was trained with
        assert fallback != (run_dir / "confusion.csv").read_bytes()

    def test_train_reruns_are_hash_identical(self, tmp_path, small_features):
        digests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli(
                "train", "--features", small_features, "--out", out,
                "--arch", "mlp", *TRAIN_FAST,
            ) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]

    def test_train_eval_xval_never_call_np_unique(self, tmp_path, small_features, monkeypatch):
        # np.unique imports numpy.ma, about 15 ms of every process that calls it
        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", forbidden)
        run_dir = tmp_path / "run"
        assert run_cli("train", "--features", small_features, "--out", run_dir,
                       *TRAIN_FAST) == 0
        assert run_cli("eval", "--features", small_features, "--out", tmp_path / "eval",
                       "--checkpoint", run_dir / "checkpoint.json") == 0
        assert run_cli("xval", "--features", small_features, "--out", tmp_path / "xval",
                       "--k", 2, *TRAIN_FAST) == 0

    def test_negative_patience_is_usage_error(self, tmp_path, small_features, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "train", "--features", small_features, "--out", tmp_path / "o",
                "--patience", -2,
            )
        assert exc.value.code == 2
        assert "--patience" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag,value", [
        ("xval", "--dropout", "1.5"),
        ("train", "--lr", "0"),
        ("train", "--lr", "nan"),
        ("train", "--l2", "-1"),
        ("xval", "--k", "1"),
        ("train", "--seed", "-1"),
        ("ladder", "--seed", "-1"),
        ("train", "--hidden", "0"),
        ("train", "--hidden", "-4"),
        ("train", "--hidden", "0,5"),
        ("xval", "--hidden", ",,"),
    ])
    def test_config_rejected_flag_is_usage_error(
        self, tmp_path, small_features, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--features", small_features, "--out", tmp_path / "o", flag, value)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fraction", ["--test-fraction", "--val-fraction"])
    def test_missing_class_in_training_split_fails(self, tmp_path, small_features, capsys,
                                                   fraction):
        # push the lone sample of a rare class into the test split, or into the
        # validation rows carved out of the training split
        text = small_features.read_text().splitlines()
        header, rows = text[0], text[1:]
        keep = [r for r in rows if ",grabbing," not in r][: len(rows)]
        one_grab = [r for r in rows if ",grabbing," in r][:1]
        small = tmp_path / "tiny.csv"
        small.write_text("\n".join([header] + keep + one_grab) + "\n")
        code = run_cli(
            "train", "--features", small, "--out", tmp_path / "o",
            "--arch", "mlp", fraction, 0.6, *TRAIN_FAST,
        )
        assert code == 1
        assert "class absent from training split: grabbing" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path, small_features):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=3\nunits=4\n# comment\n")
        out1 = tmp_path / "c1"
        assert run_cli(
            "train", "--features", small_features, "--out", out1,
            "--arch", "birnn", "--config", config, "--patience", 0,
        ) == 0
        snap1 = json.loads((out1 / "run_manifest.json").read_text())["config"]
        assert snap1["epochs"] == 3 and snap1["units"] == 4

        out2 = tmp_path / "c2"
        assert run_cli(
            "train", "--features", small_features, "--out", out2,
            "--arch", "birnn", "--config", config, "--epochs", 2, "--patience", 0,
        ) == 0
        snap2 = json.loads((out2 / "run_manifest.json").read_text())["config"]
        assert snap2["epochs"] == 2 and snap2["units"] == 4

    def test_config_switch_line(self, tmp_path, small_features):
        config = tmp_path / "switch.cfg"
        config.write_text("no_standardize\nepochs=1\n")
        out = tmp_path / "sw"
        assert run_cli(
            "train", "--features", small_features, "--out", out,
            "--arch", "mlp", "--config", config,
        ) == 0
        snap = json.loads((out / "run_manifest.json").read_text())["config"]
        assert snap["no_standardize"] is True and snap["epochs"] == 1
        assert json.loads((out / "checkpoint.json").read_text())["standardization"] is None

    def test_config_bad_choice_is_usage_error(self, tmp_path, small_features, capsys):
        config = tmp_path / "choice.cfg"
        config.write_text("batchnorm=maybe\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "train", "--features", small_features, "--out", tmp_path / "o",
                "--config", config,
            )
        assert exc.value.code == 2
        assert "invalid choice: 'maybe'" in capsys.readouterr().err

    def test_non_utf8_config_names_file_and_line(self, tmp_path, small_features, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs=1\nunits=\xff4\n")
        code = run_cli(
            "train", "--features", small_features, "--out", tmp_path / "o",
            "--config", config,
        )
        assert code == 1
        assert f"error: {config}:2: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_unknown_config_key_fails(self, tmp_path, small_features, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_speed=9\n")
        code = run_cli(
            "train", "--features", small_features, "--out", tmp_path / "o",
            "--config", config,
        )
        assert code == 1
        assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("config,field", [
    (PipelineConfig, "sharpness_threshold"),
    (PipelineConfig, "diff_threshold"),
    (PipelineConfig, "contact_epsilon"),
    (ScenarioConfig, "approach_speed"),
    (ScenarioConfig, "jitter_sigma"),
    (ScenarioConfig, "contact_epsilon"),
    (ScenarioConfig, "noise_flip_prob"),
    (TrainConfig, "learning_rate"),
    (ModelSpec, "l2_lambda"),
    (ModelSpec, "dropout_p"),
])
def test_config_field_refuses_nan(config, field):
    # NaN fails every comparison, so each bound must be written to fail
    # when its comparison does, as the ``_checked`` flag types are
    config()
    with pytest.raises(ValueError):
        config(**{field: float("nan")})


FRESH_INTERPRETER_RUN = """
import contextlib, gc, io, json, sys
import handstates.cli as cli
report, runs = sys.argv[1], json.loads(sys.argv[2])
seen = {"import": list(sys.modules),
        "hooks": [name for name in ("train", "kfold_validate", "random_search")
                  if callable(getattr(cli, name, None))],
        "runs": []}
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen["runs"].append({"modules": list(sys.modules), "frozen": gc.get_freeze_count()})
    keep = [[] for _ in range(1000)]  # a second freeze would take these in
with open(report, "w") as fh:
    json.dump(seen, fh)
"""


def run_in_fresh_interpreter(report, *runs):
    """What a new interpreter holds after ``import handstates.cli`` and after
    each ``cli.main(argv)`` of ``runs``, called in turn; ``report`` is the
    file it writes that to."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argvs = [[str(arg) for arg in argv] for argv in runs]
    subprocess.run(
        [sys.executable, "-c", FRESH_INTERPRETER_RUN, str(report), json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    return json.loads(Path(report).read_text())


def model_stack(modules):
    return {m for m in modules if m.startswith(("handstates.nn", "handstates.metrics"))}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, small_corpus, small_features):
    train_out = tmp_path / "train"
    commands = {
        # name: the argvs run in its interpreter, the command's first
        "synth": [["synth", "--out", tmp_path / "synth", *SMALL_SYNTH]],
        "extract": [["extract", "--manifest-dir", small_corpus, "--out", tmp_path / "x"]],
        # a second main call, one that loads manifest and pgm, freezes nothing more
        "train": [["train", "--features", small_features, "--out", train_out, "--epochs", 1],
                  ["extract", "--manifest-dir", small_corpus, "--out", tmp_path / "x2"]],
        "eval": [["eval", "--features", small_features, "--out", tmp_path / "eval",
                  "--checkpoint", train_out / "checkpoint.json"]],
        "xval": [["xval", "--features", small_features, "--out", tmp_path / "xval",
                  "--arch", "mlp", "--k", 2, "--epochs", 1]],
    }
    seen = {name: run_in_fresh_interpreter(tmp_path / f"{name}.json", *argvs)
            for name, argvs in commands.items()}
    loaded = {name: {m for m in run["runs"][0]["modules"] if m.startswith("handstates.")}
              for name, run in seen.items()}

    # importing the CLI loads neither the model stack nor the corpus modules,
    # yet the two nn entry points a tracer wraps are already there, and no
    # unwrapped third one (``_search`` imports ``random_search`` from nn)
    corpus_modules = {"handstates.synth", "handstates.manifest", "handstates.pgm"}
    for run in seen.values():
        assert not model_stack(run["import"])
        assert not corpus_modules & set(run["import"])
        assert run["hooks"] == ["train", "kfold_validate"]
    assert not model_stack(loaded["synth"]) | model_stack(loaded["extract"])
    assert "handstates.manifest" in loaded["extract"]
    assert "handstates.synth" not in loaded["extract"]
    for name in ("train", "eval", "xval"):
        assert "handstates.metrics" in loaded[name]
        assert not {"handstates.synth", "handstates.manifest"} & loaded[name]
    # each model command loads the nn modules it runs, and none the gradient check
    assert "handstates.nn.checkpoint" in loaded["eval"]
    assert not {f"handstates.nn.{name}" for name in ("train", "optim", "search")} & loaded["eval"]
    assert "handstates.nn.train" in loaded["train"]
    assert "handstates.nn.search" not in loaded["train"]
    assert "handstates.nn.search" in loaded["xval"]
    assert not any("handstates.nn.gradcheck" in modules for modules in loaded.values())
    # the heap is frozen after parsing, so a model command's freeze takes in
    # the nn modules its flags loaded; and only the first main call freezes
    first, again = seen["train"]["runs"]
    assert first["frozen"] > seen["extract"]["runs"][0]["frozen"] > 0
    assert 0 < again["frozen"] <= first["frozen"]


PARSER_PARITY = {
    # subcommand: (its required flags, a config file setting two flags)
    "synth": ((), "episodes=3\nmask_noise=0.1\n"),
    "extract": (("--manifest-dir", "corpus"), "window=4\nstride=2\n"),
    "train": (("--features", "f.csv"), "epochs=3\nno_standardize\n"),
    "eval": (("--features", "f.csv", "--checkpoint", "c.json"), "test_fraction=0.3\nseed=4\n"),
    "search": (("--features", "f.csv"), "budget=2\npatience=0\n"),
    "xval": (("--features", "f.csv"), "k=3\narch=mlp\n"),
    "ladder": (("--features", "f.csv"), "seeds=2\nval_fraction=0.25\n"),
}


class TestParser:
    @pytest.mark.parametrize("command", PARSER_PARITY)
    def test_one_command_parser_parses_as_the_full_parser(self, tmp_path, monkeypatch,
                                                          command):
        flags, config = PARSER_PARITY[command]
        (tmp_path / "run.cfg").write_text(config)
        minimal = [command, "--out", str(tmp_path / "o"), *flags]
        argvs = (minimal, minimal + ["--config", str(tmp_path / "run.cfg")])
        one = [cli._parse_args(argv) for argv in argvs]
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command: build_parser())
        assert [cli._parse_args(argv) for argv in argvs] == one
        assert one[0].func is cli.COMMANDS[command][2]
        changed = {k for k, v in vars(one[1]).items() if vars(one[0])[k] != v}
        assert changed == {"config", *(line.partition("=")[0] for line in config.split())}

    @pytest.mark.parametrize("command", ["train", "xval"])
    def test_defaults_come_from_the_dataclasses(self, command):
        args = cli._parse_args([command, "--features", "f.csv", "--out", "o"])
        assert cli._spec_from_args(args) == ModelSpec()
        assert cli._train_cfg_from_args(args) == TrainConfig(seed=cli.SEED)

    def test_choices_come_from_the_library(self):
        [subparsers] = (action for action in cli.build_parser("train")._actions
                        if isinstance(action, argparse._SubParsersAction))
        flags = {action.dest: action for action in subparsers.choices["train"]._actions}
        assert flags["arch"].choices == KINDS
        assert flags["class_weight"].choices == CLASS_WEIGHTINGS

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in PARSER_PARITY:
            assert f"    {command} " in out

    def test_unknown_subcommand_exits_2_before_out_exists(self, tmp_path):
        # a bad flag value under the one-command parser: each
        # test_rejected_flag_is_usage_error
        with pytest.raises(SystemExit) as exc:
            run_cli("bogus", "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()


def history_csv_as_first_written(history):
    """``history.csv`` as its first writer in ``nn.train`` wrote it."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
    for row in history:
        writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["train_acc"]),
                         repr(row["val_loss"]), repr(row["val_acc"])])
    return fh.getvalue().encode()


def trials_csv_as_first_written(trials):
    """``trials.csv`` as its first writer in ``cli`` wrote it."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["trial", "status", "rnn_units", "rnn_layers", "dropout_p",
                     "learning_rate", "batch_size", "val_acc", "val_loss"])
    for t in trials:
        writer.writerow([t.index, t.status, t.spec.rnn_units, t.spec.rnn_layers,
                         repr(t.spec.dropout_p), repr(t.cfg.learning_rate),
                         t.cfg.batch_size, repr(t.val_acc), repr(t.val_loss)])
    return fh.getvalue().encode()


def xval_csv_as_first_written(rows):
    """``xval.csv`` as ``cli._xval`` wrote it, with the mean and std that
    ``kfold_validate`` summed the folds up with."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    scores = ("accuracy", "weighted_f1", "grabbing_f1")
    writer.writerow(["fold", *scores])
    for row in rows:
        writer.writerow([row["fold"]] + [repr(row[key]) for key in scores])
    for stat in ("mean", "std"):
        writer.writerow(
            [stat] + [repr(float(getattr(np.array([r[key] for r in rows]), stat)()))
                      for key in scores]
        )
    return fh.getvalue().encode()


class TestTableBytes:
    """Every table ``_write_rows`` writes has the bytes of the writer it
    replaced, computed here from the rows the writer was given."""

    @staticmethod
    def capture(monkeypatch, name, module=cli):
        results = []
        original = getattr(module, name)

        def recording(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(module, name, recording)
        return results

    def test_history_csv(self, tmp_path, small_features, monkeypatch):
        runs = self.capture(monkeypatch, "train")
        out = tmp_path / "train"
        assert run_cli("train", "--features", small_features, "--out", out, *TRAIN_FAST) == 0
        [(_, history)] = runs
        assert (out / "history.csv").read_bytes() == history_csv_as_first_written(history)

    def test_trials_csv(self, tmp_path, small_features, monkeypatch):
        searches = self.capture(monkeypatch, "random_search", search)
        out = tmp_path / "search"
        assert run_cli("search", "--features", small_features, "--out", out,
                       "--budget", 2, "--epochs", 3, "--patience", 0) == 0
        [(_, trials)] = searches
        assert (out / "trials.csv").read_bytes() == trials_csv_as_first_written(trials)

    def test_xval_csv(self, tmp_path, small_features, monkeypatch):
        validations = self.capture(monkeypatch, "kfold_validate")
        out = tmp_path / "xval"
        assert run_cli("xval", "--features", small_features, "--out", out,
                       "--arch", "mlp", "--k", 2, *TRAIN_FAST) == 0
        [rows] = validations
        assert [row["fold"] for row in rows] == [0, 1]
        assert (out / "xval.csv").read_bytes() == xval_csv_as_first_written(rows)


class TestSearchCli:
    def test_budget_one_and_determinism(self, tmp_path, small_features):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run_cli(
                "search", "--features", small_features, "--out", out,
                "--budget", 2, "--epochs", 3, "--patience", 0,
            ) == 0
            outs.append(out)
        t1 = (outs[0] / "trials.csv").read_bytes()
        t2 = (outs[1] / "trials.csv").read_bytes()
        assert t1 == t2
        rows = t1.decode().strip().splitlines()
        assert len(rows) == 3  # header + 2 trials
        accs = [float(r.split(",")[7]) for r in rows[1:]]
        winner = json.loads((outs[0] / "checkpoint.json").read_text())
        assert winner["meta"]["val_acc"] == max(accs)
        assert_manifest_lists_every_file(outs[0])


class TestMalformedFeatures:
    """A feature CSV that does not parse or holds a non-finite value stops
    the subcommand, naming the file and the line."""

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (1, "inf", "std_dist is inf, not finite"),
            (0, "nan", "mean_dist is nan, not finite"),
            (8, "flying", "unknown class label 'flying'"),
            # an episode_id over the csv module's field size limit
            (9, "e" * 200_000, "field larger than field limit"),
        ],
        ids=["inf", "nan", "label", "oversized"],
    )
    def test_train_names_file_and_line(self, tmp_path, small_features, capsys, column, value,
                                       message):
        lines = small_features.read_text().splitlines()
        cells = lines[6].split(",")
        cells[column] = value
        lines[6] = ",".join(cells)
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli("train", "--features", bad, "--out", tmp_path / "o", *TRAIN_FAST) == 1
        assert f"error: {bad}:7: {message}" in capsys.readouterr().err

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, small_features, capsys):
        data = small_features.read_bytes().split(b"\n")
        data[6] = b"\xff" + data[6]
        bad = tmp_path / "features.csv"
        bad.write_bytes(b"\n".join(data))
        assert run_cli("train", "--features", bad, "--out", tmp_path / "o", *TRAIN_FAST) == 1
        assert f"error: {bad}:7: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_sequences_refuse_reversed_rows(self, tmp_path, small_features, capsys):
        lines = small_features.read_text().splitlines()
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        argv = ("--out", tmp_path / "o", "--arch", "lstm", "--seq-length", 3, "--k", 2,
                *TRAIN_FAST)
        assert run_cli("xval", "--features", reversed_csv, *argv) == 1
        assert "episode ep_001: target_index" in capsys.readouterr().err
        # a row model takes the rows in any order
        assert run_cli("xval", "--features", reversed_csv, "--out", tmp_path / "rows",
                       "--arch", "mlp", "--k", 2, *TRAIN_FAST) == 0


class TestXvalCli:
    def test_writes_per_fold_rows(self, tmp_path, small_features):
        out = tmp_path / "xv"
        assert run_cli(
            "xval", "--features", small_features, "--out", out,
            "--arch", "mlp", "--k", 2, *TRAIN_FAST,
        ) == 0
        rows = (out / "xval.csv").read_text().strip().splitlines()
        assert rows[0] == "fold,accuracy,weighted_f1,grabbing_f1"
        assert len(rows) == 5  # 2 folds + mean + std
        assert rows[3].startswith("mean,")
        assert_manifest_lists_every_file(out)


class TestWorkerPoolCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ("xval", "--arch", "birnn", "--seq-length", 2, "--units", 8, "--k", 2,
             "--epochs", 2, "--patience", 0),
            ("search", "--budget", 3, "--epochs", 2, "--patience", 0),
        ],
        ids=["xval", "search"],
    )
    def test_one_and_two_workers_write_identical_trees(self, tmp_path, small_features,
                                                       monkeypatch, argv):
        digests = []
        for workers in (1, 2):
            monkeypatch.setattr(search, "pool_size", lambda tasks: min(tasks, workers))
            out = tmp_path / f"w{workers}"
            assert run_cli(argv[0], "--features", small_features, "--out", out, *argv[1:]) == 0
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def numpy_blas():
    """NumPy's loaded BLAS, opened as ``cli.pin_blas_threads`` opens it."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)


class TestBlasThreads:
    def test_cli_pins_blas_to_one_thread_and_records_it(self, tmp_path, small_features):
        lib = numpy_blas()
        library, set_threads, get_threads = next(
            entry for entry in cli.BLAS_THREADS if hasattr(lib, entry[1]))
        getattr(lib, set_threads)(2)
        out = tmp_path / "t"
        assert run_cli("train", "--features", small_features, "--out", out,
                       "--epochs", 1) == 0
        assert getattr(lib, get_threads)() == 1
        blas = json.loads((out / "run_manifest.json").read_text())["blas"]
        assert blas == {"pinned": True, "library": library, "threads": 1}

    def test_unknown_blas_is_left_as_it_is_and_the_manifest_says_why(
            self, tmp_path, small_features, monkeypatch):
        monkeypatch.setattr(cli, "BLAS_THREADS", (("none", "no_such_set", "no_such_get"),))
        out = tmp_path / "t"
        assert run_cli("train", "--features", small_features, "--out", out,
                       "--epochs", 1) == 0
        assert (out / "checkpoint.json").is_file()
        blas = json.loads((out / "run_manifest.json").read_text())["blas"]
        assert blas == {"pinned": False,
                        "reason": "NumPy's BLAS has no known set-threads entry point"}

    def test_search_bits_do_not_depend_on_the_blas_environment(self, tmp_path,
                                                               small_features):
        # a wide trial's matmuls split across two BLAS threads give other bits
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        outs = []
        for name, blas in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            subprocess.run(
                [sys.executable, "-m", "handstates.cli", "search", "--features",
                 str(small_features), "--out", str(out), "--budget", "1", "--epochs", "1"],
                env={**base, **blas, "PYTHONPATH": path}, capture_output=True, check=True,
            )
            outs.append(out)
        for name in ("trials.csv", "checkpoint.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestLadderCli:
    def test_failed_row_keeps_summary_and_manifest(self, tmp_path, small_features, capsys):
        # small_features has 4 windows of one class, too few for model 3's 5 folds
        out = tmp_path / "ladder"
        code = run_cli(
            "ladder", "--features", small_features, "--out", out,
            "--epochs", 1, "--budget", 1, "--patience", 0,
        )
        assert code == 1
        with open(out / "ladder_summary.csv", newline="") as fh:
            rows = {row["model"]: row for row in csv.DictReader(fh)}
        assert len(rows) == 8
        scores = ("accuracy", "weighted_f1", "grabbing_f1")
        assert [rows["3"][k] for k in scores] == ["failed"] * 3
        assert all(0.0 <= float(rows["1"][k]) <= 1.0 for k in scores)
        assert "model 3" in capsys.readouterr().err
        assert (out / "run_manifest.json").exists()


@pytest.fixture(scope="module")
def ladder_run(tmp_path_factory):
    """A one-epoch ladder on a 2-episode corpus with the default phases."""
    root = tmp_path_factory.mktemp("ladder")
    assert run_cli("synth", "--out", root / "corpus", "--episodes", 2, "--seed", 3) == 0
    assert run_cli("extract", "--manifest-dir", root / "corpus", "--out", root / "data") == 0
    out = root / "ladder"
    assert run_cli(
        "ladder", "--features", root / "data" / "features.csv", "--out", out,
        "--epochs", 1, "--budget", 1, "--patience", 0,
    ) == 0
    return out


class TestLadderOutputs:
    def test_manifest_lists_every_row_file(self, ladder_run):
        assert_manifest_lists_every_file(ladder_run)

    def test_kfold_rows_write_xval_csv(self, ladder_run):
        with open(ladder_run / "ladder_summary.csv", newline="") as fh:
            summary = {row["model"]: row for row in csv.DictReader(fh)}
        for number in ("3", "6"):
            with open(ladder_run / f"model_{number}" / "xval.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [row["fold"] for row in rows] == ["0", "1", "2", "3", "4", "mean", "std"]
            mean = rows[5]
            for score in ("accuracy", "weighted_f1", "grabbing_f1"):
                assert f"{float(mean[score]):.6f}" == summary[number][score]

    def test_default_is_one_seed_in_the_top_directory(self, ladder_run):
        names = sorted(p.name for p in ladder_run.iterdir())
        assert names == ["ladder_summary.csv"] + [f"model_{k}" for k in range(1, 9)] + [
            "run_manifest.json"]

    def test_seeds_run_the_ladder_at_each_seed_and_average_it(self, ladder_run):
        out = ladder_run.parent / "seeds"
        assert run_cli(
            "ladder", "--features", ladder_run.parent / "data" / "features.csv", "--out", out,
            "--epochs", 1, "--budget", 1, "--patience", 0, "--seeds", 2,
        ) == 0
        # the first seed is the default --seed 7, so its tree is the one-seed run's
        assert tree_digest(out / "seed_7") == tree_digest(ladder_run)
        runs = []
        for seed in (7, 8):
            with open(out / f"seed_{seed}" / "ladder_summary.csv", newline="") as fh:
                runs.append(list(csv.DictReader(fh)))
        with open(out / "ladder_seeds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["model"] for row in rows] == [str(k) for k in range(1, 9)]
        for k, row in enumerate(rows):
            assert row["seeds"] == "2"
            for score in ("accuracy", "weighted_f1", "grabbing_f1"):
                values = [float(run[k][score]) for run in runs]
                # the summaries round each seed's score to 6 decimals
                assert abs(float(row[f"{score}_mean"]) - statistics.fmean(values)) <= 1e-6
                assert abs(float(row[f"{score}_std"]) - statistics.pstdev(values)) <= 1e-6
        assert_manifest_lists_every_file(out)
