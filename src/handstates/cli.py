"""Command-line orchestration for the full pipeline and the experiment ladder.

Subcommands: ``synth`` (scripted corpus), ``extract`` (features CSV),
``train`` / ``eval`` (single model + report), ``search`` (random
hyperparameter search), ``xval`` (stratified k-fold) and ``ladder`` (the
eight-model comparison). Every subcommand is reproducible from its inputs,
flags and seed.

``main`` owns every run: it parses the subcommand's flags, freezes the
import-time heap, pins BLAS to one thread, creates ``--out``, runs the
subcommand, which returns the files it wrote, hashes the input files the
subcommand names (``--features``, ``--checkpoint``) and writes one atomic
``run_manifest.json``. ``extract`` hashes its ``--manifest-dir`` corpus
itself, as it reads it.

A process pays for what it imports and builds before its own work, so the
parser gets the flags of the named subcommand only, and each module is
imported by the subcommands that run it: ``synth`` by ``synth``,
``manifest`` (with ``pgm``) by the two that write or read a corpus, and
``handstates.nn`` and ``metrics`` by the five model commands, whose flags
take their defaults from ``nn``'s dataclasses. Each is called through its
module, so that a function wrapped on the module is the one called. The
model commands call two ``nn`` functions through names of this module
instead, ``train`` and ``kfold_validate``, so that a caller can wrap them
here, where the commands look them up, before any of ``nn`` is loaded; each
imports its ``nn`` function on first call.

``train``, ``xval`` and ``search`` each run one protocol step, ``_fit``,
``_xval`` or ``_search``, with the signature ``step(args, spec, cfg, ds,
out) -> ((accuracy, weighted F1, grabbing F1), files written)``. Each
ladder row is one call of its protocol's step into ``model_N/``, so a row
writes what its subcommand writes and the ladder's manifest lists the
files of every row. ``ladder --seeds N`` runs the whole plan at N seeds,
each into ``seed_S/``, and sums them up as the mean and std of each row's
scores in ``ladder_seeds.csv``.

Scores are the triple ``SCORES``. Every table the CLI writes,
``history.csv``, ``trials.csv``, ``xval.csv`` and the two ladder
summaries, goes through ``_write_rows``; the folds of ``xval.csv`` and the
seeds of ``ladder_seeds.csv`` are summed up by ``_mean_std``.

Flag precedence: explicit flags > ``--config`` file > built-in defaults. A
config line ``key=value`` is the flag ``--key=value`` and a bare ``key`` is
the switch ``--key``; they are parsed with the subcommand's own flags, ahead
of the explicit ones, which therefore win.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import gc
import hashlib
import json
import os
import sys
import time
from collections.abc import Iterator
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .features import (
    CLASS_NAMES,
    NUM_CLASSES,
    ClassLabel,
    Episode,
    LabeledDataset,
    PipelineConfig,
    build_dataset,
    decode_utf8,
    keyframe_indices,
    load_dataset_csv,
    save_dataset_csv,
    sequence_dataset,
    slide_windows,
    stratified_folds,
    stratified_split_indices,
    windows,
    write_csv,
)

if TYPE_CHECKING:
    from .nn.model import ModelSpec
    from .nn.train import TrainConfig

RUN_MANIFEST = "run_manifest.json"
THROUGH_SYMLINK = ("read through a symlinked directory, which the input digest does not enter; "
                   "copy it into the corpus")
SEED = 7  # the --seed default, and eval's split seed for a checkpoint that records none
TEST_FRACTION = 0.2  # the --test-fraction default, and eval's likewise
FOLDS = 5  # xval's default --k and the ladder's k-fold rows
# (library, set-threads, get-threads) entry points of the BLAS NumPy links: its
# 2.x wheels, its 1.x wheels, and builds against a system OpenBLAS
BLAS_THREADS = (
    ("scipy-openblas64", "scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas64_", "openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas", "openblas_set_num_threads", "openblas_get_num_threads"),
)


# ---------------------------------------------------------------------------
# small utilities


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the text, then require ``ok`` of the
    value, so a bad value is a usage error that names its flag."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):  # NaN fails every float bound
            raise argparse.ArgumentTypeError(f"must {requirement}")
        return value

    parse.__name__ = convert.__name__  # argparse: "invalid float value: 'x'"
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "be a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "be a non-negative integer")
_fold_count = _checked(int, lambda v: v >= 2, "be an integer >= 2")
_window = _checked(int, lambda v: v >= 3, "be an integer >= 3")
_positive_float = _checked(float, lambda v: v > 0.0, "be > 0")
_non_negative_float = _checked(float, lambda v: v >= 0.0, "be >= 0")
_fraction = _checked(float, lambda v: 0.0 < v < 1.0, "lie strictly between 0 and 1")
_dropout = _checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
_flip_prob = _checked(float, lambda v: 0.0 <= v < 0.5, "lie in [0, 0.5)")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


_widths = _checked(_int_list, lambda v: len(v) >= 1 and min(v) >= 1,
                   "be one or more integers >= 1")


def _rect(text: str) -> tuple[int, int, int, int]:
    rect = _int_list(text)
    if len(rect) != 4:
        raise argparse.ArgumentTypeError(f"must look like x0,y0,width,height, got {text!r}")
    x0, y0, w, h = rect
    if min(x0, y0) < 0 or min(w, h) < 1:
        raise argparse.ArgumentTypeError(
            f"must have x0, y0 >= 0 and width, height >= 1, got {text!r}")
    return rect


def _canvas(text: str) -> tuple[int, int]:
    try:
        w, h = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"canvas must look like 128x96, got {text!r}")
    if min(w, h) < 1:
        raise argparse.ArgumentTypeError(f"canvas must have width and height >= 1, got {text!r}")
    return w, h


def sha256_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_corpus(root, digest) -> Iterator[Episode]:
    """The episodes of the corpus at ``root``, read one at a time as they
    are consumed; a corpus ``manifest.find_manifests`` refuses raises at
    call time, and an episode that names a file outside ``root`` when it is
    read.

    The corpus is walked once, before the first episode is read, in
    ``sorted(root.rglob("*"))`` order, bar run manifests (they hold a wall
    time and an output path); the walk does not enter symlinked directories.
    An episode that read a file the walk did not find raises a ValueError
    naming the file before it is yielded. When the episodes run out,
    ``digest`` (a hashlib object) has taken in the corpus's input digest:
    each walked file's relative path and the hex sha256 of its bytes, taken
    by the episode reader for the files it read, here for the rest.
    """
    from . import manifest

    root = Path(root)
    return _read_and_hash(root, manifest.find_manifests(root), digest)


def _read_and_hash(root: Path, manifests: list[Path], digest) -> Iterator[Episode]:
    from . import manifest

    walked = {str(path.relative_to(root)): path for path in sorted(root.rglob("*"))
              if path.is_file() and path.name != RUN_MANIFEST}
    # digests of the files the episodes read, by path below the root; each
    # episode is dropped once it is consumed, before the next one is read
    read: dict[str, str] = {}
    for path in manifests:
        episode = manifest.read_episode(path, root)
        if unwalked := [rel for rel in episode.file_digests if rel not in walked]:
            raise ValueError(f"{root / unwalked[0]}: {THROUGH_SYMLINK}")
        read.update(episode.file_digests)
        yield episode
        del episode
    for rel, path in walked.items():
        digest.update(rel.encode())
        digest.update((read.pop(rel, None) or sha256_file(path)).encode())


SCORES = ("accuracy", "weighted_f1", "grabbing_f1")
HISTORY_COLUMNS = ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
TRIAL_COLUMNS = ["trial", "status", "rnn_units", "rnn_layers", "dropout_p",
                 "learning_rate", "batch_size", "val_acc", "val_loss"]


def _write_rows(path: Path, columns: list[str], rows: list[dict]) -> None:
    """Write ``rows``, dicts, as a CSV table of the ``columns``. Each value is
    written as its ``str``, which for a Python float is its ``repr``: the
    shortest text that reads back as the same float."""
    write_csv(path, columns, ([row[column] for column in columns] for row in rows))


def _mean_std(score_rows) -> tuple[list[float], list[float]]:
    """The per-column means and population stds of rows of scores, in
    ``SCORES`` order, as Python floats."""
    columns = [np.array(column) for column in zip(*score_rows)]
    return [float(c.mean()) for c in columns], [float(c.std()) for c in columns]


def atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def pin_blas_threads() -> dict:
    """Set NumPy's BLAS to one thread; returns the run manifest's ``blas`` entry.

    A matmul's bits depend on how BLAS splits it across threads, so every run
    computes on one thread per process, which forked workers inherit. NumPy's
    linear-algebra module is opened with ``RTLD_NOLOAD``, so no second BLAS is
    loaded; without a known entry point, BLAS is left as it is."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except (AttributeError, OSError) as exc:
        return {"pinned": False, "reason": f"cannot open NumPy's BLAS: {exc}"}
    for library, set_name, get_name in BLAS_THREADS:
        if hasattr(lib, set_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(1)
            return {"pinned": True, "library": library, "threads": get_threads()}
    return {"pinned": False, "reason": "NumPy's BLAS has no known set-threads entry point"}


def write_run_manifest(
    out_dir: Path,
    args: argparse.Namespace,
    inputs: dict[str, str],
    outputs: list[Path],
    started: float,
    blas: dict,
) -> None:
    doc = {
        "blas": blas,
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": inputs,
        "outputs": {str(p): f"sha256:{sha256_file(p)}" for p in outputs},
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.time() - started, 3),
        "version": __version__,
    }
    atomic_write_text(out_dir / RUN_MANIFEST, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def config_flags(path: str) -> dict[str, str]:
    """The flags of a config file, each mapped to its key as written.

    ``key=value`` becomes ``--key=value`` and a bare ``key`` the switch
    ``--key``; '#' starts a comment; keys may use '-' or '_'. A file that
    is not UTF-8 raises a ValueError naming it and its line.
    """
    flags: dict[str, str] = {}
    for raw in decode_utf8(Path(path).read_bytes(), path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, sep, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            flags[f"{flag}={value}" if sep else flag] = key
    return flags


# ---------------------------------------------------------------------------
# the two nn functions the model commands call through this module (see
# the module docstring)


def train(*args, **kwargs):
    """``nn.train.train``."""
    from .nn.train import train

    return train(*args, **kwargs)


def kfold_validate(*args, **kwargs):
    """``nn.search.kfold_validate``."""
    from .nn.search import kfold_validate

    return kfold_validate(*args, **kwargs)


# ---------------------------------------------------------------------------
# shared dataset plumbing


def _load_features(path: str) -> LabeledDataset:
    ds = load_dataset_csv(path)
    if len(ds) == 0:
        raise ValueError(f"{path}: feature CSV contains no rows")
    return ds


def _split_meta(args: argparse.Namespace) -> dict:
    return {"test_fraction": args.test_fraction, "val_fraction": args.val_fraction,
            "seed": args.seed}


def _split_for_training(ds: LabeledDataset, seq_length: int, args: argparse.Namespace):
    """(train, val, test) target rows of the samples of ``ds`` via nested
    stratified splits; refuses any class that the train samples lack."""
    targets, y = sequence_dataset(ds, seq_length)
    train_idx, test_idx = stratified_split_indices(y, args.test_fraction, args.seed)
    inner_train, inner_val = stratified_split_indices(y[train_idx], args.val_fraction, args.seed + 1)
    tr, va = train_idx[inner_train], train_idx[inner_val]
    counts = np.bincount(y)
    missing = np.flatnonzero((counts > 0) & (np.bincount(y[tr], minlength=counts.size) == 0))
    if missing.size:
        names = ", ".join(CLASS_NAMES[c] for c in missing)
        raise ValueError(f"class absent from training split: {names}")
    return targets[tr], targets[va], targets[test_idx]


def _spec_from_args(args: argparse.Namespace) -> ModelSpec:
    from .nn.model import ModelSpec

    batchnorm = {"auto": None, "on": True, "off": False}[args.batchnorm]
    return ModelSpec(
        kind=args.arch,
        hidden=tuple(args.hidden),
        rnn_units=args.units,
        rnn_layers=args.layers,
        seq_length=args.seq_length if args.arch != "mlp" else 1,
        dropout_p=args.dropout,
        l2_lambda=args.l2,
        use_batchnorm=batchnorm,
    )


def _train_cfg(args: argparse.Namespace, **overrides) -> TrainConfig:
    """The fit flags as a TrainConfig."""
    from .nn.train import TrainConfig

    return TrainConfig(epochs=args.epochs, early_stop_patience=args.patience, **overrides)


def _train_cfg_from_args(args: argparse.Namespace) -> TrainConfig:
    return _train_cfg(
        args,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        class_weighting=args.class_weight,
        standardize_features=not args.no_standardize,
    )


def _evaluate(ckpt, ds, rows, out: Path) -> tuple[tuple[float, float, float], list[Path]]:
    """Score a checkpoint on the samples of the target ``rows`` of ``ds``, write
    the report files; returns (accuracy, weighted F1, grabbing F1) and files."""
    from . import metrics
    from .nn import checkpoint as ckpt_mod

    _, preds = ckpt_mod.predict(ckpt, windows(ds.features, ckpt.spec.seq_length)[rows])
    cm = metrics.confusion_matrix(ds.labels[rows], preds, NUM_CLASSES)
    report = metrics.classification_report(cm)
    files = metrics.write_report_files(report, list(CLASS_NAMES), out)
    metrics.write_confusion_csv(cm, list(CLASS_NAMES), out / "confusion.csv")
    scores = report.accuracy, report.weighted_f1, float(report.f1[ClassLabel.GRABBING])
    return scores, files + [out / "confusion.csv"]


# ---------------------------------------------------------------------------
# subcommands: each takes (args, out, inputs) and returns (files written,
# failures); one that hashes an input as it reads it records the digest in
# ``inputs``


def cmd_synth(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    from . import manifest, synth

    # episodes already there would be read by extract as part of this corpus
    if any(out.iterdir()):
        raise ValueError(f"{out}: --out already holds files; synth writes into a new "
                         "or empty directory")
    phases = dataclasses.fields(synth.PhaseDurations)
    durations = synth.PhaseDurations(**{phase.name: getattr(args, phase.name) for phase in phases})
    cfg = synth.ScenarioConfig(
        canvas=args.canvas,
        object_rect=tuple(args.object_rect),
        hand_radius=args.hand_radius,
        durations=durations,
        approach_speed=args.approach_speed,
        jitter_sigma=args.jitter,
        noise_flip_prob=args.mask_noise,
        contact_epsilon=args.epsilon,
    )
    pipeline = PipelineConfig()
    manifest_paths = []
    histogram = collections.Counter()
    # each episode is written and counted as it is made, then dropped before
    # the next one is rendered; a window's label needs only the keyframe
    # indices, not their signals
    for episode in synth.generate_corpus(cfg, args.episodes, args.seed):
        manifest_paths.append(manifest.write_episode(episode, out / episode.episode_id))
        keyframes = keyframe_indices(episode, pipeline)
        histogram.update(
            episode.labels[keyframes[t]] for t in slide_windows(len(keyframes), pipeline)
        )
        del episode
    print(f"wrote {len(manifest_paths)} episodes to {out}")
    print("window-label histogram:")
    for c, name in enumerate(CLASS_NAMES):
        print(f"  {name}: {histogram.get(c, 0)}")
    return manifest_paths, []


def cmd_extract(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    cfg = PipelineConfig(
        sharpness_threshold=args.tau_sharp,
        diff_threshold=args.tau_diff,
        window_length=args.window,
        stride=args.stride,
        contact_epsilon=args.epsilon,
    )
    corpus = hashlib.sha256()
    dataset = build_dataset(read_corpus(args.manifest_dir, corpus), cfg)
    inputs[args.manifest_dir] = "sha256:" + corpus.hexdigest()
    features_path = out / "features.csv"
    save_dataset_csv(dataset, features_path)
    print(f"extracted {len(dataset)} feature rows -> {features_path}")
    return [features_path], []


def _fit(args: argparse.Namespace, spec: ModelSpec, cfg: TrainConfig, ds: LabeledDataset,
         out: Path):
    """Split, train, evaluate on the held-out test set, write artifacts."""
    from .nn import checkpoint as ckpt_mod

    train_rows, val_rows, test_rows = _split_for_training(ds, spec.seq_length, args)
    ckpt, history = train(spec, ds.features, ds.labels, train_rows, val_rows, cfg)
    ckpt.meta["split"] = _split_meta(args)
    ckpt_mod.save(ckpt, out / "checkpoint.json")
    _write_rows(out / "history.csv", HISTORY_COLUMNS, history)
    scores, files = _evaluate(ckpt, ds, test_rows, out)
    return scores, [out / "checkpoint.json", out / "history.csv"] + files


def cmd_train(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    ds = _load_features(args.features)
    scores, outputs = _fit(args, _spec_from_args(args), _train_cfg_from_args(args), ds, out)
    print((out / "report.txt").read_text())
    accuracy, weighted_f1, grabbing_f1 = scores
    print(
        f"test accuracy {accuracy:.4f}, "
        f"weighted F1 {weighted_f1:.4f}, "
        f"grabbing F1 {grabbing_f1:.4f}"
    )
    return outputs, []


def cmd_eval(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    from .nn import checkpoint as ckpt_mod

    ckpt = ckpt_mod.load(args.checkpoint)
    ds = _load_features(args.features)
    targets, labels = sequence_dataset(ds, ckpt.spec.seq_length)

    split = ckpt.meta.get("split", {})
    test_fraction = args.test_fraction or split.get("test_fraction", TEST_FRACTION)
    seed = args.seed if args.seed is not None else split.get("seed", SEED)
    _, test_idx = stratified_split_indices(labels, test_fraction, seed)
    _, outputs = _evaluate(ckpt, ds, targets[test_idx], out)
    print((out / "report.txt").read_text())
    return outputs, []


def _search(args: argparse.Namespace, spec: ModelSpec, cfg: TrainConfig, ds: LabeledDataset,
            out: Path):
    """Random search around ``spec`` and ``cfg``; the winner is scored on the
    test split."""
    from .nn import checkpoint as ckpt_mod
    from .nn.search import SearchSpace, random_search

    train_rows, val_rows, test_rows = _split_for_training(ds, spec.seq_length, args)
    winner, trials = random_search(SearchSpace(), args.budget, ds.features, ds.labels,
                                   train_rows, val_rows, args.seed, spec, cfg)
    _write_rows(out / "trials.csv", TRIAL_COLUMNS, [
        dict(zip(TRIAL_COLUMNS, (t.index, t.status, t.spec.rnn_units, t.spec.rnn_layers,
                                 t.spec.dropout_p, t.cfg.learning_rate, t.cfg.batch_size,
                                 t.val_acc, t.val_loss)))
        for t in trials
    ])
    winner.checkpoint.meta.update(split=_split_meta(args), trial_index=winner.index)
    ckpt_mod.save(winner.checkpoint, out / "checkpoint.json")
    scores, files = _evaluate(winner.checkpoint, ds, test_rows, out)
    print(
        f"best trial {winner.index}: units={winner.spec.rnn_units} "
        f"layers={winner.spec.rnn_layers} dropout={winner.spec.dropout_p:.3f} "
        f"lr={winner.cfg.learning_rate:.5f} batch={winner.cfg.batch_size} "
        f"val_acc={winner.val_acc:.4f}"
    )
    return scores, [out / "trials.csv", out / "checkpoint.json"] + files


def cmd_search(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    from .nn.model import ModelSpec

    ds = _load_features(args.features)
    (accuracy, _, _), outputs = _search(args, ModelSpec(), _train_cfg(args), ds, out)
    print(f"test accuracy {accuracy:.4f}")
    return outputs, []


def _xval(args: argparse.Namespace, spec: ModelSpec, cfg: TrainConfig, ds: LabeledDataset,
          out: Path, k: int):
    """Stratified k-fold validation, scored by the means over the folds."""
    targets, labels = sequence_dataset(ds, spec.seq_length)
    folds = [(targets[tr], targets[va]) for tr, va in stratified_folds(labels, k, args.seed)]
    rows = kfold_validate(spec, cfg, ds.features, ds.labels, folds)
    mean, std = (dict(zip(SCORES, stat))
                 for stat in _mean_std([[row[key] for key in SCORES] for row in rows]))
    xval_path = out / "xval.csv"
    _write_rows(xval_path, ["fold", *SCORES],
                rows + [{"fold": "mean", **mean}, {"fold": "std", **std}])
    print(
        f"{k}-fold: accuracy {mean['accuracy']:.4f} +/- {std['accuracy']:.4f}, "
        f"grabbing F1 {mean['grabbing_f1']:.4f}"
    )
    return tuple(mean.values()), [xval_path]


def cmd_xval(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    ds = _load_features(args.features)
    _, outputs = _xval(args, _spec_from_args(args), _train_cfg_from_args(args), ds, out, args.k)
    return outputs, []


def _ladder_plan() -> tuple:
    """The eight rows of the ladder, each (model number, description, spec,
    class weighting, step)."""
    from .nn.model import ModelSpec

    static_encoder = ModelSpec()  # the paper's model
    return (
        (1, "plain MLP", ModelSpec(kind="mlp", dropout_p=0.0, l2_lambda=0.0, use_batchnorm=False),
         "none", _fit),
        (2, "regularized MLP", ModelSpec(kind="mlp"), "balanced", _fit),
        (3, "regularized MLP, 5-fold", ModelSpec(kind="mlp"), "balanced",
         partial(_xval, k=FOLDS)),
        (4, "unidirectional LSTM", ModelSpec(kind="lstm", seq_length=10), "balanced", _fit),
        (5, "bidirectional LSTM", ModelSpec(kind="birnn", seq_length=5), "balanced", _fit),
        (6, "bidirectional LSTM, 5-fold", ModelSpec(kind="birnn", seq_length=5), "balanced",
         partial(_xval, k=FOLDS)),
        (7, "static-encoder bidirectional LSTM", static_encoder, "balanced", _fit),
        (8, "searched static-encoder (champion)", static_encoder, "balanced", _search),
    )


LADDER_COLUMNS = ["model", "description", "architecture", "seq_len"]


def _ladder_row(number: int, description: str, spec: ModelSpec) -> dict:
    return {
        "model": number,
        "description": description,
        "architecture": spec.kind,
        "seq_len": spec.seq_length if spec.kind != "mlp" else "n/a",
    }


def _run_ladder(args: argparse.Namespace, ds: LabeledDataset, out: Path):
    """Every ``_ladder_plan`` row at ``args.seed`` into ``out/model_N/``, then
    ``out/ladder_summary.csv``; returns each row's scores (None where the row
    failed), the files written and the failures."""
    scores: list[tuple[float, float, float] | None] = []
    rows: list[dict] = []
    outputs: list[Path] = []
    failures: list[str] = []
    for number, description, spec, class_weighting, step in _ladder_plan():
        model_out = out / f"model_{number}"
        model_out.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        row = _ladder_row(number, description, spec)
        try:
            cfg = _train_cfg(args, seed=args.seed + 10 * number, class_weighting=class_weighting)
            row_scores, files = step(args, spec, cfg, ds, model_out)
            outputs += files
            scores.append(row_scores)
            row.update((key, f"{value:.6f}") for key, value in zip(SCORES, row_scores))
            accuracy, weighted_f1, grabbing_f1 = row_scores
            print(
                f"model {number} ({description}): acc={accuracy:.4f} "
                f"wF1={weighted_f1:.4f} grabF1={grabbing_f1:.4f} "
                f"[{time.time() - t0:.1f}s]"
            )
        except Exception as exc:  # summary still written, with markers
            scores.append(None)
            row.update((key, "failed") for key in SCORES)
            failures.append(f"model {number}: {exc}")
            print(f"model {number} ({description}): FAILED ({exc})", file=sys.stderr)
        rows.append(row)

    summary_path = out / "ladder_summary.csv"
    _write_rows(summary_path, LADDER_COLUMNS + list(SCORES), rows)
    print(f"ladder summary -> {summary_path}")
    return scores, [summary_path] + outputs, failures


def cmd_ladder(args: argparse.Namespace, out: Path, inputs: dict[str, str]):
    """One ladder into ``out``; with ``--seeds N`` > 1, one into
    ``out/seed_S/`` for each seed S from ``--seed`` on, and the mean and std
    of each row's scores over the seeds it did not fail at in
    ``ladder_seeds.csv``."""
    ds = _load_features(args.features)
    if args.seeds == 1:
        _, outputs, failures = _run_ladder(args, ds, out)
        return outputs, failures

    runs, outputs, failures = [], [], []
    for seed in range(args.seed, args.seed + args.seeds):
        scores, files, failed = _run_ladder(
            argparse.Namespace(**{**vars(args), "seed": seed}), ds, out / f"seed_{seed}"
        )
        runs.append(scores)
        outputs += files
        failures += [f"seed {seed} {failure}" for failure in failed]

    columns = [f"{key}_{stat}" for key in SCORES for stat in ("mean", "std")]
    rows = []
    for k, (number, description, spec, _, _) in enumerate(_ladder_plan()):
        done = [run[k] for run in runs if run[k] is not None]
        row = _ladder_row(number, description, spec)
        row["seeds"] = len(done)
        if done:
            for key, mean, std in zip(SCORES, *_mean_std(done)):
                row[f"{key}_mean"], row[f"{key}_std"] = f"{mean:.6f}", f"{std:.6f}"
        else:
            row.update((column, "failed") for column in columns)
        rows.append(row)
        print(
            f"model {number} ({description}) over {len(done)} of {args.seeds} seeds: "
            + " ".join(f"{short}={row[key + '_mean']}+/-{row[key + '_std']}"
                       for short, key in zip(("acc", "wF1", "grabF1"), SCORES))
        )
    seeds_path = out / "ladder_seeds.csv"
    _write_rows(seeds_path, LADDER_COLUMNS + ["seeds"] + columns, rows)
    print(f"ladder seeds summary -> {seeds_path}")
    return [seeds_path] + outputs, failures


# ---------------------------------------------------------------------------
# parser assembly: each flag that fills a dataclass field takes its default
# from that field, so a ladder row built from the defaults matches the
# subcommand run with its default flags


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_non_negative_int, default=SEED, help="run seed")
    parser.add_argument("--config", help="key=value config file (flags override it)")
    parser.add_argument("--out", required=True, help="output directory")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    from .nn.model import KINDS, ModelSpec

    spec = ModelSpec()
    parser.add_argument("--arch", choices=KINDS, default=spec.kind)
    parser.add_argument("--hidden", type=_widths, default=spec.hidden,
                        help="MLP hidden widths, e.g. 128,64,32")
    parser.add_argument("--units", type=_positive_int, default=spec.rnn_units)
    parser.add_argument("--layers", type=_positive_int, default=spec.rnn_layers)
    parser.add_argument("--seq-length", type=_positive_int, default=spec.seq_length)
    parser.add_argument("--dropout", type=_dropout, default=spec.dropout_p)
    parser.add_argument("--l2", type=_non_negative_float, default=spec.l2_lambda)
    parser.add_argument("--batchnorm", choices=("auto", "on", "off"), default="auto",
                        help="auto = on for MLP, off for recurrent models")


def _add_fit_flags(parser: argparse.ArgumentParser) -> None:
    from .nn.train import TrainConfig

    cfg = TrainConfig()
    parser.add_argument("--epochs", type=_positive_int, default=cfg.epochs)
    parser.add_argument("--patience", type=_non_negative_int, default=cfg.early_stop_patience,
                        help="early-stop patience on validation loss; 0 disables")
    parser.add_argument("--test-fraction", type=_fraction, default=TEST_FRACTION)
    parser.add_argument("--val-fraction", type=_fraction, default=0.15)


def _add_train_config_flags(parser: argparse.ArgumentParser) -> None:
    from .nn.train import CLASS_WEIGHTINGS, TrainConfig

    cfg = TrainConfig()
    parser.add_argument("--lr", type=_positive_float, default=cfg.learning_rate)
    parser.add_argument("--batch-size", type=_positive_int, default=cfg.batch_size)
    parser.add_argument("--class-weight", choices=CLASS_WEIGHTINGS, default=cfg.class_weighting)
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip z-score feature standardization")
    _add_fit_flags(parser)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    from . import synth

    scenario = synth.ScenarioConfig()
    p.add_argument("--episodes", type=_positive_int, default=20)
    p.add_argument("--canvas", type=_canvas, default=scenario.canvas)
    p.add_argument("--object-rect", type=_rect, default=scenario.object_rect,
                   help="x0,y0,width,height")
    p.add_argument("--hand-radius", type=_positive_int, default=scenario.hand_radius)
    p.add_argument("--approach-speed", type=_positive_float, default=scenario.approach_speed)
    p.add_argument("--jitter", type=_non_negative_float, default=scenario.jitter_sigma)
    p.add_argument("--mask-noise", type=_flip_prob, default=scenario.noise_flip_prob)
    p.add_argument("--epsilon", type=_positive_float, default=scenario.contact_epsilon)
    for phase in dataclasses.fields(synth.PhaseDurations):
        p.add_argument(f"--{phase.name}", type=_non_negative_int, default=phase.default,
                       help=f"{phase.name} phase frames")


def _add_extract_flags(p: argparse.ArgumentParser) -> None:
    pipeline = PipelineConfig()
    p.add_argument("--manifest-dir", required=True)
    p.add_argument("--tau-sharp", type=_non_negative_float, default=pipeline.sharpness_threshold)
    p.add_argument("--tau-diff", type=_non_negative_float, default=pipeline.diff_threshold)
    p.add_argument("--window", type=_window, default=pipeline.window_length,
                   help="keyframes of context; the speed trend needs at least 3")
    p.add_argument("--stride", type=_positive_int, default=pipeline.stride)
    p.add_argument("--epsilon", type=_positive_float, default=pipeline.contact_epsilon)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    _add_model_flags(p)
    _add_train_config_flags(p)


def _add_eval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test-fraction", type=_fraction, default=None)
    p.set_defaults(seed=None)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--budget", type=_positive_int, default=8)
    _add_fit_flags(p)


def _add_xval_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=_fold_count, default=FOLDS)
    _add_model_flags(p)
    _add_train_config_flags(p)


def _add_ladder_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--budget", type=_positive_int, default=6,
                   help="search budget for the final (searched) model")
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="run the ladder at this many seeds from --seed on, "
                        "each into seed_S/, and write ladder_seeds.csv")
    _add_fit_flags(p)


COMMANDS = {
    # name: (help, flags beyond the common ones, run)
    "synth": ("generate a scripted synthetic corpus", _add_synth_flags, cmd_synth),
    "extract": ("extract feature vectors from manifests", _add_extract_flags, cmd_extract),
    "train": ("train one model and report on the test split", _add_train_flags, cmd_train),
    "eval": ("evaluate a checkpoint on the held-out split", _add_eval_flags, cmd_eval),
    "search": ("random hyperparameter search (static encoder)", _add_search_flags, cmd_search),
    "xval": ("stratified k-fold validation of one model", _add_xval_flags, cmd_xval),
    "ladder": ("run the eight-model comparison ladder", _add_ladder_flags, cmd_ladder),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Every subcommand is registered, but only
    ``command``'s flags are added when it names one; otherwise, as for
    ``--help``, every subcommand's are."""
    parser = argparse.ArgumentParser(
        prog="handstates",
        description="Hand-object interaction state pipeline and model ladder",
    )
    parser.add_argument("--version", action="version", version=f"handstates {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, add_flags, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in COMMANDS or command == name:
            _add_common(p)  # first, so that a subcommand's own defaults win
            add_flags(p)
            p.set_defaults(func=run)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the parser of its subcommand, the first token
    that is not an option, and with the ``--config`` flags inserted right
    after the subcommand, so that explicit flags, parsed after them, win."""
    bootstrap = argparse.ArgumentParser(add_help=False)
    bootstrap.add_argument("--config")
    path = bootstrap.parse_known_args(argv)[0].config
    config = config_flags(path) if path else {}
    at = next((i + 1 for i, arg in enumerate(argv) if not arg.startswith("-")), 0)
    parser = build_parser(argv[at - 1] if at else None)
    args, extras = parser.parse_known_args(argv[:at] + list(config) + argv[at:])
    unknown = [config[arg] for arg in extras if arg in config]
    if unknown:
        raise ValueError(f"config key {unknown[0]!r} is not a flag of {args.command!r}")
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: parse its flags, freeze the heap, pin BLAS to one
    thread, create ``--out``, run the subcommand, write its run manifest.

    A ladder with failed rows still gets its summary and manifest, then
    exits 1 after naming the failures.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        # The import-time objects live as long as the process: frozen, no
        # collection traverses them again, neither later ones nor the one at
        # exit, and forked fold workers inherit them frozen. After parsing,
        # since the flags of a model command import the nn modules it runs.
        # Once per process, so that a caller that runs many commands does not
        # pin the garbage pending at each call.
        if gc.get_freeze_count() == 0:
            gc.freeze()
        blas = pin_blas_threads()
        started = time.time()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs: dict[str, str] = {}
        outputs, failures = args.func(args, out, inputs)
        for name in ("features", "checkpoint"):
            if path := getattr(args, name, None):
                inputs[path] = "sha256:" + sha256_file(path)
        write_run_manifest(out, args, inputs, outputs, started, blas)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failures:
        print("; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
