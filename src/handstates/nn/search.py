"""Random hyperparameter search and k-fold validation over given folds.

The search samples uniformly from the tuned ranges (log-uniform for the
learning rate), trains every candidate and returns the best trial by
validation accuracy, breaking ties by lower validation loss and then by
earlier trial index. Diverged trials are recorded, not fatal, unless every
trial diverges.

Both take what ``train`` takes, so a task sent to a worker carries the
feature table and target rows, not samples.
``random_search`` returns its trials and ``kfold_validate`` its fold rows;
the CLI writes them as ``trials.csv`` and ``xval.csv`` and sums up the folds,
which it takes from ``features.stratified_folds``.

Folds and trials are seeded one by one (``cfg.seed + fold``, ``seed + 1000 *
(trial + 1)``), so ``map_tasks`` may train them in forked worker processes,
one per usable core, or inline, without changing a bit of any result.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..features import ClassLabel, windows
from ..metrics import classification_report, confusion_matrix
from . import checkpoint as ckpt_mod
from .model import ModelSpec
from .train import TrainConfig, TrainingDivergedError, train


@dataclass(frozen=True)
class SearchSpace:
    rnn_units: tuple[int, int] = (32, 256)  # inclusive bounds
    rnn_layers: tuple[int, int] = (1, 2)
    dropout_p: tuple[float, float] = (0.0, 0.5)
    learning_rate: tuple[float, float] = (1e-4, 1e-2)  # log-uniform
    batch_sizes: tuple[int, ...] = (32, 64, 128)


@dataclass
class TrialResult:
    index: int
    spec: ModelSpec
    cfg: TrainConfig
    status: str  # "ok" or "diverged"
    val_acc: float = float("nan")
    val_loss: float = float("nan")
    checkpoint: Optional[ckpt_mod.Checkpoint] = None


def pool_size(tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks: the cores this
    process may run on, and no more than the tasks; 1 in a pool worker, so a
    task that maps tasks of its own runs them inline. The CLI runs BLAS on
    one thread, which forked workers inherit, so each worker has a core."""
    if multiprocessing.parent_process() is not None:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(tasks, cores))


def map_tasks(fn, tasks: list[tuple]) -> list:
    """``[fn(*args) for args in tasks]``, in task order.

    With a pool of more than one worker (``pool_size``) the calls run in
    forked worker processes; otherwise inline, one after another. Only
    ``fn``'s arguments and results cross between processes.
    """
    workers = pool_size(len(tasks))
    if workers == 1:
        return [fn(*args) for args in tasks]
    # Imported here, so a run that never forks does not pay for the import.
    # Forked workers need no re-import, and keep the parent's BLAS thread
    # count. The executor forks them all before it starts its own thread.
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def sample_trial(
    space: SearchSpace,
    rng: np.random.Generator,
    base_spec: ModelSpec,
    base_cfg: TrainConfig,
) -> tuple[ModelSpec, TrainConfig]:
    """One uniformly sampled (spec, config) candidate."""
    units = int(rng.integers(space.rnn_units[0], space.rnn_units[1] + 1))
    layers = int(rng.integers(space.rnn_layers[0], space.rnn_layers[1] + 1))
    dropout = float(rng.uniform(*space.dropout_p))
    log_lo, log_hi = np.log10(space.learning_rate[0]), np.log10(space.learning_rate[1])
    lr = float(10.0 ** rng.uniform(log_lo, log_hi))
    batch = int(space.batch_sizes[rng.integers(0, len(space.batch_sizes))])
    spec = replace(base_spec, rnn_units=units, rnn_layers=layers, dropout_p=dropout)
    cfg = replace(base_cfg, learning_rate=lr, batch_size=batch)
    return spec, cfg


def _run_trial(index, spec, cfg, x, y, train_idx, val_idx) -> TrialResult:
    """Train one candidate; a diverged one is recorded, not raised."""
    try:
        ckpt, _ = train(spec, x, y, train_idx, val_idx, cfg)
    except TrainingDivergedError:
        return TrialResult(index=index, spec=spec, cfg=cfg, status="diverged")
    return TrialResult(
        index=index,
        spec=spec,
        cfg=cfg,
        status="ok",
        val_acc=float(ckpt.meta["val_acc"]),
        val_loss=float(ckpt.meta["val_loss"]),
        checkpoint=ckpt,
    )


def random_search(
    space: SearchSpace,
    budget: int,
    x: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    seed: int,
    base_spec: ModelSpec,
    base_cfg: TrainConfig,
) -> tuple[TrialResult, list[TrialResult]]:
    """Run ``budget`` trials; returns (winner, all trials)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    tasks = []
    for i in range(budget):
        spec, cfg = sample_trial(space, rng, base_spec, base_cfg)
        tasks.append((i, spec, replace(cfg, seed=seed + 1000 * (i + 1)), x, y, train_idx,
                      val_idx))
    trials = map_tasks(_run_trial, tasks)
    finished = [t for t in trials if t.status == "ok"]
    if not finished:
        outcomes = ", ".join(f"trial {t.index}: {t.status}" for t in trials)
        raise RuntimeError(f"all search trials diverged ({outcomes})")
    winner = max(finished, key=lambda t: (t.val_acc, -t.val_loss, -t.index))
    return winner, trials


def _run_fold(fold_idx, train_idx, val_idx, spec, cfg, x, y) -> dict:
    """Train on the targets ``train_idx``, score on ``val_idx``; returns a row.

    The fold's model is dropped on return, before the next fold trains.
    """
    ckpt, _ = train(spec, x, y, train_idx, val_idx, cfg)
    _, preds = ckpt_mod.predict(ckpt, windows(x, spec.seq_length)[val_idx])
    cm = confusion_matrix(y[val_idx], preds, spec.num_classes)
    report = classification_report(cm)
    return {
        "fold": fold_idx,
        "accuracy": report.accuracy,
        "weighted_f1": report.weighted_f1,
        "grabbing_f1": float(report.f1[ClassLabel.GRABBING]),
    }


def kfold_validate(
    spec: ModelSpec,
    cfg: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
    folds: list[tuple[np.ndarray, np.ndarray]],
) -> list[dict]:
    """K-fold scores over the given ``(train, held-out)`` target row pairs.

    Each fold trains on its train targets and is scored on its held-out ones,
    which double as the early-stopping validation set of its training run.
    Returns one row per fold, in fold order: ``fold`` and the fold's
    ``accuracy``, ``weighted_f1`` and ``grabbing_f1``, as Python floats.
    """
    return map_tasks(_run_fold, [
        (fold_idx, train_idx, val_idx, spec, replace(cfg, seed=cfg.seed + fold_idx), x, y)
        for fold_idx, (train_idx, val_idx) in enumerate(folds)
    ])
