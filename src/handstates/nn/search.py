"""Random hyperparameter search and stratified k-fold validation.

The search samples uniformly from the tuned ranges (log-uniform for the
learning rate), trains every candidate and returns the best trial by
validation accuracy, breaking ties by lower validation loss and then by
earlier trial index. Diverged trials are recorded, not fatal, unless every
trial diverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

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
    history: list = field(default_factory=list)


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


def random_search(
    space: SearchSpace,
    budget: int,
    train_ds,
    val_ds,
    seed: int,
    base_spec: ModelSpec,
    base_cfg: TrainConfig,
) -> tuple[TrialResult, list[TrialResult]]:
    """Run ``budget`` trials; returns (winner, all trials)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials: list[TrialResult] = []
    for i in range(budget):
        spec, cfg = sample_trial(space, rng, base_spec, base_cfg)
        cfg = replace(cfg, seed=seed + 1000 * (i + 1))
        try:
            ckpt, history = train(spec, train_ds, val_ds, cfg)
        except TrainingDivergedError:
            trials.append(TrialResult(index=i, spec=spec, cfg=cfg, status="diverged"))
            continue
        trials.append(
            TrialResult(
                index=i,
                spec=spec,
                cfg=cfg,
                status="ok",
                val_acc=float(ckpt.meta["val_acc"]),
                val_loss=float(ckpt.meta["val_loss"]),
                checkpoint=ckpt,
                history=history,
            )
        )
    finished = [t for t in trials if t.status == "ok"]
    if not finished:
        outcomes = ", ".join(f"trial {t.index}: {t.status}" for t in trials)
        raise RuntimeError(f"all search trials diverged ({outcomes})")
    winner = max(finished, key=lambda t: (t.val_acc, -t.val_loss, -t.index))
    return winner, trials


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint covering validation folds, class-balanced by round robin."""
    if k < 2:
        raise ValueError("k must be >= 2")
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.shape[0], dtype=np.int64)
    for c in np.unique(y):
        members = np.nonzero(y == c)[0]
        if members.size < k:
            raise ValueError(
                f"class {int(c)} has {members.size} samples; needs >= {k} for {k}-fold"
            )
        members = members[rng.permutation(members.size)]
        assignment[members] = np.arange(members.size) % k
    return [np.nonzero(assignment == fold)[0] for fold in range(k)]


def kfold_validate(
    spec: ModelSpec,
    cfg: TrainConfig,
    x: np.ndarray,
    y: np.ndarray,
    k: int,
    seed: int,
    focus_class: int = 1,
) -> tuple[list[dict], dict]:
    """Stratified k-fold metrics; each row validates in exactly one fold.

    The held-out fold doubles as the early-stopping validation set for its
    training run. Returns per-fold rows plus mean/std aggregates of
    accuracy, weighted F1 and the focus class's F1 (grabbing by default).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    folds = stratified_folds(y, k, seed)
    rows: list[dict] = []
    for fold_idx, val_idx in enumerate(folds):
        mask = np.ones(y.shape[0], dtype=bool)
        mask[val_idx] = False
        train_idx = np.nonzero(mask)[0]
        fold_cfg = replace(cfg, seed=cfg.seed + fold_idx)
        ckpt, _ = train(
            spec, (x[train_idx], y[train_idx]), (x[val_idx], y[val_idx]), fold_cfg
        )
        _, preds = ckpt_mod.predict(ckpt, x[val_idx])
        cm = confusion_matrix(y[val_idx], preds, spec.num_classes)
        report = classification_report(cm)
        rows.append(
            {
                "fold": fold_idx,
                "accuracy": report.accuracy,
                "weighted_f1": report.weighted_f1,
                "focus_f1": float(report.f1[focus_class]),
            }
        )
    summary = {}
    for key in ("accuracy", "weighted_f1", "focus_f1"):
        values = np.array([r[key] for r in rows])
        summary[f"{key}_mean"] = float(values.mean())
        summary[f"{key}_std"] = float(values.std())
    return rows, summary
