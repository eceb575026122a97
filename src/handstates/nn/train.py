"""Mini-batch training loop with standardization, balanced class weights,
early stopping on validation loss and deterministic seeding.

``train`` takes the (rows, dim) feature table, its row labels and index
arrays of target rows; a sample is the window of ``seq_length`` rows that
ends at its target (``features.windows``). It gathers each batch as it
trains on it, the validation samples once and, to fit the classifier's
feature standardization, the training samples once. The classifier, float32,
standardizes each batch in float64 and casts it as it comes in; losses are
float64. The checkpoint returned holds the trained classifier, restored to
its ``state`` at the epoch with the lowest validation loss; the history
returned is one row of Python numbers per epoch, which the CLI writes as
``history.csv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import windows
from . import checkpoint as ckpt_mod
from .losses import balanced_class_weights, softmax_cross_entropy
from .model import Classifier, ModelSpec
from .optim import Adam

CLASS_WEIGHTINGS = ("balanced", "none")


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged (non-finite loss) at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        # rebuilt from the epoch, not the message, when a worker process
        # sends it back
        return type(self), (self.epoch,)


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 60
    seed: int = 0
    class_weighting: str = "balanced"  # one of CLASS_WEIGHTINGS
    standardize_features: bool = True
    early_stop_patience: int = 10  # 0 disables early stopping

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if self.class_weighting not in CLASS_WEIGHTINGS:
            raise ValueError(f"class_weighting must be one of {CLASS_WEIGHTINGS}")


def fit_standardizer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean/std over the last axis; zero stds become 1."""
    flat = x.reshape(-1, x.shape[-1])
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def _evaluate(clf: Classifier, x, y, weights) -> tuple[float, float]:
    """Weighted cross-entropy, without the L2 penalty, and accuracy of one
    inference pass."""
    logits = clf.logits(x)
    loss, _ = softmax_cross_entropy(logits, y, weights)
    acc = float((logits.argmax(axis=1) == y).mean())
    return loss, acc


def train(spec: ModelSpec, x: np.ndarray, y: np.ndarray, train_idx: np.ndarray,
          val_idx: np.ndarray, cfg: TrainConfig) -> tuple[ckpt_mod.Checkpoint, list[dict]]:
    """Train a model on the samples of the target rows ``train_idx`` of the
    feature table ``x`` and its row labels ``y``, validating on those of
    ``val_idx``; return (best-validation checkpoint, history). The targets
    come from ``features.sequence_dataset``, so each window lies in its
    target's episode; a target before row ``seq_length - 1``, whose window
    would reach into the zero padding before row 0, is a ValueError.

    Each epoch trains on one shuffle of the training samples, then runs one
    validation pass, which picks the best epoch and drives early stopping,
    and appends one history row: a dict of epoch, train_loss, train_acc,
    val_loss and val_acc, an int and four Python floats. The train columns
    describe the epoch's batches as they were trained, in train mode: the
    row-weighted mean of their losses and the share of their rows predicted
    right. Reported losses use the training class weights and add the L2
    penalty at the end of the epoch. Raises TrainingDivergedError as soon as
    a batch's cross-entropy or an epoch's validation loss is non-finite.
    """
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("train and validation sets must be non-empty")
    for kind, idx in (("train", train_idx), ("validation", val_idx)):
        early = idx[idx < spec.seq_length - 1]
        if early.size:
            raise ValueError(f"{kind} target row {early[0]} has {early[0]} rows before it, but "
                             f"its window of seq_length {spec.seq_length} needs "
                             f"{spec.seq_length - 1}")
    x = windows(np.asarray(x, dtype=np.float64), spec.seq_length)
    y = np.asarray(y, dtype=np.int64)

    counts = np.bincount(y[train_idx], minlength=spec.num_classes)
    if cfg.class_weighting == "balanced":
        weights = balanced_class_weights(counts)
    else:
        weights = np.ones(spec.num_classes)

    rng = np.random.default_rng(cfg.seed)
    clf = Classifier(spec, rng)
    if cfg.standardize_features:
        clf.feature_mean, clf.feature_std = fit_standardizer(x[train_idx])
    optimizer = Adam(clf.params(), lr=cfg.learning_rate)
    x_val, y_val = x[val_idx], y[val_idx]

    n = len(train_idx)
    rows: list[dict] = []
    best_epoch, best_state = 0, None

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        # Batch-norm cannot normalise a single row; when the final batch
        # would be a singleton it is withheld for this epoch (the shuffle
        # rotates which row sits there).
        if clf.batchnorm_layers() and n % cfg.batch_size == 1 and n > 1:
            order = order[:-1]
        loss_sum, correct = 0.0, 0
        for start in range(0, order.size, cfg.batch_size):
            idx = train_idx[order[start : start + cfg.batch_size]]
            y_batch = y[idx]
            loss, logits = clf.loss_and_grads(x[idx], y_batch, weights, train=True, rng=rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            optimizer.step(clf.grads())
            loss_sum += loss * idx.size
            correct += int((logits.argmax(axis=1) == y_batch).sum())

        val_loss, val_acc = _evaluate(clf, x_val, y_val, weights)
        penalty = clf.penalty()
        val_loss += penalty
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(epoch)
        rows.append(
            {
                "epoch": epoch,
                "train_loss": loss_sum / order.size + penalty,
                "train_acc": correct / order.size,
                "val_loss": val_loss,
                "val_acc": val_acc,
            }
        )
        if best_state is None or val_loss < rows[best_epoch]["val_loss"]:
            best_epoch, best_state = epoch, clf.state()
        elif cfg.early_stop_patience and epoch - best_epoch >= cfg.early_stop_patience:
            break

    clf.load_state(best_state)
    best = rows[best_epoch]
    meta = {"best_epoch": best_epoch, "val_loss": best["val_loss"], "val_acc": best["val_acc"],
            "epochs_run": len(rows)}
    return ckpt_mod.Checkpoint(clf, meta), rows
