"""Class-weighted softmax cross-entropy and the balanced weighting scheme.

Both work on a float64 copy of the logits, whatever their dtype, so a loss
and a probability are float64; the loss gradient has the logits' dtype.
"""

from __future__ import annotations

import numpy as np


def log_softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def softmax_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, class_weights: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean of w[y_i] * (-log softmax(logits_i)[y_i]) and its exact gradient."""
    targets = np.asarray(targets, dtype=np.int64)
    k = logits.shape[1]
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= k:
        raise ValueError(f"targets must lie in 0..{k - 1}")
    weights = np.asarray(class_weights, dtype=np.float64)
    if weights.shape != (k,):
        raise ValueError(f"need {k} class weights, got shape {weights.shape}")
    n = logits.shape[0]
    logp = log_softmax(logits)
    w = weights[targets]
    loss = float(-(w * logp[np.arange(n), targets]).mean())
    grad = np.exp(logp)
    grad[np.arange(n), targets] -= 1.0
    grad *= w[:, None] / n
    return loss, grad.astype(logits.dtype, copy=False)


def balanced_class_weights(counts: np.ndarray) -> np.ndarray:
    """w_c = total / (num_present_classes * count_c); absent classes get 0."""
    counts = np.asarray(counts, dtype=np.float64)
    present = counts > 0
    weights = np.zeros_like(counts)
    if present.any():
        weights[present] = counts.sum() / (present.sum() * counts[present])
    return weights
