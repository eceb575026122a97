"""Analytic-versus-numeric gradient verification for whole models.

Central finite differences (h = 1e-5) of the full training loss (data term
plus L2 penalty) are compared against the backpropagated gradients for
every parameter element, on a float64 classifier: a float32 loss would
bury a difference quotient at h = 1e-5 in rounding. Dropout must be disabled
in the spec: a stochastic mask has no consistent finite-difference limit.
"""

from __future__ import annotations

import numpy as np

from .losses import softmax_cross_entropy
from .model import Classifier, ModelSpec

# Relative-error denominators are floored so that finite-difference noise on
# near-zero gradients (dead ReLU paths) does not register as failure while
# any real gradient bug still does.
_REL_FLOOR = 1e-4


def gradient_check(
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    h: float = 1e-5,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic and numeric gradients."""
    if spec.dropout_p != 0.0:
        raise ValueError("gradient_check requires dropout_p = 0")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape[0] > 8:
        raise ValueError("use a small batch (<= 8) for gradient checking")
    weights = np.ones(spec.num_classes)
    clf = Classifier(spec, np.random.default_rng(seed), dtype=np.float64)

    def loss_only() -> float:
        logits = clf.forward(x, train=True)
        loss, _ = softmax_cross_entropy(logits, y, weights)
        return loss + clf.penalty()

    clf.loss_and_grads(x, y, weights, train=True)
    analytic = {k: v.copy() for k, v in clf.grads().items()}

    worst = 0.0
    for name, param in clf.params().items():
        flat = param.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss_only()
            flat[i] = orig - h
            minus = loss_only()
            flat[i] = orig
            numeric = (plus - minus) / (2.0 * h)
            denom = max(abs(grad[i]), abs(numeric), _REL_FLOOR)
            worst = max(worst, abs(grad[i] - numeric) / denom)
    return worst
