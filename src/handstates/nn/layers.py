"""Dense, batch-norm, ReLU and dropout building blocks with exact gradients.

Every layer keeps the ``Layer`` interface: ``forward(x, train, rng)`` caches
what ``backward(dy)`` needs, and ``backward`` accumulates the layer's own
parameter gradients, its L2 term included, and returns dL/dx. A layer with
parameters declares them once, in ``slots()``: one ``(name, parameter,
gradient, penalised)`` entry each. ``Layer`` derives the rest from that
list: the ``params()`` / ``grads()`` dictionaries by which the optimizer
addresses them, ``zero_grads()``, and, from ``l2`` and the penalised
entries, ``penalty()`` = l2 * sum ||p||^2 and ``add_l2_grads()``, which adds
2 * l2 * p to each penalised gradient. A layer computes in the dtype of its
parameters, which ``create`` takes (float64 unless given); a parameter-free
layer computes in the dtype of its input. Every array a layer allocates, its
caches, masks and running statistics included, has that dtype, so a
float32 model stays float32 from input to logits and back. An L2 penalty is
summed in float64, as the loss it is reported with.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   dtype=np.float64) -> np.ndarray:
    """A (fan_in, fan_out) matrix, uniform in +-sqrt(6 / (fan_in + fan_out))."""
    # drawn in float64 and then cast, so every dtype takes the same draws
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype, copy=False)


class Layer:
    """The layer interface. A layer without parameters keeps the default
    ``slots()``, none; layers that need no RNG ignore ``rng`` in ``forward``."""

    l2 = 0.0

    def slots(self) -> list[tuple[str, np.ndarray, np.ndarray, bool]]:
        """``(name, parameter, gradient, penalised)`` of each parameter."""
        return []

    def params(self) -> dict[str, np.ndarray]:
        return {name: param for name, param, _, _ in self.slots()}

    def grads(self) -> dict[str, np.ndarray]:
        return {name: grad for name, _, grad, _ in self.slots()}

    def zero_grads(self) -> None:
        for _, _, grad, _ in self.slots():
            grad[:] = 0.0

    def penalty(self) -> float:
        # float64 sums of squares, added in declaration order
        if not self.l2 > 0.0:
            return 0.0
        return self.l2 * sum(float((p * p).sum(dtype=np.float64))
                             for _, p, _, penalised in self.slots() if penalised)

    def add_l2_grads(self) -> None:
        if self.l2 > 0.0:
            for _, param, grad, penalised in self.slots():
                if penalised:
                    grad += 2.0 * self.l2 * param

    def __getstate__(self):
        # The underscore attributes are what the last forward cached for
        # backward; a pickled layer (a checkpoint a worker process sends
        # back) carries its parameters only.
        return {k: None if k.startswith("_") else v for k, v in self.__dict__.items()}


class Dense(Layer):
    """Affine map y = x W + b with an optional L2 penalty on W.

    The penalty is lambda * ||W||^2, contributing 2 * lambda * W to the
    weight gradient; biases are not penalised.
    """

    def __init__(self, w: np.ndarray, b: np.ndarray, l2: float = 0.0, name: str = "dense"):
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ValueError(f"inconsistent dense shapes {w.shape} / {b.shape}")
        self.w = w
        self.b = b
        self.l2 = float(l2)
        self.name = name
        self.dw = np.zeros_like(w)
        self.db = np.zeros_like(b)
        self._x: np.ndarray | None = None

    @classmethod
    def create(cls, rng, n_in: int, n_out: int, l2: float = 0.0, name: str = "dense",
               dtype=np.float64):
        w = glorot_uniform(rng, n_in, n_out, dtype)
        return cls(w, np.zeros(n_out, dtype), l2=l2, name=name)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if x.shape[1] != self.w.shape[0]:
            raise ValueError(
                f"{self.name}: input width {x.shape[1]} != weight rows {self.w.shape[0]}"
            )
        self._x = x
        return x @ self.w + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        self.dw += x.T @ dy
        self.add_l2_grads()
        self.db += dy.sum(axis=0)
        return dy @ self.w.T

    def slots(self):
        return [(f"{self.name}.w", self.w, self.dw, True), (f"{self.name}.b", self.b, self.db, False)]


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class BatchNorm(Layer):
    """Per-feature batch normalisation with running statistics.

    Train mode normalises by the batch mean and population variance and
    blends them into the running statistics with momentum 0.9; inference
    uses the running statistics only. Training batches must have >= 2 rows,
    otherwise the batch variance is degenerate.
    """

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, name: str = "bn"):
        self.gamma = gamma
        self.beta = beta
        self.name = name
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)
        self.dgamma = np.zeros_like(gamma)
        self.dbeta = np.zeros_like(beta)
        self._cache = None

    @classmethod
    def create(cls, dim: int, name: str = "bn", dtype=np.float64):
        return cls(np.ones(dim, dtype), np.zeros(dim, dtype), name=name)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if train:
            if x.shape[0] < 2:
                raise ValueError(f"{self.name}: train-mode batch must have >= 2 rows")
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x - mu) * inv_std
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mu
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            self._cache = (xhat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
            xhat = (x - self.running_mean) * inv_std
            self._cache = None
        return self.gamma * xhat + self.beta

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward requires a train-mode forward")
        xhat, inv_std = self._cache
        m = dy.shape[0]
        self.dgamma += (dy * xhat).sum(axis=0)
        self.dbeta += dy.sum(axis=0)
        dxhat = dy * self.gamma
        return (
            inv_std
            / m
            * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        )

    def slots(self):
        return [(f"{self.name}.gamma", self.gamma, self.dgamma, False),
                (f"{self.name}.beta", self.beta, self.dbeta, False)]


class Dropout(Layer):
    """Inverted dropout: kept units are scaled by 1/(1-p) at train time."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = float(p)
        self._mask = None

    def forward(self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an RNG")
        # the draws are float64 whatever x's dtype; the mask takes x's
        self._mask = np.divide(rng.random(x.shape) >= self.p, 1.0 - self.p, dtype=x.dtype)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask
