"""Adam optimizer with bias correction; updates parameters in place."""

from __future__ import annotations

import numpy as np

# the moment decay rates and the denominator's guard of Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over named parameters, in each parameter's own dtype.

    A step allocates nothing: each parameter has two scratch buffers, and the
    update is computed in them in the order of the textbook expression
    ``p -= lr * (m / b1t) / (sqrt(v / b2t) + EPS)``.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            s, r = self._scratch[name]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=s)
            m += s
            v *= BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - BETA2
            v += s
            np.divide(m, b1t, out=s)
            s *= self.lr
            np.divide(v, b2t, out=r)
            np.sqrt(r, out=r)
            r += EPS
            s /= r
            p -= s
