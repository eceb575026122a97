"""Gated recurrent (LSTM) layers with exact backpropagation through time,
the bidirectional encoder, and the zero-state gate of a length-1 model. All
keep the ``Layer`` interface; the top layer of a stack returns its final
state, the layers below it every step, and ``backward`` adds the L2 gradient.

Gate layout in the fused weight matrices is [input, forget, candidate,
output] along the last axis. Every sequence starts from the zero state, so
its first step needs neither ``wh`` nor the forget gate: h = o * tanh(i * g).
That zero-state cell is step 0 of ``LSTMLayer`` and, after a ``Dense`` layer
into [i, g, o], the whole of a length-1 model: ``ZeroStateGate``.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer, glorot_uniform


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, e = exp(-|z|).

    The numerator, max(e, z >= 0), is 1 where z >= 0 (there e <= 1) and e
    itself elsewhere, NaN included; it is divided once, so no exp overflows
    and no boolean gather or scatter is needed. -|z| is taken as
    min(z, -z), which keeps the sign of a NaN.
    """
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, d, out=e)


def _igo(a):
    """The input, candidate and output column blocks of fused [i, f, g, o]."""
    u = a.shape[1] // 4
    return a[:, :u], a[:, 2 * u : 3 * u], a[:, 3 * u :]


def _zero_state_cell(a_i, a_g, a_o):
    """(h, c, gates) of the cell from the zero state, given the input,
    candidate and output pre-activations: c = i * g, h = o * tanh(c)."""
    i = _sigmoid(a_i)
    g = np.tanh(a_g)
    o = _sigmoid(a_o)
    c = i * g
    tc = np.tanh(c)
    return o * tc, c, (i, g, o, tc)


def _zero_state_cell_backward(dh, dc_in, gates, out):
    """dL/dc of a cell given dL/dh and the incoming dL/dc; writes dL/d(input,
    candidate, output pre-activations) into the three arrays of ``out``."""
    i, g, o, tc = gates
    da_i, da_g, da_o = out
    dc = dh * o
    dc *= 1.0 - tc * tc
    dc += dc_in
    np.multiply(dc, g, out=da_i)
    da_i *= i
    da_i *= 1.0 - i
    np.multiply(dc, i, out=da_g)
    da_g *= 1.0 - g * g
    np.multiply(dh, tc, out=da_o)
    da_o *= o
    da_o *= 1.0 - o
    return dc


def _cell(a, c_prev):
    """Gates and the new (h, c) from pre-activations ``a`` and state ``c_prev``.

    i = sig(.), f = sig(.), g = tanh(.), o = sig(.);
    c = f * c_prev + i * g; h = o * tanh(c).
    """
    units = a.shape[1] // 4
    i_f = _sigmoid(a[:, : 2 * units])
    i, f = i_f[:, :units], i_f[:, units:]
    g = np.tanh(a[:, 2 * units : 3 * units])
    o = _sigmoid(a[:, 3 * units :])
    c = f * c_prev
    c += i * g
    tc = np.tanh(c)
    return o * tc, c, (i, f, g, o, tc)


def _cell_backward(dh, dc_in, c_prev, gates):
    """dL/da and dL/dc of one cell given dL/dh and the incoming dL/dc."""
    i, f, g, o, tc = gates
    u = dh.shape[1]
    da = np.empty((dh.shape[0], 4 * u), dh.dtype)
    dc = _zero_state_cell_backward(dh, dc_in, (i, g, o, tc), _igo(da))
    da_f = da[:, u : 2 * u]
    np.multiply(dc, c_prev, out=da_f)
    da_f *= f
    da_f *= 1.0 - f
    return da, dc


def lstm_step(x, h_prev, c_prev, wx, wh, b):
    """Single gated-cell step from a previous state; returns (h, c, cache)."""
    if x.shape[1] != wx.shape[0] or h_prev.shape[1] != wh.shape[0]:
        raise ValueError(
            f"lstm_step shape mismatch: x {x.shape}, h {h_prev.shape}, "
            f"wx {wx.shape}, wh {wh.shape}"
        )
    h, c, gates = _cell(x @ wx + h_prev @ wh + b, c_prev)
    return h, c, (x, h_prev, c_prev, gates)


def lstm_step_backward(dh, dc_in, cache, wx, wh):
    """Gradients of one step given dL/dh and incoming dL/dc."""
    x, h_prev, c_prev, gates = cache
    da, dc = _cell_backward(dh, dc_in, c_prev, gates)
    dc_prev = dc * gates[1]  # through the forget gate
    return da @ wx.T, da @ wh.T, dc_prev, x.T @ da, h_prev.T @ da, da.sum(axis=0)


class ZeroStateGate(Layer):
    """Splits its input into [i, g, o] pre-activations of equal width and
    returns h = o * tanh(i * g): after a ``Dense`` layer, a length-1 LSTM."""

    def __init__(self):
        self._gates = None

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        w = x.shape[1] // 3
        h, _, self._gates = _zero_state_cell(x[:, :w], x[:, w : 2 * w], x[:, 2 * w :])
        return h

    def backward(self, dy: np.ndarray) -> np.ndarray:
        w = dy.shape[1]
        dx = np.empty((dy.shape[0], 3 * w), dy.dtype)
        _zero_state_cell_backward(dy, 0.0, self._gates,
                                  (dx[:, :w], dx[:, w : 2 * w], dx[:, 2 * w :]))
        return dx


class LSTMLayer(Layer):
    """LSTM unrolled over a (batch, length, features) sequence from the zero
    state; step 0 is the zero-state cell, later steps ``lstm_step``. A
    ``top`` layer returns its final hidden state (batch, units); a lower one
    returns every step (batch, length, units).
    """

    def __init__(self, wx, wh, b, l2: float = 0.0, name: str = "lstm", top: bool = False):
        self.wx, self.wh, self.b = wx, wh, b
        self.dwx, self.dwh, self.db = (np.zeros_like(w) for w in (wx, wh, b))
        self.l2 = float(l2)
        self.name = name
        self.top = top
        self.units = b.shape[0] // 4
        self._caches: list | None = None

    @classmethod
    def create(cls, rng, n_in: int, units: int, l2: float = 0.0, name: str = "lstm",
               top: bool = False, dtype=np.float64):
        wx = glorot_uniform(rng, n_in, 4 * units, dtype)
        wh = glorot_uniform(rng, units, 4 * units, dtype)
        b = np.zeros(4 * units, dtype)
        b[units : 2 * units] = 1.0  # forget-gate bias keeps early memory open
        return cls(wx, wh, b, l2=l2, name=name, top=top)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        """Run the cell over all steps; returns the final or every hidden state."""
        if x.ndim != 3 or x.shape[1] < 1:
            raise ValueError(f"{self.name}: expected non-empty (batch, length, features) input")
        batch, length, _ = x.shape
        outputs = np.empty((batch, length, self.units), self.b.dtype)
        a = x[:, 0, :] @ self.wx + self.b
        h, c, gates = _zero_state_cell(*_igo(a))
        outputs[:, 0, :] = h
        self._caches = [(x[:, 0, :], gates)]
        for t in range(1, length):
            h, c, cache = lstm_step(x[:, t, :], h, c, self.wx, self.wh, self.b)
            outputs[:, t, :] = h
            self._caches.append(cache)
        return outputs[:, -1, :] if self.top else outputs

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """BPTT given dL/d(output of forward); adds the L2 gradient."""
        caches = self._caches
        batch, length = dy.shape[0], len(caches)
        dtype = self.b.dtype
        d_outputs = np.zeros((batch, length, self.units), dtype)
        if self.top:
            d_outputs[:, -1, :] += dy
        else:
            d_outputs += dy
        dx = np.empty((batch, length, self.wx.shape[0]), dtype)
        dh_next = np.zeros((batch, self.units), dtype)
        dc_next = np.zeros((batch, self.units), dtype)
        for t in range(length - 1, 0, -1):
            dx[:, t, :], dh_next, dc_next, dwx, dwh, db = lstm_step_backward(
                d_outputs[:, t, :] + dh_next, dc_next, caches[t], self.wx, self.wh
            )
            self.dwx += dwx
            self.dwh += dwh
            self.db += db
        x0, gates = caches[0]
        dh = d_outputs[:, 0, :] + dh_next
        da = np.zeros((batch, 4 * self.units), dtype)
        _zero_state_cell_backward(dh, dc_next, gates, _igo(da))
        dx[:, 0, :] = da @ self.wx.T
        self.dwx += x0.T @ da
        self.db += da.sum(axis=0)
        self.add_l2_grads()
        return dx

    def slots(self):
        return [(f"{self.name}.wx", self.wx, self.dwx, True),
                (f"{self.name}.wh", self.wh, self.dwh, True),
                (f"{self.name}.b", self.b, self.db, False)]


class BidirectionalLSTM(Layer):
    """Forward and reversed passes over a sequence, states concatenated.

    ``top`` is the directions' own setting. A top layer returns the encoding
    (B, 2 * units) formed from the two final hidden states; a lower one the
    per-step outputs (B, L, 2 * units), each step holding the forward state
    and the reversed pass's state at that step.
    """

    def __init__(self, fwd: LSTMLayer, bwd: LSTMLayer):
        self.fwd = fwd
        self.bwd = bwd
        self.units = fwd.units
        self.top = fwd.top

    @classmethod
    def create(cls, rng, n_in: int, units: int, l2: float = 0.0, name: str = "bilstm",
               top: bool = False, dtype=np.float64):
        fwd = LSTMLayer.create(rng, n_in, units, l2=l2, name=f"{name}.fwd", top=top, dtype=dtype)
        bwd = LSTMLayer.create(rng, n_in, units, l2=l2, name=f"{name}.bwd", top=top, dtype=dtype)
        return cls(fwd, bwd)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        hf = self.fwd.forward(x)
        hb = self.bwd.forward(x[:, ::-1, :])
        return np.concatenate([hf, hb if self.top else hb[:, ::-1, :]], axis=-1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        u = self.units
        dx = self.fwd.backward(dy[..., :u])
        dx += self.bwd.backward(dy[..., u:] if self.top else dy[:, ::-1, u:])[:, ::-1, :]
        return dx

    def slots(self):
        return self.fwd.slots() + self.bwd.slots()

    def penalty(self) -> float:
        return self.fwd.penalty() + self.bwd.penalty()
