"""Gated-cell and bidirectional-encoder tests, including the sequence-length-1
static-encoder identity, asserted bit for bit, and its Dense + ZeroStateGate
form, to rounding."""

import numpy as np
import pytest

from conftest import bits

from handstates.nn.layers import Dense
from handstates.nn.model import Classifier, ModelSpec
from handstates.nn.recurrent import (
    BidirectionalLSTM,
    LSTMLayer,
    ZeroStateGate,
    _cell,
    _cell_backward,
    _sigmoid,
    lstm_step,
    lstm_step_backward,
)


def make_layer(rng, n_in, units, name="lstm"):
    return LSTMLayer.create(rng, n_in, units, name=name)


def masked_sigmoid(z):
    """The reference: each form evaluated only on its own elements."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    DTYPE = np.float64
    # the smallest subnormals, and arguments around exp's overflow and
    # underflow to 0 (709.8 and 745.1)
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 40.0, -40.0,
             745.0, -745.0, 745.2, -745.2, np.inf, -np.inf, np.nan, -np.nan]

    def test_bit_identical_to_masked_form(self, rng):
        z = np.concatenate([self.EDGES, rng.normal(scale=8.0, size=4000)]).astype(self.DTYPE)
        with np.errstate(all="ignore"):
            assert _sigmoid(z).dtype == self.DTYPE
            assert np.array_equal(bits(_sigmoid(z)), bits(masked_sigmoid(z)))

    def test_gate_block_view(self, rng):
        # the cell passes column slices of the fused pre-activations
        a = rng.normal(scale=8.0, size=(64, 4 * 32)).astype(self.DTYPE)
        a[0, :len(self.EDGES)] = self.EDGES
        block = a[:, :32]
        with np.errstate(all="ignore"):
            assert np.array_equal(bits(_sigmoid(block)), bits(masked_sigmoid(block)))


class TestSigmoidFloat32(TestSigmoid):
    DTYPE = np.float32
    # float32's exp overflows past 88.72 and underflows to 0 past -103.97
    EDGES = [0.0, -0.0, 1e-45, -1e-45, 1e-38, -1e-38, 40.0, -40.0,
             88.7, -88.7, 88.8, -88.8, 103.9, -103.9, 104.0, -104.0,
             np.inf, -np.inf, np.nan, -np.nan]


def concatenated_cell_backward(dh, dc_in, c_prev, gates):
    """The reference: every gate block a fresh product, joined by concatenate."""
    i, f, g, o, tc = gates
    dc = dc_in + dh * o * (1.0 - tc * tc)
    return np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                           dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1), dc


class TestCellBits:
    DTYPE = np.float64

    def normal(self, rng, size, scale=1.0):
        return rng.normal(scale=scale, size=size).astype(self.DTYPE)

    def uniform_gates(self, rng, b, u):
        return tuple(rng.uniform(-1.0, 1.0, size=(b, u)).astype(self.DTYPE) for _ in range(5))

    def test_cell_matches_separate_gate_calls(self, rng):
        a = self.normal(rng, (16, 4 * 5), scale=4.0)
        c_prev = self.normal(rng, (16, 5))
        i, f, o = (_sigmoid(a[:, k * 5 : (k + 1) * 5]) for k in (0, 1, 3))
        g = np.tanh(a[:, 10:15])
        c = f * c_prev + i * g
        h, c_new, _ = _cell(a, c_prev)
        assert h.dtype == c_new.dtype == self.DTYPE
        assert np.array_equal(bits(c_new), bits(c))
        assert np.array_equal(bits(h), bits(o * np.tanh(c)))

    @staticmethod
    def assert_same_bits(dh, dc_in, c_prev, gates):
        da, dc = _cell_backward(dh, dc_in, c_prev, gates)
        ref_da, ref_dc = concatenated_cell_backward(dh, dc_in, c_prev, gates)
        assert da.dtype == dc.dtype == dh.dtype
        assert np.array_equal(bits(da), bits(ref_da))
        assert np.array_equal(bits(dc), bits(ref_dc))

    def test_random_blocks(self, rng):
        b, u = 9, 7
        gates = self.uniform_gates(rng, b, u)
        self.assert_same_bits(self.normal(rng, (b, u)), self.normal(rng, (b, u)),
                              self.normal(rng, (b, u)), gates)

    def test_strided_gate_blocks(self, rng):
        # gates as the cell makes them: column views of fused arrays
        b, u = 12, 6
        _, _, gates = _cell(self.normal(rng, (b, 4 * u), scale=3.0), self.normal(rng, (b, u)))
        dh = self.normal(rng, (b, 2 * u))[:, ::2]
        c_prev = self.normal(rng, (b, 3 * u))[:, u : 2 * u]
        self.assert_same_bits(dh, self.normal(rng, (b, u)), c_prev, gates)

    def test_signed_zeros_in_incoming_cell_gradient(self, rng):
        b, u = 8, 4
        gates = self.uniform_gates(rng, b, u)
        dh = self.normal(rng, (b, u))
        dh[:4] = 0.0
        dh[:2] *= -1.0  # -0.0
        dc_in = np.zeros((b, u), self.DTYPE)
        dc_in[::2] = -0.0
        self.assert_same_bits(dh, dc_in, self.normal(rng, (b, u)), gates)
        self.assert_same_bits(-dh, dc_in, np.zeros((b, u), self.DTYPE), gates)


class TestCellBitsFloat32(TestCellBits):
    DTYPE = np.float32


class TestLstmStep:
    def test_zero_parameters_give_zero_state(self, rng):
        x = rng.normal(size=(3, 6))
        h, c, _ = lstm_step(
            x,
            np.zeros((3, 4)),
            np.zeros((3, 4)),
            np.zeros((6, 16)),
            np.zeros((4, 16)),
            np.zeros(16),
        )
        assert np.array_equal(h, np.zeros((3, 4)))
        assert np.array_equal(c, np.zeros((3, 4)))

    def test_saturated_forget_gate_preserves_cell(self, rng):
        units = 5
        b = np.zeros(4 * units)
        b[units : 2 * units] = 50.0  # forget gate pinned open
        c_prev = rng.normal(size=(2, units))
        _, c, _ = lstm_step(
            rng.normal(size=(2, 3)),
            np.zeros((2, units)),
            c_prev,
            np.zeros((3, 4 * units)),
            np.zeros((units, 4 * units)),
            b,
        )
        assert np.abs(c - c_prev).max() <= 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            lstm_step(
                np.zeros((2, 3)),
                np.zeros((2, 4)),
                np.zeros((2, 4)),
                np.zeros((5, 16)),
                np.zeros((4, 16)),
                np.zeros(16),
            )


def test_three_step_bptt_matches_finite_differences(rng):
    layer = make_layer(rng, 4, 3)
    x = rng.normal(size=(2, 3, 4))
    proj = rng.normal(size=(2, 3, 3))

    def loss():
        return float((layer.forward(x) * proj).sum())

    layer.forward(x)
    layer.zero_grads()
    dx = layer.backward(proj)

    h = 1e-5
    worst = 0.0
    for param, grad in (
        (layer.wx, layer.dwx),
        (layer.wh, layer.dwh),
        (layer.b, layer.db),
        (x, dx),
    ):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(numeric), abs(gflat[i]), 1e-4)
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    assert worst <= 1e-5


def test_layer_equals_explicit_step_loop_from_zero_state(rng):
    """The first-step path is exact: forward and BPTT over a length-4
    sequence equal, bit for bit, lstm_step/lstm_step_backward from h = c = 0."""
    layer = make_layer(rng, 5, 3)
    x = rng.normal(size=(2, 4, 5))
    d_out = rng.normal(size=(2, 4, 3))
    out = layer.forward(x)
    layer.zero_grads()
    dx = layer.backward(d_out)

    h = c = np.zeros((2, 3))
    caches, steps = [], []
    for t in range(4):
        h, c, cache = lstm_step(x[:, t, :], h, c, layer.wx, layer.wh, layer.b)
        steps.append(h)
        caches.append(cache)
    dwx, dwh, db = (np.zeros_like(w) for w in (layer.wx, layer.wh, layer.b))
    dx_loop = np.empty_like(x)
    dh_next = dc_next = np.zeros((2, 3))
    for t in range(3, -1, -1):
        dx_loop[:, t, :], dh_next, dc_next, gwx, gwh, gb = lstm_step_backward(
            d_out[:, t, :] + dh_next, dc_next, caches[t], layer.wx, layer.wh
        )
        dwx += gwx
        dwh += gwh
        db += gb
    assert np.array_equal(out, np.stack(steps, axis=1))
    assert np.array_equal(layer.dwx, dwx)
    assert np.array_equal(layer.dwh, dwh)
    assert np.array_equal(layer.db, db)
    assert np.array_equal(dx, dx_loop)


class TestLengthOneHoldsNoRecurrentMatrix:
    @pytest.mark.parametrize("kind", ["birnn", "lstm"])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_wh_exactly_when_a_second_step_exists(self, rng, kind, layers):
        for seq_length, has_wh in ((1, False), (2, True)):
            spec = ModelSpec(kind=kind, rnn_units=4, rnn_layers=layers, seq_length=seq_length)
            names = Classifier(spec, rng).params()
            wh = [n for n in names if n.endswith(".wh")]
            directions = 2 if kind == "birnn" else 1
            assert len(wh) == (layers * directions if has_wh else 0)

    def test_default_static_encoder_size(self, rng):
        params = Classifier(ModelSpec(), rng).params()
        assert sum(p.size for p in params.values()) == 8_197

    def test_every_static_encoder_parameter_reaches_a_logit(self, rng):
        spec = ModelSpec(rnn_units=16, dropout_p=0.0, l2_lambda=0.0)
        clf = Classifier(spec, rng)
        clf.loss_and_grads(rng.normal(size=(32, 1, 8)), rng.integers(0, 5, 32), np.ones(5))
        for name, grad in clf.grads().items():
            assert np.all(grad != 0.0), name

    @pytest.mark.parametrize("layers", [1, 2])
    def test_birnn_is_an_lstm_of_twice_the_units(self, rng, layers):
        def shapes(kind, units):
            spec = ModelSpec(kind=kind, rnn_units=units, rnn_layers=layers)
            return {k: v.shape for k, v in Classifier(spec, rng).params().items()}

        assert shapes("birnn", 5) == shapes("lstm", 10)


def test_length_one_bidirectional_lstm_is_dense_and_gate(rng):
    """A length-1 BidirectionalLSTM equals Dense + ZeroStateGate whose weights
    are both directions' [i, g, o] columns side by side; one matmul replaces
    two, so the match is to rounding, not bitwise."""
    units, n_in = 6, 8
    bi = BidirectionalLSTM.create(rng, n_in, units, top=True)
    bi.fwd.b[:] = rng.normal(size=4 * units)
    bi.bwd.b[:] = rng.normal(size=4 * units)

    def igo(m):
        return [m[..., k * units : (k + 1) * units] for k in (0, 2, 3)]

    w = np.concatenate([c for pair in zip(igo(bi.fwd.wx), igo(bi.bwd.wx)) for c in pair], axis=-1)
    b = np.concatenate([c for pair in zip(igo(bi.fwd.b), igo(bi.bwd.b)) for c in pair])
    dense, gate = Dense(w, b), ZeroStateGate()
    x = rng.normal(size=(5, 1, n_in))
    dy = rng.normal(size=(5, 2 * units))

    out = bi.forward(x)
    dx = bi.backward(dy)
    out_dg = gate.forward(dense.forward(x[:, 0, :]))
    dx_dg = dense.backward(gate.backward(dy))
    assert np.abs(out - out_dg).max() <= 1e-12
    assert np.abs(dx[:, 0, :] - dx_dg).max() <= 1e-12


class TestBidirectional:
    def test_seq1_width_contract(self, rng):
        bi = BidirectionalLSTM.create(rng, 8, 7, top=True)
        enc = bi.forward(rng.normal(size=(4, 1, 8)))
        assert enc.shape == (4, 14)

    def test_seq1_equals_two_explicit_cell_calls(self, rng):
        """At sequence length 1 the encoder IS two zero-state cell calls."""
        units = 6
        bi = BidirectionalLSTM.create(rng, 8, units, top=True)
        x = rng.normal(size=(5, 1, 8))
        enc = bi.forward(x)
        zeros = np.zeros((5, units))
        wh = np.zeros((units, 4 * units))
        hf, _, _ = lstm_step(x[:, 0, :], zeros, zeros, bi.fwd.wx, wh, bi.fwd.b)
        hb, _, _ = lstm_step(x[:, 0, :], zeros, zeros, bi.bwd.wx, wh, bi.bwd.b)
        explicit = np.concatenate([hf, hb], axis=1)
        assert np.array_equal(enc, explicit)  # bit-identical

    def test_palindrome_with_tied_parameters(self, rng):
        fwd = LSTMLayer.create(rng, 3, 4, name="f", top=True)
        bwd = LSTMLayer(fwd.wx.copy(), fwd.wh.copy(), fwd.b.copy(), name="b", top=True)
        bi = BidirectionalLSTM(fwd, bwd)
        half = rng.normal(size=(2, 3, 3))
        seq = np.concatenate([half, half[:, ::-1, :]], axis=1)  # palindrome
        enc = bi.forward(seq)
        assert np.array_equal(enc[:, :4], enc[:, 4:])

    def test_empty_sequence_rejected(self, rng):
        bi = BidirectionalLSTM.create(rng, 3, 2)
        with pytest.raises(ValueError, match="non-empty"):
            bi.forward(np.zeros((2, 0, 3)))

    def test_encoder_backward_matches_finite_differences(self, rng):
        bi = BidirectionalLSTM.create(rng, 3, 2, top=True)
        x = rng.normal(size=(2, 4, 3))
        proj = rng.normal(size=(2, 4))

        def loss():
            enc = bi.forward(x)
            return float((enc * proj).sum())

        bi.forward(x)
        bi.zero_grads()
        dx = bi.backward(proj)
        h = 1e-5
        flat = x.reshape(-1)
        gflat = dx.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            assert abs(gflat[i] - (plus - minus) / (2 * h)) < 1e-6
