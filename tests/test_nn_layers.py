"""Layer-level gradient and behaviour tests (dense, batch-norm, dropout), and
the parameter declaration every layer with parameters makes in ``slots()``."""

import numpy as np
import pytest

from handstates.nn.layers import BatchNorm, Dense, Dropout, ReLU
from handstates.nn.model import Classifier, ModelSpec
from handstates.nn.recurrent import BidirectionalLSTM, LSTMLayer


def finite_diff(loss_fn, param, h=1e-5):
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = loss_fn()
        flat[i] = orig - h
        minus = loss_fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * h)
    return grad


class TestDense:
    def test_identity_map(self, rng):
        layer = Dense(np.eye(4), np.zeros(4))
        x = np.abs(rng.normal(size=(3, 4)))
        out = ReLU().forward(layer.forward(x))
        assert np.array_equal(out, x)

    def test_gradients_match_finite_differences(self, rng):
        layer = Dense(rng.normal(size=(8, 5)), rng.normal(size=5), l2=0.0)
        x = rng.normal(size=(4, 8))
        proj = rng.normal(size=(4, 5))  # fixed projection to a scalar loss

        def loss():
            return float((layer.forward(x) * proj).sum())

        layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(proj)
        for param, grad in ((layer.w, layer.dw), (layer.b, layer.db)):
            numeric = finite_diff(loss, param)
            assert np.abs(grad - numeric).max() / max(np.abs(numeric).max(), 1) < 1e-6
        numeric_dx = finite_diff(loss, x)
        assert np.abs(dx - numeric_dx).max() < 1e-6

    @pytest.mark.parametrize("kind", ["dense", "lstm"])
    def test_l2_adds_two_lambda_w_exactly(self, rng, kind):
        # the weight matrices are penalised, the bias is not
        if kind == "dense":
            cls, extra, weights = Dense, {}, {"w": rng.normal(size=(6, 3))}
            x, bias = rng.normal(size=(5, 6)), rng.normal(size=3)
        else:
            cls, extra = LSTMLayer, {"top": True}
            weights = {"wx": rng.normal(size=(6, 12)), "wh": rng.normal(size=(3, 12))}
            x, bias = rng.normal(size=(5, 4, 6)), rng.normal(size=12)
        plain, penalised = (cls(*(w.copy() for w in weights.values()), bias.copy(), l2=l2,
                                name=kind, **extra) for l2 in (0.0, 0.1))
        dy = rng.normal(size=(5, 3))
        for layer in (plain, penalised):
            layer.forward(x)
            layer.backward(dy)
        for name, grad in penalised.grads().items():
            param = weights.get(name.split(".")[1], np.zeros_like(grad))
            assert np.allclose(grad - plain.grads()[name], 2 * 0.1 * param, atol=0.0), name
        assert penalised.penalty() == pytest.approx(0.1 * sum((w**2).sum() for w in weights.values()))
        assert plain.penalty() == 0.0

    def test_shape_mismatch(self, rng):
        layer = Dense(rng.normal(size=(4, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="width"):
            layer.forward(np.zeros((3, 5)))


class TestBatchNorm:
    def test_infer_identity_with_neutral_stats(self, rng):
        bn = BatchNorm.create(6)
        x = rng.normal(size=(9, 6))
        out = bn.forward(x, train=False)
        assert np.allclose(out, x, atol=1e-4)  # eps shifts the scale slightly

    def test_train_mode_normalizes(self, rng):
        bn = BatchNorm.create(5)
        x = rng.normal(size=(64, 5)) * 100.0  # large variance drowns eps
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_running_stats_blend(self, rng):
        bn = BatchNorm.create(3)
        x = rng.normal(size=(32, 3)) + 5.0
        bn.forward(x, train=True)
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0))
        assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_gradients_match_finite_differences(self, rng):
        bn = BatchNorm(rng.uniform(0.5, 1.5, 8), rng.normal(size=8))
        x = rng.normal(size=(8, 8))
        proj = rng.normal(size=(8, 8))

        def loss():
            return float((bn.forward(x, train=True) * proj).sum())

        bn.forward(x, train=True)
        bn.zero_grads()
        dx = bn.backward(proj)
        for param, grad in ((bn.gamma, bn.dgamma), (bn.beta, bn.dbeta)):
            numeric = finite_diff(loss, param)
            assert np.abs(grad - numeric).max() < 1e-5
        numeric_dx = finite_diff(loss, x)
        assert np.abs(dx - numeric_dx).max() < 1e-5

    def test_single_row_train_batch_rejected(self):
        bn = BatchNorm.create(4)
        with pytest.raises(ValueError, match=">= 2"):
            bn.forward(np.zeros((1, 4)), train=True)


class TestDropout:
    def test_p_zero_is_identity(self, rng):
        x = rng.normal(size=(5, 5))
        layer = Dropout(0.0)
        assert np.array_equal(layer.forward(x, train=True, rng=rng), x)
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_infer_mode_is_identity(self, rng):
        x = rng.normal(size=(5, 5))
        assert np.array_equal(Dropout(0.7).forward(x, train=False), x)

    def test_keep_fraction_and_expectation(self):
        rng = np.random.default_rng(3)
        x = np.ones((400, 400))
        out = Dropout(0.5).forward(x, train=True, rng=rng)
        kept = (out != 0).mean()
        assert abs(kept - 0.5) < 0.02
        assert abs(out.mean() - 1.0) < 0.02

    def test_mask_reproducible_from_seed(self):
        x = np.ones((20, 20))
        a = Dropout(0.4).forward(x, train=True, rng=np.random.default_rng(9))
        b = Dropout(0.4).forward(x, train=True, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


DECLARED = {
    # name: (layer from an RNG, input rows or sequences)
    "dense": (lambda rng: Dense.create(rng, 6, 4, l2=0.1), (5, 6)),
    "batchnorm": (lambda rng: BatchNorm.create(6), (5, 6)),
    "lstm": (lambda rng: LSTMLayer.create(rng, 6, 4, l2=0.1), (5, 3, 6)),
    "bilstm": (lambda rng: BidirectionalLSTM.create(rng, 6, 4, l2=0.1, top=True), (5, 3, 6)),
    "classifier-mlp": (lambda rng: Classifier(ModelSpec(kind="mlp", hidden=(8, 4)), rng), (5, 8)),
    "classifier-birnn": (lambda rng: Classifier(ModelSpec(kind="birnn", rnn_units=4), rng),
                         (5, 8)),
    "classifier-lstm": (lambda rng: Classifier(ModelSpec(kind="lstm", rnn_units=4, seq_length=3),
                                               rng), (5, 3, 8)),
}


@pytest.mark.parametrize("name", list(DECLARED))
def test_each_parameter_has_one_gradient_that_zero_grads_clears(rng, name):
    build, shape = DECLARED[name]
    layer = build(rng)
    params, grads = layer.params(), layer.grads()
    assert params and list(params) == list(grads)
    assert {k: p.shape for k, p in params.items()} == {k: g.shape for k, g in grads.items()}
    # the dictionaries hold the layer's own arrays, which backward fills
    out = layer.forward(rng.normal(size=shape), train=True, rng=rng)
    layer.backward(rng.normal(size=out.shape))
    assert all(np.any(g) for g in grads.values())
    layer.zero_grads()
    assert all(not np.any(g) for g in grads.values())
    assert all(a is b for a, b in zip(params.values(), layer.params().values()))
