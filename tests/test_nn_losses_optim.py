"""Weighted cross-entropy, balanced class weights and the Adam optimizer."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import bits

from handstates.nn.losses import balanced_class_weights, softmax_cross_entropy
from handstates.nn.optim import Adam

UNIT = np.ones(5)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_ln_k(self):
        logits = np.zeros((3, 5))
        loss, _ = softmax_cross_entropy(logits, [0, 2, 4], UNIT)
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_scalar_oracle(self):
        logits = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, [0], UNIT)
        expected = -math.log(math.exp(2.0) / (math.exp(2.0) + 4.0))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_doubling_weights_doubles_loss_and_grad(self, rng):
        logits = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, 6)
        loss1, grad1 = softmax_cross_entropy(logits, y, UNIT)
        loss2, grad2 = softmax_cross_entropy(logits, y, 2.0 * UNIT)
        assert loss2 == pytest.approx(2.0 * loss1, rel=1e-12)
        assert np.allclose(grad2, 2.0 * grad1, rtol=1e-12, atol=0.0)

    def test_unit_weights_reduce_to_unweighted(self, rng):
        logits = rng.normal(size=(4, 5))
        y = rng.integers(0, 5, 4)
        loss, _ = softmax_cross_entropy(logits, y, UNIT)
        logp = logits - logits.max(1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(1, keepdims=True))
        expected = -logp[np.arange(4), y].mean()
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 5))
        y = np.array([1, 4, 0])
        w = np.array([1.0, 2.0, 0.5, 1.5, 3.0])
        _, grad = softmax_cross_entropy(logits, y, w)
        h = 1e-6
        for i in range(3):
            for j in range(5):
                logits[i, j] += h
                plus, _ = softmax_cross_entropy(logits, y, w)
                logits[i, j] -= 2 * h
                minus, _ = softmax_cross_entropy(logits, y, w)
                logits[i, j] += h
                assert grad[i, j] == pytest.approx((plus - minus) / (2 * h), abs=1e-7)

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 0.0, 0.0, 0.0]])
        loss, grad = softmax_cross_entropy(logits, [1], UNIT)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="0..4"):
            softmax_cross_entropy(np.zeros((1, 5)), [5], UNIT)


class TestBalancedClassWeights:
    def test_formula(self):
        w = balanced_class_weights([10, 30, 60])
        assert np.allclose(w, [100 / 30, 100 / 90, 100 / 180])

    def test_uniform_counts_give_unit_weights(self):
        assert np.allclose(balanced_class_weights([7, 7, 7, 7]), 1.0)

    def test_zero_count_class_gets_zero_weight(self):
        w = balanced_class_weights([5, 0, 5])
        assert w[1] == 0.0
        assert np.allclose(w[[0, 2]], 10 / (2 * 5))

    def test_imbalanced_supports_order_weights(self):
        # supports shaped like a heavily imbalanced 5-class corpus: the
        # majority class gets the smallest weight, the rarest the largest
        counts = np.array([377, 260, 2774, 405, 306])
        w = balanced_class_weights(counts)
        assert w.argmin() == 2  # holding (majority)
        assert w.argmax() == 1  # grabbing (rarest)
        assert np.allclose(w, counts.sum() / (5 * counts))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = {"w": np.array([1.0, -2.0])}
        opt = Adam(p, lr=0.1)
        opt.step({"w": np.zeros(2)})
        assert np.array_equal(p["w"], [1.0, -2.0])

    def test_constant_gradient_step_approaches_lr_sign(self):
        p = {"w": np.array([0.0])}
        opt = Adam(p, lr=0.01)
        prev = p["w"].copy()
        step = None
        for _ in range(500):
            opt.step({"w": np.array([3.0])})
            step = p["w"] - prev
            prev = p["w"].copy()
        assert step[0] == pytest.approx(-0.01, rel=1e-3)

    def test_deterministic_trajectories(self, rng):
        grads = [rng.normal(size=4) for _ in range(20)]

        def run():
            p = {"w": np.zeros(4)}
            opt = Adam(p, lr=0.05)
            for g in grads:
                opt.step({"w": g})
            return p["w"]

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_step_is_the_textbook_expression_bit_for_bit(self, rng, dtype):
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.003
        shapes = {"w": (7, 5), "b": (5,)}
        p = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
        ref_p = {k: v.copy() for k, v in p.items()}
        m = {k: np.zeros_like(v) for k, v in p.items()}
        v = {k: np.zeros_like(w) for k, w in p.items()}
        opt = Adam(p, lr=lr)
        for t in range(1, 6):
            grads = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
            opt.step(grads)
            b1t, b2t = 1.0 - beta1**t, 1.0 - beta2**t
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1.0 - beta1) * g
                v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
                ref_p[k] -= lr * (m[k] / b1t) / (np.sqrt(v[k] / b2t) + eps)
        for k in shapes:
            assert opt.m[k].dtype == opt.v[k].dtype == p[k].dtype == dtype
            assert np.array_equal(bits(p[k]), bits(ref_p[k]))
            assert np.array_equal(bits(opt.m[k]), bits(m[k]))
            assert np.array_equal(bits(opt.v[k]), bits(v[k]))

    def test_step_allocates_no_arrays(self, rng):
        p = {"w": np.zeros((64, 32), np.float32)}
        opt = Adam(p, lr=0.01)
        grads = {"w": rng.normal(size=(64, 32)).astype(np.float32)}
        opt.step(grads)  # any lazy first-call set-up
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p["w"].nbytes
