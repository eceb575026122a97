"""Classifier architectures: regularized MLP and gated recurrent encoders.

A ``ModelSpec`` declares the architecture; ``Classifier`` wires the layers
and exposes named parameters, exact gradients and inference. Recurrent
models encode each sample with stacked (bi)directional LSTM layers and feed
the final hidden state(s) through dropout into a linear softmax head. At
``seq_length=1`` every layer runs only its zero-state first step and holds
no recurrent matrix, so the cell is a static encoder.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .layers import BatchNorm, Dense, Dropout, ReLU
from .losses import softmax, softmax_cross_entropy
from .recurrent import BidirectionalLSTM, LSTMLayer

KINDS = ("mlp", "birnn", "lstm")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture description (stored in checkpoints)."""

    kind: str = "birnn"
    input_dim: int = 8
    hidden: tuple[int, ...] = (128, 64, 32)
    rnn_units: int = 128
    rnn_layers: int = 1
    seq_length: int = 1
    dropout_p: float = 0.3
    l2_lambda: float = 1e-4
    use_batchnorm: Optional[bool] = None  # resolved by kind when None
    num_classes: int = 5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("mlp needs at least one hidden layer")
        if self.kind != "mlp" and (self.rnn_units < 1 or self.rnn_layers < 1):
            raise ValueError("recurrent models need rnn_units, rnn_layers >= 1")
        if self.seq_length < 1:
            raise ValueError("seq_length must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.l2_lambda < 0.0:
            raise ValueError("l2_lambda must be >= 0")
        if self.use_batchnorm is None:
            object.__setattr__(self, "use_batchnorm", self.kind == "mlp")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        d = dict(d)
        d["hidden"] = tuple(d.get("hidden", ()))
        return cls(**d)


@dataclass
class _MlpBlock:
    dense: Dense
    bn: Optional[BatchNorm]
    relu: ReLU = field(default_factory=ReLU)
    dropout: Optional[Dropout] = None


class Classifier:
    """Forward/backward engine for one ModelSpec."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        self._blocks: list[_MlpBlock] = []
        self._rnns: list = []
        self._enc_bn: Optional[BatchNorm] = None
        self._enc_dropout: Optional[Dropout] = None

        if spec.kind == "mlp":
            n_in = spec.input_dim
            for i, width in enumerate(spec.hidden):
                dense = Dense.create(rng, n_in, width, l2=spec.l2_lambda, name=f"dense{i}")
                bn = BatchNorm.create(width, name=f"bn{i}") if spec.use_batchnorm else None
                dropout = Dropout(spec.dropout_p) if spec.dropout_p > 0 else None
                self._blocks.append(_MlpBlock(dense=dense, bn=bn, dropout=dropout))
                n_in = width
            head_in = n_in
        else:
            n_in = spec.input_dim
            cell = BidirectionalLSTM if spec.kind == "birnn" else LSTMLayer
            for i in range(spec.rnn_layers):
                layer = cell.create(
                    rng, n_in, spec.rnn_units, l2=spec.l2_lambda, name=f"rnn{i}",
                    recurrent=spec.seq_length > 1,
                )
                n_in = 2 * spec.rnn_units if spec.kind == "birnn" else spec.rnn_units
                self._rnns.append(layer)
            head_in = n_in
            if spec.use_batchnorm:
                self._enc_bn = BatchNorm.create(head_in, name="enc_bn")
            if spec.dropout_p > 0:
                self._enc_dropout = Dropout(spec.dropout_p)
        self._head = Dense.create(rng, head_in, spec.num_classes, l2=spec.l2_lambda, name="head")

    # -- parameter plumbing ------------------------------------------------

    def _layers_with_params(self):
        for block in self._blocks:
            yield block.dense
            if block.bn is not None:
                yield block.bn
        yield from self._rnns
        if self._enc_bn is not None:
            yield self._enc_bn
        yield self._head

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self._layers_with_params():
            out.update(layer.params())
        return out

    def grads(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self._layers_with_params():
            out.update(layer.grads())
        return out

    def zero_grads(self) -> None:
        for layer in self._layers_with_params():
            layer.zero_grads()

    def set_params(self, values: dict[str, np.ndarray]) -> None:
        own = self.params()
        if set(own) != set(values):
            missing = set(own) ^ set(values)
            raise ValueError(f"parameter names do not match spec: {sorted(missing)}")
        for name, arr in own.items():
            incoming = np.asarray(values[name], dtype=np.float64)
            if incoming.shape != arr.shape:
                raise ValueError(
                    f"{name}: shape {incoming.shape} != expected {arr.shape}"
                )
            arr[:] = incoming

    def batchnorm_layers(self) -> list[BatchNorm]:
        layers = [b.bn for b in self._blocks if b.bn is not None]
        if self._enc_bn is not None:
            layers.append(self._enc_bn)
        return layers

    @property
    def has_batchnorm(self) -> bool:
        return bool(self.batchnorm_layers())

    # -- forward / backward -------------------------------------------------

    def _shape_input(self, x: np.ndarray) -> np.ndarray:
        spec = self.spec
        x = np.asarray(x, dtype=np.float64)
        if spec.kind == "mlp":
            if x.ndim != 2 or x.shape[1] != spec.input_dim:
                raise ValueError(f"mlp expects (batch, {spec.input_dim}) input, got {x.shape}")
            return x
        if x.ndim == 2 and spec.seq_length == 1:
            x = x[:, None, :]
        if x.ndim != 3 or x.shape[1] != spec.seq_length or x.shape[2] != spec.input_dim:
            raise ValueError(
                f"{spec.kind} expects (batch, {spec.seq_length}, {spec.input_dim}) "
                f"input, got {x.shape}"
            )
        return x

    def forward(
        self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        x = self._shape_input(x)
        if self.spec.kind == "mlp":
            out = x
            for block in self._blocks:
                out = block.dense.forward(out, train)
                if block.bn is not None:
                    out = block.bn.forward(out, train)
                out = block.relu.forward(out, train)
                if block.dropout is not None:
                    out = block.dropout.forward(out, train, rng)
            return self._head.forward(out, train)

        steps = x
        encoding = None
        for layer in self._rnns:
            if isinstance(layer, BidirectionalLSTM):
                steps, encoding = layer.forward(steps)
            else:
                steps = layer.forward(steps)
                encoding = steps[:, -1, :]
        out = encoding
        if self._enc_bn is not None:
            out = self._enc_bn.forward(out, train)
        if self._enc_dropout is not None:
            out = self._enc_dropout.forward(out, train, rng)
        return self._head.forward(out, train)

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients (including L2 terms) from dlogits."""
        dy = self._head.backward(dlogits)
        if self.spec.kind == "mlp":
            for block in reversed(self._blocks):
                if block.dropout is not None:
                    dy = block.dropout.backward(dy)
                dy = block.relu.backward(dy)
                if block.bn is not None:
                    dy = block.bn.backward(dy)
                dy = block.dense.backward(dy)
            return
        if self._enc_dropout is not None:
            dy = self._enc_dropout.backward(dy)
        if self._enc_bn is not None:
            dy = self._enc_bn.backward(dy)
        d_steps = None
        d_encoding = dy
        for layer in reversed(self._rnns):
            if isinstance(layer, BidirectionalLSTM):
                d_in = layer.backward(d_steps, d_encoding)
            else:
                d_out = np.zeros((dy.shape[0], len(layer._caches), layer.units))
                if d_steps is not None:
                    d_out += d_steps
                if d_encoding is not None:
                    d_out[:, -1, :] += d_encoding
                d_in = layer.backward(d_out)
            layer.add_penalty_grads()
            d_steps = d_in
            d_encoding = None

    def penalty(self) -> float:
        total = self._head.penalty()
        for block in self._blocks:
            total += block.dense.penalty()
        for layer in self._rnns:
            total += layer.penalty()
        return total

    def loss_and_grads(
        self,
        x: np.ndarray,
        y: np.ndarray,
        class_weights: np.ndarray,
        train: bool = True,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Weighted cross-entropy plus L2 penalty; gradients accumulate."""
        self.zero_grads()
        logits = self.forward(x, train=train, rng=rng)
        data_loss, dlogits = softmax_cross_entropy(logits, y, class_weights)
        self.backward(dlogits)
        return data_loss + self.penalty()

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.forward(x, train=False))
