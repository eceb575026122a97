"""Classifier architectures: regularized MLP and gated recurrent encoders.

A ``ModelSpec`` declares the architecture; ``Classifier`` builds it as one
list of layers and exposes named parameters, exact gradients and inference.
An MLP stacks Dense, optional BatchNorm, ReLU and optional Dropout blocks. A
recurrent model stacks (bi)directional LSTM layers: each lower layer hands
every step's hidden state up, the top one only its final state, which goes
through optional batch-norm and dropout into a linear softmax head. At
``seq_length=1`` each recurrent layer is the static encoder it then is: a
``Dense`` layer into 3 * width gate pre-activations and a ``ZeroStateGate``,
width being 2 * rnn_units for ``birnn`` and rnn_units for ``lstm``.

A classifier owns everything between raw feature rows and logits. With
``feature_mean`` and ``feature_std`` set (``train`` sets them unless told
not to standardize), each input is standardized in float64 as it comes in.
It computes in one dtype, float32 by default: parameters, gradients,
activations and the optimizer's moments. Inputs are cast to it after
standardization, and the loss and probabilities are taken in float64 from
the logits. Gradient checks build a float64 classifier. ``state`` and
``load_state`` copy and restore everything training changes: parameters
and batch-norm running statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..features import FEATURE_DIM, NUM_CLASSES
from .layers import BatchNorm, Dense, Dropout, Layer, ReLU
from .losses import softmax, softmax_cross_entropy
from .recurrent import BidirectionalLSTM, LSTMLayer, ZeroStateGate

KINDS = ("mlp", "birnn", "lstm")
LOGIT_BLOCK = 512  # rows per inference forward pass, so its caches stay small


@dataclass(frozen=True)
class ModelSpec:
    """Declarative architecture description (stored in checkpoints); the
    defaults are the paper's static encoder, a BiLSTM over one feature row."""

    kind: str = "birnn"
    input_dim: int = FEATURE_DIM
    hidden: tuple[int, ...] = (128, 64, 32)
    rnn_units: int = 128
    rnn_layers: int = 1
    seq_length: int = 1
    dropout_p: float = 0.3
    l2_lambda: float = 1e-4
    use_batchnorm: Optional[bool] = None  # resolved by kind when None
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 2:
            raise ValueError("input_dim must be >= 1 and num_classes >= 2")
        if self.kind == "mlp" and not self.hidden:
            raise ValueError("mlp needs at least one hidden layer")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        if self.kind != "mlp" and (self.rnn_units < 1 or self.rnn_layers < 1):
            raise ValueError("recurrent models need rnn_units, rnn_layers >= 1")
        if self.seq_length < 1:
            raise ValueError("seq_length must be >= 1")
        if self.kind == "mlp" and self.seq_length != 1:
            raise ValueError(f"mlp takes one row, not seq_length {self.seq_length}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if not self.l2_lambda >= 0.0:
            raise ValueError("l2_lambda must be >= 0")
        if self.use_batchnorm is None:
            object.__setattr__(self, "use_batchnorm", self.kind == "mlp")
        object.__setattr__(self, "hidden", tuple(self.hidden))


class Classifier(Layer):
    """One stack of layers for one ModelSpec, the softmax head last.

    Every layer maps ``forward(x, train, rng)`` and ``backward(dy)``, so the
    forward pass is one loop over the stack and the backward pass the same
    loop reversed. The classifier is itself a ``Layer`` whose ``slots()``
    are those of its layers in stack order. ``feature_mean`` and
    ``feature_std``, float64 vectors of ``input_dim`` values or both
    ``None``, standardize every input.
    """

    def __init__(self, spec: ModelSpec, rng: np.random.Generator, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.feature_mean: np.ndarray | None = None
        self.feature_std: np.ndarray | None = None
        layers: list[Layer] = []
        n_in = spec.input_dim
        if spec.kind == "mlp":
            for i, width in enumerate(spec.hidden):
                layers.append(Dense.create(rng, n_in, width, l2=spec.l2_lambda, name=f"dense{i}",
                                           dtype=dtype))
                if spec.use_batchnorm:
                    layers.append(BatchNorm.create(width, name=f"bn{i}", dtype=dtype))
                layers.append(ReLU())
                if spec.dropout_p > 0:
                    layers.append(Dropout(spec.dropout_p))
                n_in = width
        else:
            cell = BidirectionalLSTM if spec.kind == "birnn" else LSTMLayer
            width = 2 * spec.rnn_units if spec.kind == "birnn" else spec.rnn_units
            for i in range(spec.rnn_layers):
                if spec.seq_length == 1:
                    layers += [Dense.create(rng, n_in, 3 * width, l2=spec.l2_lambda,
                                            name=f"rnn{i}", dtype=dtype), ZeroStateGate()]
                else:
                    layers.append(cell.create(rng, n_in, spec.rnn_units, l2=spec.l2_lambda,
                                              name=f"rnn{i}", top=i == spec.rnn_layers - 1,
                                              dtype=dtype))
                n_in = width
            if spec.use_batchnorm:
                layers.append(BatchNorm.create(n_in, name="enc_bn", dtype=dtype))
            if spec.dropout_p > 0:
                layers.append(Dropout(spec.dropout_p))
        layers.append(Dense.create(rng, n_in, spec.num_classes, l2=spec.l2_lambda, name="head",
                                   dtype=dtype))
        self.layers = layers

    # -- parameter plumbing ------------------------------------------------

    def slots(self):
        return [slot for layer in self.layers for slot in layer.slots()]

    def batchnorm_layers(self) -> list[BatchNorm]:
        return [layer for layer in self.layers if isinstance(layer, BatchNorm)]

    def _state_arrays(self) -> dict[str, np.ndarray]:
        arrays = self.params()
        for bn in self.batchnorm_layers():
            arrays[f"{bn.name}.mean"] = bn.running_mean
            arrays[f"{bn.name}.var"] = bn.running_var
        return arrays

    def state(self) -> dict[str, np.ndarray]:
        """Copies of the parameters and batch-norm running statistics
        (``<bn>.mean``, ``<bn>.var``), by name."""
        return {name: arr.copy() for name, arr in self._state_arrays().items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite what ``state`` names, cast to the model's dtype; the
        names and shapes must be those of ``state()``."""
        own = self._state_arrays()
        if set(own) != set(state):
            raise ValueError(f"state names do not match spec: {sorted(set(own) ^ set(state))}")
        for name, arr in own.items():
            incoming = np.asarray(state[name])
            if incoming.shape != arr.shape:
                raise ValueError(f"{name}: shape {incoming.shape} != expected {arr.shape}")
            arr[:] = incoming

    # -- forward / backward -------------------------------------------------

    def _shape_input(self, x: np.ndarray) -> np.ndarray:
        # The one check on model input. A length-1 model, the MLP included,
        # runs on (batch, input_dim) and also takes (batch, 1, input_dim).
        spec = self.spec
        x = np.asarray(x)
        if spec.seq_length == 1:
            if x.ndim == 3 and x.shape[1] == 1:
                x = x[:, 0, :]
            expected, dims = (spec.input_dim,), f"input_dim={spec.input_dim}"
        else:
            expected = (spec.seq_length, spec.input_dim)
            dims = f"seq_length={spec.seq_length}, input_dim={spec.input_dim}"
        if x.shape[1:] != expected:
            raise ValueError(f"{spec.kind} expects input of shape (batch, {dims}), got {x.shape}")
        if self.feature_mean is not None:
            x = (np.asarray(x, dtype=np.float64) - self.feature_mean) / self.feature_std
        return np.asarray(x, dtype=self.dtype)

    def forward(
        self, x: np.ndarray, train: bool = False, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        out = self._shape_input(x)
        for layer in self.layers:
            out = layer.forward(out, train, rng)
        return out

    def backward(self, dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients (including L2 terms) from dlogits."""
        dy = dlogits
        for layer in reversed(self.layers):
            dy = layer.backward(dy)

    def penalty(self) -> float:
        # The head's term comes first: float summation order is part of every
        # reported loss, and val_loss picks the best epoch.
        total = self.layers[-1].penalty()
        for layer in self.layers[:-1]:
            total += layer.penalty()
        return total

    def loss_and_grads(
        self,
        x: np.ndarray,
        y: np.ndarray,
        class_weights: np.ndarray,
        train: bool = True,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, np.ndarray]:
        """Weighted cross-entropy of the batch and its logits; gradients accumulate.

        The gradients include the L2 terms, the returned loss does not: the
        penalty is summed over every matrix, so it is added only where a
        loss is reported (``penalty``).
        """
        self.zero_grads()
        logits = self.forward(x, train=train, rng=rng)
        data_loss, dlogits = softmax_cross_entropy(logits, y, class_weights)
        self.backward(dlogits)
        return data_loss, logits

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Inference logits, one ``forward`` per ``array_split`` block of <= LOGIT_BLOCK rows."""
        blocks = np.array_split(x, max(1, -(-len(x) // LOGIT_BLOCK)))
        return np.concatenate([self.forward(block) for block in blocks])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities in float64, whatever the model's dtype."""
        return softmax(self.logits(x))
