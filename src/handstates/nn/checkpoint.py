"""Checkpoints: a trained ``Classifier`` and its metadata, persisted as a
single JSON document holding the model spec, named row-major parameter
tensors, batch-norm running statistics, the classifier's feature
standardization vectors and the label order.

Schema 4 stores the float32 parameters and batch-norm statistics of a
float32 ``Classifier``, and its float64 standardization vectors. Floats are
serialized with their shortest round-tripping decimal representation (a
float32 value through ``tolist``, as the float64 it equals exactly), so
save -> load -> predict is bit-identical to predicting with the in-memory
model. Only the parameters that reach a logit are stored: a length-1
recurrent layer is a ``Dense`` layer of input, candidate and output gate
columns, with no forget gate and no recurrent matrix ``wh``. ``load`` builds
the classifier once, from the stored spec, restores its ``state`` and keeps
it. Files of any other schema are refused, not migrated, and so are files
whose parameters, batch-norm layers or standardization vectors do not fit
their spec or are not finite (parameters and statistics as float32), whose
batch-norm variance is negative, whose standardization std is not > 0, or
whose recorded split holds a seed below 0 or a test fraction outside (0, 1).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..features import CLASS_NAMES
from .model import Classifier, ModelSpec

SCHEMA_VERSION = 4
PARAM_DTYPE = np.float32  # of the stored parameters and batch-norm statistics


@dataclass
class Checkpoint:
    """A trained classifier with its metadata."""

    model: Classifier
    meta: dict = field(default_factory=dict)

    @property
    def spec(self) -> ModelSpec:
        return self.model.spec


def to_classifier(spec: ModelSpec, state: dict) -> Classifier:
    """Build the stored model; ``state`` overwrites the random init."""
    clf = Classifier(spec, np.random.default_rng(0), dtype=PARAM_DTYPE)
    clf.load_state(state)
    return clf


def save(ckpt: Checkpoint, path) -> None:
    clf = ckpt.model
    if clf.dtype != PARAM_DTYPE:
        raise ValueError(f"a checkpoint stores a {np.dtype(PARAM_DTYPE)} model, not {clf.dtype}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": asdict(clf.spec),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in clf.params().items()
        },
        "batchnorm": {
            bn.name: {"mean": bn.running_mean.tolist(), "var": bn.running_var.tolist()}
            for bn in clf.batchnorm_layers()
        },
        "standardization": None
        if clf.feature_mean is None
        else {"mean": clf.feature_mean.tolist(), "std": clf.feature_std.tolist()},
        "label_order": list(CLASS_NAMES),
        "meta": ckpt.meta,
    }
    # json.dumps runs the C encoder; json.dump always runs the Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _finite(what: str, values, dtype=np.float64) -> np.ndarray:
    with np.errstate(over="ignore"):  # a value past the dtype's range is inf
        arr = np.asarray(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite values")
    return arr


def _object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, not {type(value).__name__}")
    return value


def load(path) -> Checkpoint:
    """Read a checkpoint; a malformed one raises a ValueError naming ``path``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        version = doc.get("schema_version") if isinstance(doc, dict) else None
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema_version {version} is not {SCHEMA_VERSION}; "
                "retrain the model to write a current checkpoint"
            )
        state = {
            name: _finite(name, entry["data"], PARAM_DTYPE).reshape(entry["shape"])
            for name, entry in _object("params", doc["params"]).items()
        }
        for name, stats in _object("batchnorm", doc.get("batchnorm", {})).items():
            for key in ("mean", "var"):
                state[f"{name}.{key}"] = _finite(f"{name}.{key}", stats[key], PARAM_DTYPE)
            if (state[f"{name}.var"] < 0).any():
                raise ValueError(f"{name}.var has negative values")
        label_order = list(doc["label_order"])
        if label_order != list(CLASS_NAMES):
            raise ValueError(f"label_order {label_order} is not {list(CLASS_NAMES)}")
        spec = ModelSpec(**doc["spec"])
        mean = std = None
        if (stored := doc.get("standardization")) is not None:
            mean = _finite("standardization mean", stored["mean"])
            std = _finite("standardization std", stored["std"])
            if not mean.shape == std.shape == (spec.input_dim,):
                raise ValueError(
                    f"standardization vectors of shapes {mean.shape} and {std.shape}, "
                    f"expected {(spec.input_dim,)}"
                )
            if not (std > 0).all():
                raise ValueError("standardization std must be > 0")
        meta = _object("meta", doc.get("meta", {}))
        split = _object("meta.split", meta.get("split", {}))
        if type(seed := split.get("seed", 0)) is not int or seed < 0:
            raise ValueError(f"meta.split.seed {seed!r} is not an integer >= 0")
        if type(fraction := split.get("test_fraction", 0.5)) is not float or not 0 < fraction < 1:
            raise ValueError(f"meta.split.test_fraction {fraction!r} is not a number in (0, 1)")
        # the build checks that the parameters and batch-norm layers fit the spec
        clf = to_classifier(spec, state)
        clf.feature_mean, clf.feature_std = mean, std
        return Checkpoint(clf, meta)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def predict(ckpt: Checkpoint, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and argmax labels for raw model input (as gathered by
    ``features.windows``), which the model checks and standardizes itself.

    Inference is deterministic: dropout is off and batch-norm uses the stored
    running statistics, and the same rows give the same bits. Rows go through
    ``Classifier.logits`` in blocks, in float32, and another split of the
    rows can change a probability in its last float32 bits: BLAS sums a
    block's tail rows with other kernels than its body, and a lone row on its
    matrix-vector path. Measured on the seed-7 corpus's static encoder, MLP
    and seq-5 BiLSTM: up to 5e-7 for lone rows, 1e-7 for blocks of 2 or 7.
    """
    probs = ckpt.model.predict_proba(features)
    return probs, probs.argmax(axis=1)
