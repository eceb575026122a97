"""Checkpoint persistence: a single JSON document holding the model spec,
named row-major parameter tensors, batch-norm running statistics, feature
standardization vectors and the label order.

Floats are serialized with their shortest round-tripping decimal
representation, so save -> load -> predict is bit-identical to predicting
with the in-memory model. Schema 2 stores only the parameters the model
holds: a length-1 recurrent model has no recurrent matrix ``wh``. Files of
any other schema are refused, not migrated, and so are files whose
parameters, batch-norm layers or standardization vectors do not fit their
spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..features import CLASS_NAMES
from .model import Classifier, ModelSpec

SCHEMA_VERSION = 2


@dataclass
class Checkpoint:
    spec: ModelSpec
    params: dict[str, np.ndarray]
    bn_stats: dict[str, dict[str, np.ndarray]]
    feature_mean: np.ndarray | None
    feature_std: np.ndarray | None
    label_order: list[str]
    meta: dict = field(default_factory=dict)


def from_classifier(
    clf: Classifier,
    feature_mean: np.ndarray | None,
    feature_std: np.ndarray | None,
    label_order: list[str],
    meta: dict | None = None,
) -> Checkpoint:
    params = {k: v.copy() for k, v in clf.params().items()}
    bn_stats = {
        bn.name: {"mean": bn.running_mean.copy(), "var": bn.running_var.copy()}
        for bn in clf.batchnorm_layers()
    }
    return Checkpoint(
        spec=clf.spec,
        params=params,
        bn_stats=bn_stats,
        feature_mean=None if feature_mean is None else np.asarray(feature_mean, float),
        feature_std=None if feature_std is None else np.asarray(feature_std, float),
        label_order=list(label_order),
        meta=dict(meta or {}),
    )


def to_classifier(ckpt: Checkpoint) -> Classifier:
    """Instantiate the stored model; parameters overwrite the random init."""
    clf = Classifier(ckpt.spec, np.random.default_rng(0))
    clf.set_params(ckpt.params)
    bn_layers = {bn.name: bn for bn in clf.batchnorm_layers()}
    if set(bn_layers) != set(ckpt.bn_stats):
        raise ValueError("checkpoint batch-norm layers do not match the model spec")
    for name, stats in ckpt.bn_stats.items():
        bn_layers[name].set_running_stats(stats["mean"], stats["var"])
    return clf


def save(ckpt: Checkpoint, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "spec": ckpt.spec.to_dict(),
        "params": {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in ckpt.params.items()
        },
        "batchnorm": {
            name: {"mean": stats["mean"].tolist(), "var": stats["var"].tolist()}
            for name, stats in ckpt.bn_stats.items()
        },
        "standardization": None
        if ckpt.feature_mean is None
        else {"mean": ckpt.feature_mean.tolist(), "std": ckpt.feature_std.tolist()},
        "label_order": ckpt.label_order,
        "meta": ckpt.meta,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))


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
        params = {
            name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
            for name, entry in doc["params"].items()
        }
        bn_stats = {
            name: {
                "mean": np.asarray(stats["mean"], dtype=np.float64),
                "var": np.asarray(stats["var"], dtype=np.float64),
            }
            for name, stats in doc.get("batchnorm", {}).items()
        }
        std = doc.get("standardization")
        label_order = list(doc["label_order"])
        if label_order != list(CLASS_NAMES):
            raise ValueError(f"label_order {label_order} is not {list(CLASS_NAMES)}")
        ckpt = Checkpoint(
            spec=ModelSpec.from_dict(doc["spec"]),
            params=params,
            bn_stats=bn_stats,
            feature_mean=None if std is None else np.asarray(std["mean"], float),
            feature_std=None if std is None else np.asarray(std["std"], float),
            label_order=label_order,
            meta=dict(doc.get("meta", {})),
        )
        input_dim = (ckpt.spec.input_dim,)
        if std is not None and not ckpt.feature_mean.shape == ckpt.feature_std.shape == input_dim:
            raise ValueError(
                f"standardization vectors of shapes {ckpt.feature_mean.shape} and "
                f"{ckpt.feature_std.shape}, expected {input_dim}"
            )
        to_classifier(ckpt)  # parameters and batch-norm layers must match the spec
        return ckpt
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON checkpoint: {exc}") from None
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def standardize(ckpt: Checkpoint, x: np.ndarray) -> np.ndarray:
    if ckpt.feature_mean is None:
        return np.asarray(x, dtype=np.float64)
    return (np.asarray(x, dtype=np.float64) - ckpt.feature_mean) / ckpt.feature_std


def predict(ckpt: Checkpoint, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and argmax labels for raw (unstandardized) features.

    Inference is deterministic and row-independent: dropout is off and
    batch-norm uses the stored running statistics.
    """
    x = np.asarray(features, dtype=np.float64)
    expected = ckpt.spec.input_dim
    if x.shape[-1] != expected:
        raise ValueError(f"feature dim {x.shape[-1]} != checkpoint input_dim {expected}")
    clf = to_classifier(ckpt)
    probs = clf.predict_proba(standardize(ckpt, x))
    return probs, probs.argmax(axis=1)
