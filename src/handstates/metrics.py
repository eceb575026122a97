"""Confusion matrices and per-class precision/recall/F1 reporting.

The text rendering rounds to two decimals (half away from zero) for
display; the JSON twin keeps full precision and flags any metric whose
denominator was empty (the zero-division policy maps those to 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import write_csv


def confusion_matrix(y_true, y_pred, k: int) -> np.ndarray:
    """cm[i][j] = number of samples with true class i predicted as j."""
    t = np.asarray(y_true, dtype=np.int64)
    p = np.asarray(y_pred, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size and (t.min() < 0 or t.max() >= k or p.min() < 0 or p.max() >= k):
        raise ValueError(f"labels must lie in 0..{k - 1}")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass
class ClassReport:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int
    zero_division: list[tuple[int, str]] = field(default_factory=list)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` where ``den > 0``, else 0, in float64."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def classification_report(cm: np.ndarray) -> ClassReport:
    """Per-class and aggregate metrics from a confusion matrix.

    An empty precision, recall or F1 denominator yields 0 and is flagged;
    macro averages run over classes with support > 0; weighted averages are
    support-weighted.
    """
    cm = np.asarray(cm, dtype=np.int64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise ValueError("empty confusion matrix")
    diag = np.diag(cm).astype(np.float64)
    support = cm.sum(axis=1)
    col_sum = cm.sum(axis=0)
    precision = _ratio(diag, col_sum)
    recall = _ratio(diag, support)
    f1 = _ratio(2 * precision * recall, precision + recall)
    # each empty denominator, class by class, in the order precision, recall, f1
    empty = np.column_stack([col_sum <= 0, support <= 0, precision + recall <= 0])
    flags = [(int(c), ("precision", "recall", "f1")[m]) for c, m in np.argwhere(empty)]

    present = support > 0
    n_present = int(present.sum())
    weights = support / total
    return ClassReport(
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision[present].sum() / n_present),
        macro_recall=float(recall[present].sum() / n_present),
        macro_f1=float(f1[present].sum() / n_present),
        weighted_precision=float((weights * precision).sum()),
        weighted_recall=float((weights * recall).sum()),
        weighted_f1=float((weights * f1).sum()),
        total=total,
        zero_division=flags,
    )


def round_half_away(x: float) -> float:
    """Round to 2 decimals, half away from zero (report cell display)."""
    return float(np.copysign(np.floor(abs(x) * 100.0 + 0.5) / 100.0, x))


def render_report(report: ClassReport, class_names: list[str]) -> str:
    """Fixed-width text table in class order, two-decimal cells."""
    if len(class_names) != report.precision.shape[0]:
        raise ValueError("class_names length must match the report")
    name_width = max(12, max(len(n) for n in class_names))
    col = 9

    def row(label: str, cells, support: int) -> str:
        """``label``, three two-decimal cells (``None`` is blank) and ``support``."""
        shown = ["" if x is None else f"{round_half_away(x):.2f}" for x in cells]
        return label.rjust(name_width) + "".join(s.rjust(col) for s in [*shown, str(support)])

    header = " " * name_width + "".join(
        s.rjust(col) for s in ("precision", "recall", "f1-score", "support"))
    lines = [header, ""]
    for name, *cells, support in zip(class_names, report.precision, report.recall,
                                     report.f1, report.support):
        lines.append(row(name, cells, int(support)))
    lines += [
        "",
        row("accuracy", (None, None, report.accuracy), report.total),
        row("macro avg", (report.macro_precision, report.macro_recall, report.macro_f1),
            report.total),
        row("weighted avg",
            (report.weighted_precision, report.weighted_recall, report.weighted_f1),
            report.total),
    ]
    return "\n".join(lines) + "\n"


def report_json(report: ClassReport, class_names: list[str]) -> dict:
    """Machine-readable twin of the text table, full precision."""
    per_class = {
        name: {
            "precision": float(report.precision[c]),
            "recall": float(report.recall[c]),
            "f1": float(report.f1[c]),
            "support": int(report.support[c]),
        }
        for c, name in enumerate(class_names)
    }
    return {
        "classes": per_class,
        "accuracy": report.accuracy,
        "macro_avg": {
            "precision": report.macro_precision,
            "recall": report.macro_recall,
            "f1": report.macro_f1,
        },
        "weighted_avg": {
            "precision": report.weighted_precision,
            "recall": report.weighted_recall,
            "f1": report.weighted_f1,
        },
        "total_support": report.total,
        "zero_division": [
            {"class": class_names[c], "metric": metric}
            for c, metric in report.zero_division
        ],
    }


def write_report_files(report: ClassReport, class_names: list[str], out_dir) -> list:
    """Write ``report.txt`` and ``report.json``; returns their paths."""
    from pathlib import Path

    out = Path(out_dir)
    (out / "report.txt").write_text(render_report(report, class_names))
    with open(out / "report.json", "w") as fh:
        json.dump(report_json(report, class_names), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [out / "report.txt", out / "report.json"]


def write_confusion_csv(cm: np.ndarray, class_names: list[str], path) -> None:
    write_csv(path, class_names, np.asarray(cm).tolist())
