"""Confusion matrix, classification report, rendering and the published-table
reproduction check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handstates import metrics
from handstates.features import CLASS_NAMES

# Integer confusion matrix consistent with a heavily imbalanced 5-class test
# set (supports 377/260/2774/405/306): every rounded report cell below is
# asserted against it.
IMBALANCED_CM = np.array(
    [
        [366, 0, 3, 0, 8],
        [17, 235, 8, 0, 0],
        [0, 15, 2742, 17, 0],
        [0, 0, 16, 389, 0],
        [0, 12, 3, 0, 291],
    ],
    dtype=np.int64,
)


def report_oracle(cm):
    """Direct-formula recomputation of every report field."""
    cm = np.asarray(cm, dtype=float)
    k = cm.shape[0]
    out = {}
    precision, recall, f1 = np.zeros(k), np.zeros(k), np.zeros(k)
    for c in range(k):
        col = cm[:, c].sum()
        row = cm[c, :].sum()
        precision[c] = cm[c, c] / col if col else 0.0
        recall[c] = cm[c, c] / row if row else 0.0
        if precision[c] + recall[c]:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
    support = cm.sum(axis=1)
    present = support > 0
    total = cm.sum()
    out["precision"], out["recall"], out["f1"] = precision, recall, f1
    out["accuracy"] = np.trace(cm) / total
    out["macro"] = (
        precision[present].mean(), recall[present].mean(), f1[present].mean()
    )
    w = support / total
    out["weighted"] = ((w * precision).sum(), (w * recall).sum(), (w * f1).sum())
    return out


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 1, 2, 4, 4, 4])
        cm = metrics.confusion_matrix(y, y, 5)
        assert np.array_equal(np.diag(cm), [1, 2, 1, 0, 3])
        assert cm.sum() == np.trace(cm)

    def test_single_sample(self):
        cm = metrics.confusion_matrix([2], [1], 5)
        assert cm[2, 1] == 1 and cm.sum() == 1

    def test_matches_counting_oracle(self, rng):
        y_true = rng.integers(0, 5, 1000)
        y_pred = rng.integers(0, 5, 1000)
        cm = metrics.confusion_matrix(y_true, y_pred, 5)
        for i in range(5):
            for j in range(5):
                assert cm[i, j] == int(np.sum((y_true == i) & (y_pred == j)))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="0..4"):
            metrics.confusion_matrix([0, 5], [0, 0], 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            metrics.confusion_matrix([0, 1], [0], 5)


class TestClassificationReport:
    def test_perfect_predictions(self):
        cm = np.diag([10, 5, 7, 3, 9])
        rep = metrics.classification_report(cm)
        assert np.allclose(rep.precision, 1.0)
        assert np.allclose(rep.recall, 1.0)
        assert np.allclose(rep.f1, 1.0)
        assert rep.accuracy == 1.0
        assert rep.weighted_f1 == 1.0

    def test_matches_formula_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            cm = rng.integers(0, 30, (k, k))
            if cm.sum() == 0:
                cm[0, 0] = 1
            rep = metrics.classification_report(cm)
            want = report_oracle(cm)
            assert np.abs(rep.precision - want["precision"]).max() < 1e-12
            assert np.abs(rep.recall - want["recall"]).max() < 1e-12
            assert np.abs(rep.f1 - want["f1"]).max() < 1e-12
            assert abs(rep.accuracy - want["accuracy"]) < 1e-12
            assert abs(rep.macro_f1 - want["macro"][2]) < 1e-12
            assert abs(rep.weighted_precision - want["weighted"][0]) < 1e-12
            assert abs(rep.weighted_f1 - want["weighted"][2]) < 1e-12

    def test_row_sums_are_supports_and_trace_is_accuracy(self, rng):
        cm = rng.integers(0, 50, (5, 5))
        rep = metrics.classification_report(cm)
        assert np.array_equal(rep.support, cm.sum(axis=1))
        assert rep.accuracy == np.trace(cm) / cm.sum()

    def test_weighted_f1_bounded_by_per_class_f1(self, rng):
        for _ in range(30):
            cm = rng.integers(0, 40, (4, 4))
            cm += np.diag(rng.integers(1, 40, 4))  # ensure support everywhere
            rep = metrics.classification_report(cm)
            assert rep.f1.min() - 1e-12 <= rep.weighted_f1 <= rep.f1.max() + 1e-12

    @given(st.permutations(list(range(4))))
    @settings(max_examples=20, deadline=None)
    def test_permutation_equivariance(self, perm):
        rng = np.random.default_rng(5)
        cm = rng.integers(1, 40, (4, 4))
        rep = metrics.classification_report(cm)
        perm = np.array(perm)
        permuted = metrics.classification_report(cm[perm][:, perm])
        assert np.allclose(permuted.precision, rep.precision[perm])
        assert np.allclose(permuted.f1, rep.f1[perm])
        assert permuted.accuracy == pytest.approx(rep.accuracy, abs=1e-12)
        assert permuted.macro_f1 == pytest.approx(rep.macro_f1, abs=1e-12)
        assert permuted.weighted_f1 == pytest.approx(rep.weighted_f1, abs=1e-12)

    def test_zero_division_flags(self):
        cm = np.array([[3, 0], [0, 0]])
        rep = metrics.classification_report(cm)
        assert rep.precision[1] == 0.0 and rep.recall[1] == 0.0
        assert (1, "precision") in rep.zero_division
        assert (1, "f1") in rep.zero_division

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.classification_report(np.zeros((3, 3), dtype=int))


class TestRendering:
    def test_round_half_away_from_zero(self):
        assert metrics.round_half_away(0.975) == 0.98
        assert metrics.round_half_away(0.985) == 0.99
        assert metrics.round_half_away(0.984999) == 0.98
        assert metrics.round_half_away(-0.125) == -0.13

    def test_perfect_report_renders_ones(self):
        rep = metrics.classification_report(np.diag([4, 6]))
        text = metrics.render_report(rep, ["cat", "dog"])
        assert text.count("1.00") >= 6
        assert "accuracy" in text and "weighted avg" in text

    def test_json_twin_round_trips_full_precision(self, rng):
        cm = rng.integers(0, 25, (5, 5)) + np.eye(5, dtype=int)
        rep = metrics.classification_report(cm)
        doc = json.loads(json.dumps(metrics.report_json(rep, list(CLASS_NAMES))))
        for c, name in enumerate(CLASS_NAMES):
            assert abs(doc["classes"][name]["precision"] - rep.precision[c]) < 1e-12
            assert doc["classes"][name]["support"] == int(rep.support[c])
        assert abs(doc["accuracy"] - rep.accuracy) < 1e-12
        assert abs(doc["weighted_avg"]["f1"] - rep.weighted_f1) < 1e-12


class TestImbalancedTableReproduction:
    def test_supports_and_accuracy(self):
        rep = metrics.classification_report(IMBALANCED_CM)
        assert list(rep.support) == [377, 260, 2774, 405, 306]
        assert rep.total == 4122
        assert metrics.round_half_away(rep.accuracy) == 0.98

    def test_rendered_cells_match_published_values(self):
        rep = metrics.classification_report(IMBALANCED_CM)
        text = metrics.render_report(rep, list(CLASS_NAMES))
        lines = [line for line in text.splitlines() if line.strip()]
        rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
        assert rows["approaching"] == ["0.96", "0.97", "0.96", "377"]
        assert rows["grabbing"] == ["0.90", "0.90", "0.90", "260"]
        assert rows["holding"] == ["0.99", "0.99", "0.99", "2774"]
        assert rows["releasing"] == ["0.96", "0.96", "0.96", "405"]
        assert rows["unknown"] == ["0.97", "0.95", "0.96", "306"]
        assert rows["accuracy"] == ["0.98", "4122"]
        assert rows["macro"] == ["avg", "0.95", "0.95", "0.95", "4122"]
        assert rows["weighted"] == ["avg", "0.98", "0.98", "0.98", "4122"]

    def test_grabbing_row_full_precision(self):
        rep = metrics.classification_report(IMBALANCED_CM)
        assert metrics.round_half_away(rep.precision[1]) == 0.90
        assert metrics.round_half_away(rep.recall[1]) == 0.90
        assert metrics.round_half_away(rep.f1[1]) == 0.90


def test_write_confusion_csv(tmp_path, rng):
    cm = metrics.confusion_matrix(rng.integers(0, 5, 50), rng.integers(0, 5, 50), 5)
    path = tmp_path / "confusion.csv"
    metrics.write_confusion_csv(cm, list(CLASS_NAMES), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CLASS_NAMES)
    parsed = np.array([[int(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, cm)


# A matrix whose class 1 is empty, class 2 never predicted and class 3 never
# true, so that every kind of zero-division flag shows; one name is wider
# than the 12-character label column.
EMPTY_CLASS_CM = np.array([[5, 0, 0, 1], [0, 0, 0, 0], [2, 0, 0, 1], [0, 0, 0, 0]])
EMPTY_CLASS_NAMES = ["approaching", "an-empty-class-name", "never-predicted", "never-true"]

# The whole files write_report_files and write_confusion_csv write for them.
IMBALANCED_FILES = {
    "report.txt": """\
            precision   recall f1-score  support

 approaching     0.96     0.97     0.96      377
    grabbing     0.90     0.90     0.90      260
     holding     0.99     0.99     0.99     2774
   releasing     0.96     0.96     0.96      405
     unknown     0.97     0.95     0.96      306

    accuracy                       0.98     4122
   macro avg     0.95     0.95     0.95     4122
weighted avg     0.98     0.98     0.98     4122
""",
    "report.json": """\
{
  "accuracy": 0.9759825327510917,
  "classes": {
    "approaching": {
      "f1": 0.9631578947368421,
      "precision": 0.9556135770234987,
      "recall": 0.9708222811671088,
      "support": 377
    },
    "grabbing": {
      "f1": 0.900383141762452,
      "precision": 0.8969465648854962,
      "recall": 0.9038461538461539,
      "support": 260
    },
    "holding": {
      "f1": 0.9888207717273712,
      "precision": 0.9891774891774892,
      "recall": 0.9884643114635905,
      "support": 2774
    },
    "releasing": {
      "f1": 0.9593094944512947,
      "precision": 0.958128078817734,
      "recall": 0.9604938271604938,
      "support": 405
    },
    "unknown": {
      "f1": 0.9619834710743802,
      "precision": 0.9732441471571907,
      "recall": 0.9509803921568627,
      "support": 306
    }
  },
  "macro_avg": {
    "f1": 0.954730954750468,
    "precision": 0.9546219714122817,
    "recall": 0.9549213931588418
  },
  "total_support": 4122,
  "weighted_avg": {
    "f1": 0.976003457386533,
    "precision": 0.9760566136190504,
    "recall": 0.9759825327510918
  },
  "zero_division": []
}
""",
    "confusion.csv": (
        "approaching,grabbing,holding,releasing,unknown\r\n"
        "366,0,3,0,8\r\n"
        "17,235,8,0,0\r\n"
        "0,15,2742,17,0\r\n"
        "0,0,16,389,0\r\n"
        "0,12,3,0,291\r\n"
    ),
}
EMPTY_CLASS_FILES = {
    "report.txt": """\
                   precision   recall f1-score  support

        approaching     0.71     0.83     0.77        6
an-empty-class-name     0.00     0.00     0.00        0
    never-predicted     0.00     0.00     0.00        3
         never-true     0.00     0.00     0.00        0

           accuracy                       0.56        9
          macro avg     0.36     0.42     0.38        9
       weighted avg     0.48     0.56     0.51        9
""",
    "report.json": """\
{
  "accuracy": 0.5555555555555556,
  "classes": {
    "an-empty-class-name": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 0
    },
    "approaching": {
      "f1": 0.7692307692307692,
      "precision": 0.7142857142857143,
      "recall": 0.8333333333333334,
      "support": 6
    },
    "never-predicted": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 3
    },
    "never-true": {
      "f1": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "support": 0
    }
  },
  "macro_avg": {
    "f1": 0.3846153846153846,
    "precision": 0.35714285714285715,
    "recall": 0.4166666666666667
  },
  "total_support": 9,
  "weighted_avg": {
    "f1": 0.5128205128205128,
    "precision": 0.47619047619047616,
    "recall": 0.5555555555555556
  },
  "zero_division": [
    {
      "class": "an-empty-class-name",
      "metric": "precision"
    },
    {
      "class": "an-empty-class-name",
      "metric": "recall"
    },
    {
      "class": "an-empty-class-name",
      "metric": "f1"
    },
    {
      "class": "never-predicted",
      "metric": "precision"
    },
    {
      "class": "never-predicted",
      "metric": "f1"
    },
    {
      "class": "never-true",
      "metric": "recall"
    },
    {
      "class": "never-true",
      "metric": "f1"
    }
  ]
}
""",
    "confusion.csv": (
        "approaching,an-empty-class-name,never-predicted,never-true\r\n"
        "5,0,0,1\r\n"
        "0,0,0,0\r\n"
        "2,0,0,1\r\n"
        "0,0,0,0\r\n"
    ),
}


@pytest.mark.parametrize(
    "cm, names, files",
    [
        (IMBALANCED_CM, list(CLASS_NAMES), IMBALANCED_FILES),
        (EMPTY_CLASS_CM, EMPTY_CLASS_NAMES, EMPTY_CLASS_FILES),
    ],
    ids=["imbalanced", "empty-class"],
)
def test_report_files_are_pinned_bytes(tmp_path, cm, names, files):
    metrics.write_report_files(metrics.classification_report(cm), names, tmp_path)
    metrics.write_confusion_csv(cm, names, tmp_path / "confusion.csv")
    for name, text in files.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
