"""Smoke test of the benchmark itself, on a tiny corpus and one epoch.

    python3 -m pytest perfbench -q

Every workload must run untraced and traced, pass its output checks and
report every metric BENCHMARK.json names, with its unit; a failed output
check or a failed command must make the run incorrect.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    result, _ = bench.run_benchmark(workload, 3, 1, trace, bench.SMOKE)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_failed_output_check_makes_the_run_incorrect(monkeypatch):
    # A distance oracle that disagrees with the pipeline on every keyframe.
    monkeypatch.setattr(bench, "oracle_distance", lambda hand, obj: -1.0)
    result, detail = bench.run_benchmark("extract", 3, 1, False, bench.SMOKE)
    assert not result["correct"]
    assert result["failed"] == len(detail["failures"]) >= 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0


def test_failed_command_is_counted_and_ends_the_run(monkeypatch):
    # More folds than sequences: xval exits non-zero on the first iteration,
    # after train and eval succeeded.
    monkeypatch.setattr(bench, "XVAL_K", 10_000)
    result, detail = bench.run_benchmark("train", 3, 1, False, bench.SMOKE)
    assert not result["correct"]
    assert result["failed"] == len(detail["failures"]) == 1
    assert "xval" in detail["failures"][0]
    assert 0.0 < result["metrics"]["pass_frac"]["value"] < 1.0
