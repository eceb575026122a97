"""Span tracing of handstates from outside the package.

`install` wraps the public functions of each layer at the attribute the
pipeline calls them through (for example ``handstates.features.
euclidean_distance_transform`` rather than the raster module's own name).
Every call records a span - id, parent span id, name, start, end and a few
work counts - in memory; the child process writes them once, when its
command ends. `layer_metrics` turns the spans of a traced run into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a traced version of itself.

        ``measure(args, result)`` returns work counts for a successful call;
        it runs after the span's end so it does not count as busy time.
        """
        fn = getattr(owner, attr)
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, parent, name, start, end, {"error": type(exc).__name__}))
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = measure(args, result) if measure else {}
            spans.append(Span(sid, parent, name, start, end, attrs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, traced)

    def dump(self, path, command: str) -> None:
        doc = {"run": self.run_id, "command": command, "spans": [list(s) for s in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# what gets wrapped


def _file_bytes(path_arg_index: int):
    return lambda args, result: {"bytes": os.path.getsize(args[path_arg_index])}


def _canvas_px(args, result):
    return {"px": int(getattr(args[0], "size", 0))}


def _lstm_flops(args, result):
    # lstm_step(x, h_prev, c_prev, wx, wh, b): two matmuls into 4*units gates.
    x, wh = args[0], args[4]
    units = wh.shape[0]
    return {"flops": 2 * x.shape[0] * (x.shape[1] + units) * 4 * units}


def _lstm_backward_flops(args, result):
    # lstm_step_backward(dh, dc_in, cache, wx, wh): four matmuls of the
    # forward sizes (dwx, dwh, dx, dh_prev), so twice the forward flops.
    dh, wx, wh = args[0], args[3], args[4]
    units = wh.shape[0]
    return {"flops": 4 * dh.shape[0] * (wx.shape[0] + units) * 4 * units}


# raster functions the feature pipeline imports, by layer metric; every
# other raster function it imports (bar the trivial image_diagonal) is part
# of the hand-object distance, whatever algorithm computes it.
RASTER_GROUPS = {
    "laplacian_variance": "raster.keyframe_score",
    "frame_diff_energy": "raster.keyframe_score",
    "mask_centroid": "raster.centroid",
}
RASTER_SKIP = {"image_diagonal"}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function of an imported handstates."""
    import importlib
    import inspect

    from handstates import cli, features, manifest, metrics, pgm, synth
    from handstates.nn import checkpoint, model, optim, recurrent, search

    # handstates.nn re-exports the train function under the module's name.
    train_mod = importlib.import_module("handstates.nn.train")

    w = tracer.wrap
    w(pgm, "read_pgm", "pgm.read", _file_bytes(0))
    w(manifest, "read_episode", "manifest.read_episode")
    w(manifest, "write_episode", "manifest.write_episode")

    for attr, obj in sorted(vars(features).items()):
        if inspect.isfunction(obj) and obj.__module__ == "handstates.raster":
            if attr not in RASTER_SKIP:
                group = RASTER_GROUPS.get(attr, "raster.distance")
                w(features, attr, group, _canvas_px if group == "raster.distance" else None)
    w(features, "select_keyframes", "features.select_keyframes",
      lambda a, r: {"kept": len(r), "seen": len(a[0])})
    w(features, "slide_windows", "features.slide_windows", lambda a, r: {"windows": len(r)})
    w(features, "window_feature_vector", "features.descriptors")
    w(cli, "build_dataset", "features.build_dataset")
    w(cli, "save_dataset_csv", "features.save_csv")
    w(cli, "load_dataset_csv", "features.load_csv")
    w(cli, "sequence_dataset", "features.sequence_dataset")

    w(synth, "generate_corpus", "synth.generate")

    w(recurrent, "lstm_step", "nn.recurrent.step", _lstm_flops)
    w(recurrent, "lstm_step_backward", "nn.recurrent.step_backward", _lstm_backward_flops)
    w(model.Classifier, "forward", "nn.model.forward")
    w(model.Classifier, "backward", "nn.model.backward")
    w(optim.Adam, "step", "nn.optim.step",
      lambda a, r: {"elems": sum(int(g.size) for g in a[1].values())})

    epochs = lambda a, r: {"epochs": len(r[1])}  # noqa: E731 - train returns (ckpt, history)
    w(cli, "train", "nn.train", epochs)
    w(search, "train", "nn.train", epochs)
    w(train_mod, "_evaluate", "nn.train.eval")
    w(cli, "kfold_validate", "nn.search.kfold")

    w(checkpoint, "save", "nn.checkpoint.save", _file_bytes(1))
    w(checkpoint, "load", "nn.checkpoint.load")
    w(checkpoint, "to_classifier", "nn.checkpoint.to_classifier")
    w(checkpoint, "predict", "nn.checkpoint.predict")

    for attr in ("confusion_matrix", "classification_report",
                 "write_report_files", "write_confusion_csv"):
        w(metrics, attr, "metrics")
    for attr in ("confusion_matrix", "classification_report"):
        w(search, attr, "metrics")

    w(cli, "sha256_file", "cli.sha256", _file_bytes(0))
    w(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def load_trace(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    doc["spans"] = [Span(*row) for row in doc["spans"]]
    return doc


class _Spans:
    """Query helpers over the traces of the processes of one phase.

    Span ids are unique within a process only, so spans are keyed by
    (process index, span id).
    """

    def __init__(self, traces: list[dict]):
        self.traces = traces
        self.by_name: dict[str, list[tuple[int, Span]]] = defaultdict(list)
        self.child_time: dict[tuple[int, int], float] = defaultdict(float)
        for p, trace in enumerate(traces):
            for s in trace["spans"]:
                self.by_name[s.name].append((p, s))
                if s.parent is not None:
                    self.child_time[(p, s.parent)] += s.duration

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def busy(self, name: str) -> float:
        return sum(s.duration for _, s in self.by_name[name])

    def self_time(self, name: str) -> float:
        return sum(s.duration - self.child_time[(p, s.id)] for p, s in self.by_name[name])

    def attr(self, name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for _, s in self.by_name[name])

    def errors(self, name: str, error: str) -> int:
        return sum(1 for _, s in self.by_name[name] if s.attrs.get("error") == error)

    def under(self, name: str, parent: str) -> list[Span]:
        """Spans named ``name`` whose direct parent is named ``parent``."""
        parents = {(p, s.id) for p, s in self.by_name[parent]}
        return [s for p, s in self.by_name[name] if (p, s.parent) in parents]

    def in_command(self, command: str) -> "_Spans":
        return _Spans([t for t in self.traces if t["command"] == command])

    def distance_runs(self) -> list[tuple[float, int]]:
        """(seconds, canvas px) per hand-object distance.

        One distance may take several raster calls (today a distance
        transform, then a minimum over the hand mask); a maximal run of
        consecutive distance spans under one parent is one distance.
        """
        runs: list[tuple[float, int]] = []
        for trace in self.traces:
            prev = None
            for s in trace["spans"]:
                if s.name != "raster.distance":
                    prev = None
                    continue
                if prev is not None and prev.parent == s.parent:
                    seconds, px = runs[-1]
                    runs[-1] = (seconds + s.duration, px)
                else:
                    runs.append((s.duration, s.attrs.get("px", 0)))
                prev = s
        return runs


def _percentile_us(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e6 * values[0] if values else 0.0
    return 1e6 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(setup: list[dict], timed: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration.

    ``setup`` holds the traces of the processes that made the inputs,
    ``timed`` those of the timed phase. Only the layers that work solely
    while making inputs (synth and manifest writing) read the setup.
    """
    s = _Spans(setup)
    t = _Spans(timed)
    synth = s.in_command("synth")
    distances = t.distance_runs()
    kept = t.attr("features.select_keyframes", "kept")
    seen = t.attr("features.select_keyframes", "seen")
    folds = t.under("nn.train", "nn.search.kfold")
    optim_calls = t.calls("nn.optim.step")
    return {
        "pgm.read.calls": t.calls("pgm.read"),
        "pgm.read.busy_s": t.busy("pgm.read"),
        "pgm.read.bytes": t.attr("pgm.read", "bytes"),
        "manifest.read_episode.self_s": t.self_time("manifest.read_episode"),
        "manifest.write_episode.busy_s": s.busy("manifest.write_episode"),
        "raster.keyframe_score.calls": t.calls("raster.keyframe_score"),
        "raster.keyframe_score.busy_s": t.busy("raster.keyframe_score"),
        "raster.distance.calls": len(distances),
        "raster.distance.busy_s": t.busy("raster.distance"),
        "raster.distance.p50_us": _percentile_us([d for d, _ in distances], 50),
        "raster.distance.p99_us": _percentile_us([d for d, _ in distances], 99),
        "raster.distance.canvas_px": sum(px for _, px in distances),
        "raster.centroid.busy_s": t.busy("raster.centroid"),
        "features.select_keyframes.self_s": t.self_time("features.select_keyframes"),
        "features.keyframe_ratio": kept / seen if seen else 0.0,
        "features.windows": t.attr("features.slide_windows", "windows"),
        "features.descriptors.busy_s": t.busy("features.descriptors"),
        "features.save_csv.busy_s": t.busy("features.save_csv"),
        "features.load_csv.busy_s": t.busy("features.load_csv"),
        "features.sequence_dataset.busy_s": t.busy("features.sequence_dataset"),
        "synth.generate.busy_s": synth.busy("synth.generate"),
        "synth.histogram.busy_s": synth.busy("features.build_dataset"),
        "nn.recurrent.step.calls": t.calls("nn.recurrent.step"),
        "nn.recurrent.step.busy_s": t.busy("nn.recurrent.step"),
        "nn.recurrent.step.flops": t.attr("nn.recurrent.step", "flops"),
        "nn.recurrent.step_backward.calls": t.calls("nn.recurrent.step_backward"),
        "nn.recurrent.step_backward.busy_s": t.busy("nn.recurrent.step_backward"),
        "nn.recurrent.step_backward.flops": t.attr("nn.recurrent.step_backward", "flops"),
        "nn.model.forward.self_s": t.self_time("nn.model.forward"),
        "nn.model.backward.self_s": t.self_time("nn.model.backward"),
        "nn.optim.step.calls": optim_calls,
        "nn.optim.step.busy_s": t.busy("nn.optim.step"),
        "nn.optim.param_elems": t.attr("nn.optim.step", "elems") // optim_calls if optim_calls else 0,
        "nn.train.epochs_run": t.attr("nn.train", "epochs"),
        "nn.train.batches": optim_calls,
        "nn.train.eval.busy_s": t.busy("nn.train.eval"),
        "nn.train.diverged": t.errors("nn.train", "TrainingDivergedError"),
        "nn.checkpoint.save.busy_s": t.busy("nn.checkpoint.save"),
        "nn.checkpoint.bytes": t.attr("nn.checkpoint.save", "bytes"),
        "nn.checkpoint.load.busy_s": t.busy("nn.checkpoint.load"),
        "nn.checkpoint.to_classifier.calls": t.calls("nn.checkpoint.to_classifier"),
        "nn.checkpoint.to_classifier.busy_s": t.busy("nn.checkpoint.to_classifier"),
        "nn.checkpoint.predict.busy_s": t.busy("nn.checkpoint.predict"),
        "nn.search.folds": len(folds),
        "nn.search.fold.busy_s": sum(f.duration for f in folds),
        "metrics.busy_s": t.busy("metrics"),
        "cli.sha256.busy_s": t.busy("cli.sha256"),
        "cli.sha256.bytes": t.attr("cli.sha256", "bytes"),
        "cli.self_s": t.self_time("cli.main"),
    }


# Metrics that count work rather than time: they must repeat exactly.
COUNT_SUFFIXES = (".calls", ".flops", ".bytes", ".param_elems", ".canvas_px",
                  ".windows", ".folds", ".epochs_run", ".batches", ".diverged",
                  ".keyframe_ratio")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over iterations; of each count, which repeats on
    a healthy run, the largest, so that one diverged fold shows."""
    return {k: (max if is_count(k) else statistics.median)(m[k] for m in samples)
            for k in samples[0]}
