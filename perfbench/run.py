#!/usr/bin/env python3
"""The handstates benchmark: one command, two workloads.

    python3 perfbench/run.py --workload extract --seed 7 --seconds 30 --trace 0

Each workload makes its inputs from ``--seed`` through the CLI (set-up,
timed three times), then repeats its timed phase - one CLI command at a
time, each in a fresh child process - for ``--seconds`` seconds, and
checks every output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics. The last stdout line is the result JSON; the line before
it records the machine, the sample counts and quartiles, and any failure.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # handstates is imported lazily: SRC may be absent

# BLAS is pinned to one thread: on this pipeline one thread is faster than
# two, and the load is one command at a time.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("extract", "train")
CLASS_NAMES = ("approaching", "grabbing", "holding", "releasing", "unknown")


@dataclass(frozen=True)
class Size:
    """How much work one run does."""

    episodes: int
    setup_reps: int
    static_epochs: int
    xval_epochs: int
    probe_epochs: int


FULL = Size(episodes=4, setup_reps=3, static_epochs=40, xval_epochs=3, probe_epochs=60)
SMOKE = Size(episodes=2, setup_reps=1, static_epochs=1, xval_epochs=1, probe_epochs=1)

# The paper's scripted scenario with a longer grab and a shorter hold, so
# that a corpus small enough to set up three times per run still holds
# enough grabbing windows for a steady grabbing F1. The approach is two
# frames shorter so that every +-30% phase jitter synth draws stays on the
# canvas (at 16 approach frames a long grab can start the hand off it).
PHASES = {"idle": 12, "approach": 14, "grab": 8, "hold": 20, "release": 8, "retreat": 12}
XVAL_K = 5
SEQ_LENGTH = 5
# The static model holds out half the rows rather than the CLI's 20%: at this
# corpus size a 20% test split has about six grabbing rows, and its accuracy
# and grabbing F1 swing by more than any useful bound from seed to seed.
TEST_FRACTION = 0.5
VAL_FRACTION = 0.15  # the CLI default


class BenchError(RuntimeError):
    """A failure after which the run cannot go on."""


class CommandFailed(BenchError):
    """A command the run cannot do without failed; it is already counted."""


@dataclass
class Proc:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    trace: Path | None


@dataclass
class Iteration:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Path
    traces: list[Path]


@dataclass
class Inputs:
    corpus: Path
    features: Path | None
    histogram: dict[str, int]


@dataclass
class Bench:
    workload: str
    seed: int
    seconds: int
    size: Size
    work: Path
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.env = dict(os.environ, **BLAS_ENV)
        self.corpus_seed = plan_corpus_seed(self.seed, self.size.episodes)

    # -- bookkeeping -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, args: list, trace_dir: Path | None = None, run_id: str = "run") -> Proc:
        """Run one handstates command in a fresh child process.

        A non-zero exit is counted as a failed operation. With ``trace_dir``
        the command is traced and its spans are written to
        ``trace_dir/<run_id>-<command>.json``, also when it fails.
        """
        args = [str(a) for a in args]
        cmd = [sys.executable, str(HERE / "child.py")]
        trace = None
        if trace_dir is not None:
            trace = trace_dir / f"{run_id}-{args[0]}.json"
            cmd += ["--trace", str(trace), "--run", run_id]
        cmd += ["--"] + args
        log = self.work / "log"
        log.mkdir(exist_ok=True)
        out_path = log / "stdout.txt"
        with open(out_path, "w") as out, open(log / "stderr.txt", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = (log / "stderr.txt").read_text().strip().splitlines()
        ok = self.check(proc.returncode == 0, f"{' '.join(args)} exited {proc.returncode}: "
                                              f"{stderr[-1] if stderr else ''}")
        if trace is not None and not trace.exists():
            trace = None
        return Proc(ok, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    out_path.read_text(), trace)

    def required(self, proc: Proc) -> Proc:
        """``proc``, if it succeeded; without it the run cannot go on."""
        if not proc.ok:
            raise CommandFailed(self.failures[-1])
        return proc

    # -- set-up ------------------------------------------------------------

    def setup(self, rep: int, trace_dir: Path | None = None) -> tuple[float, Inputs, list[Path]]:
        """Make the workload's inputs from the seed; returns (seconds, inputs, traces)."""
        run_id = f"setup{rep}"
        base = self.work / run_id
        corpus = base / "corpus"
        phase_flags = [x for k, v in PHASES.items() for x in (f"--{k}", v)]
        start = time.perf_counter()
        synth = ["synth", "--out", corpus, "--episodes", self.size.episodes,
                 "--seed", self.corpus_seed] + phase_flags
        procs = [self.required(self.cli(synth, trace_dir, run_id))]
        features = None
        if self.workload != "extract":
            procs.append(self.required(self.cli(
                ["extract", "--manifest-dir", corpus, "--out", base / "data"], trace_dir, run_id)))
            features = base / "data" / "features.csv"
        seconds = time.perf_counter() - start
        inputs = Inputs(corpus, features, parse_histogram(procs[0].stdout))
        if features is not None:
            self.check_features(features, inputs.histogram)
        return seconds, inputs, [p.trace for p in procs if p.trace]

    def repeat_setup(self, first: Inputs, rep: int) -> float:
        """Set up again; the repeat must give the same inputs."""
        seconds, inputs, _ = self.setup(rep)
        self.same_inputs(first, inputs, "set-up repeat")
        shutil.rmtree(inputs.corpus.parent)
        return seconds

    def same_inputs(self, a: Inputs, b: Inputs, what: str) -> None:
        self.check(file_digests(a.corpus) == file_digests(b.corpus),
                   f"{what}: corpus differs")
        if a.features is not None:
            self.check(a.features.read_bytes() == b.features.read_bytes(),
                       f"{what}: features.csv differs")

    # -- timed phase -------------------------------------------------------

    def iteration(self, inputs: Inputs, i: int, trace_dir: Path | None = None) -> Iteration:
        run_id = f"iter{i}"
        out = self.work / run_id
        if self.workload == "extract":
            procs = [self.cli(["extract", "--manifest-dir", inputs.corpus, "--out", out],
                              trace_dir, run_id)]
        else:
            # the static encoder trained and evaluated, then the sequence
            # model cross-validated; a failed command ends the iteration
            static = ["--arch", "birnn", "--seq-length", 1, "--patience", 0,
                      "--epochs", self.size.static_epochs, "--test-fraction", TEST_FRACTION]
            seq = ["--arch", "birnn", "--seq-length", SEQ_LENGTH, "--k", XVAL_K,
                   "--patience", 0, "--epochs", self.size.xval_epochs]
            commands = [
                ["train", "--features", inputs.features, "--out", out / "train"] + static,
                ["eval", "--features", inputs.features, "--checkpoint",
                 out / "train" / "checkpoint.json", "--out", out / "eval"],
                ["xval", "--features", inputs.features, "--out", out / "xval"] + seq,
            ]
            procs = []
            for args in commands:
                procs.append(self.cli(args, trace_dir, run_id))
                if not procs[-1].ok:
                    break
        return Iteration(
            ok=all(p.ok for p in procs),
            wall_s=sum(p.wall_s for p in procs),
            cpu_s=sum(p.cpu_s for p in procs),
            rss_mb=max(p.rss_mb for p in procs),
            out=out,
            traces=[p.trace for p in procs if p.trace],
        )

    def outputs(self, it: Iteration) -> dict[str, bytes]:
        """The files of an iteration that must be byte-identical on rerun."""
        names = {
            "extract": ["features.csv"],
            "train": ["train/checkpoint.json", "train/report.txt", "eval/report.txt",
                      "xval/xval.csv"],
        }[self.workload]
        return {n: (it.out / n).read_bytes() for n in names}

    def same_outputs(self, ref: dict[str, bytes], it: Iteration, what: str) -> None:
        got = self.outputs(it)
        for name, data in ref.items():
            self.check(got[name] == data, f"{what}: {name} differs")

    # -- output checks -----------------------------------------------------

    def check_features(self, path: Path, histogram: dict[str, int]) -> list[dict]:
        """Row count, label histogram and finiteness of a feature CSV."""
        rows = read_csv(path)
        labels = {name: 0 for name in CLASS_NAMES}
        finite = True
        for row in rows:
            labels[row["label"]] = labels.get(row["label"], 0) + 1
            finite &= all(math.isfinite(float(row[k])) for k in FEATURE_COLUMNS)
        self.check(labels == histogram,
                   f"{path.name}: label histogram {labels} != synth's {histogram}")
        self.check(finite, f"{path.name}: non-finite feature value")
        return rows

    def check_distances(self, inputs: Inputs, features_csv: Path) -> None:
        """The pipeline's hand-object distance against an all-pairs oracle.

        On one seed-chosen episode: every keyframe distance the library's
        keyframe selection computes must equal the oracle's, and every
        mean_dist of that episode's rows in ``features_csv`` must equal the
        mean of the oracle distances of the row's window.
        """
        from handstates import features, manifest

        manifests = manifest.find_manifests(inputs.corpus)
        path = manifests[random.Random(self.seed).randrange(len(manifests))]
        episode = manifest.read_episode(path)
        cfg = features.PipelineConfig()
        series = features.select_keyframes(episode, cfg)
        oracle = [oracle_distance(episode.hand_masks[e.index], episode.object_masks[e.index])
                  for e in series.entries]
        pipeline = [e.distance for e in series.entries]
        self.check(pipeline == oracle,
                   f"{episode.episode_id}: keyframe distance != all-pairs oracle")
        n = cfg.window_length
        rows = [r for r in read_csv(features_csv) if r["episode_id"] == episode.episode_id]
        # the pipeline's window statistic: np.mean over the window's distances
        expected = [format(np.asarray(oracle[int(r["target_index"]) - n:int(r["target_index"])]).mean(),
                           ".9g") for r in rows]
        self.check(bool(rows) and [r["mean_dist"] for r in rows] == expected,
                   f"{episode.episode_id}: mean_dist != oracle window means")

    def check_iteration(self, inputs: Inputs, it: Iteration) -> None:
        if self.workload == "extract":
            self.check_features(it.out / "features.csv", inputs.histogram)
        else:
            train, ev = it.out / "train", it.out / "eval"
            self.check((train / "report.txt").read_bytes() == (ev / "report.txt").read_bytes(),
                       "eval report.txt != train report.txt")
            history = read_csv(train / "history.csv")
            self.check(len(history) == self.size.static_epochs,
                       f"history has {len(history)} epochs, want {self.size.static_epochs}")
            self.check(all(math.isfinite(float(h["train_loss"])) for h in history),
                       "non-finite training loss")
            rows = read_csv(it.out / "xval" / "xval.csv")
            folds = [r for r in rows if r["fold"] not in ("mean", "std")]
            self.check(len(folds) == XVAL_K, f"{len(folds)} fold rows, want {XVAL_K}")
            self.check(all(math.isfinite(float(r["accuracy"])) for r in folds),
                       "a fold diverged")

    # -- quality -----------------------------------------------------------

    def quality(self, inputs: Inputs, it: Iteration) -> dict[str, tuple[float, float]]:
        """(accuracy, grabbing F1) of each of the workload's models.

        On ``train``, the static encoder's holdout scores and the sequence
        model's mean fold scores.
        """
        if self.workload == "train":
            report = json.loads((it.out / "train" / "report.json").read_text())
            mean = next(r for r in read_csv(it.out / "xval" / "xval.csv") if r["fold"] == "mean")
            return {"static": (report["accuracy"], report["classes"]["grabbing"]["f1"]),
                    "sequence": (float(mean["accuracy"]), float(mean["grabbing_f1"]))}
        # extract: probe the fresh features with the ladder's 5-fold
        # regularised MLP (model 3), untimed.
        probe = self.work / "probe"
        self.required(self.cli(["xval", "--features", it.out / "features.csv", "--out", probe,
                                "--arch", "mlp", "--k", XVAL_K,
                                "--epochs", self.size.probe_epochs]))
        mean = next(r for r in read_csv(probe / "xval.csv") if r["fold"] == "mean")
        return {"probe": (float(mean["accuracy"]), float(mean["grabbing_f1"]))}

    def work_counts(self, inputs: Inputs, it: Iteration) -> tuple[int, int]:
        """(corpus frames, samples) behind one iteration.

        Samples are feature rows written (extract), or training rows times
        epochs, summed over the static model and the folds (train).
        """
        from handstates import features

        frames = sum(len(read_csv(p)) for p in inputs.corpus.glob("*/manifest.csv"))
        if self.workload == "extract":
            return frames, len(read_csv(it.out / "features.csv"))
        ds = features.load_dataset_csv(inputs.features)
        # train's nested stratified split; its sizes do not depend on the seed
        train, _ = features.stratified_split_indices(ds.labels, TEST_FRACTION, 0)
        inner, _ = features.stratified_split_indices(ds.labels[train], VAL_FRACTION, 0)
        # every sequence is held out by exactly one of the k folds
        _, labels = features.sequence_dataset(ds, SEQ_LENGTH)
        return frames, (len(inner) * self.size.static_epochs
                        + (XVAL_K - 1) * len(labels) * self.size.xval_epochs)

    # -- the two kinds of run ----------------------------------------------

    def run_untraced(self) -> tuple[dict, dict]:
        seconds, inputs, _ = self.setup(0)
        setup_times = [seconds]

        def between(timed_s: float) -> None:
            # The set-up repeats are spread over the timed phase, so that the
            # iterations sample the machine's speed over the whole run.
            reps = self.size.setup_reps
            while len(setup_times) < reps and timed_s >= self.seconds * len(setup_times) / reps:
                setup_times.append(self.repeat_setup(inputs, len(setup_times)))

        iters = [it for it in self.timed_loop(inputs, traced=lambda i: False, between=between)
                 if it.ok]
        if not iters:
            raise CommandFailed(self.failures[-1])
        first = iters[0]
        if self.workload == "extract":
            self.check_distances(inputs, first.out / "features.csv")
        quality = self.quality(inputs, first)
        frames, samples = self.work_counts(inputs, first)
        walls = [it.wall_s for it in iters]
        samples_by_metric = {
            "setup_s": setup_times,
            "wall_s": walls,
            "frames_per_s": [frames / w for w in walls],
            "samples_per_s": [samples / w for w in walls],
            "peak_rss_mb": [it.rss_mb for it in iters],
        }
        metrics = {k: statistics.median(v) for k, v in samples_by_metric.items()}
        # the mean over the workload's models
        metrics["accuracy"] = statistics.fmean(acc for acc, _ in quality.values())
        metrics["grabbing_f1"] = statistics.fmean(f1 for _, f1 in quality.values())
        detail = {k: summary(v) for k, v in samples_by_metric.items()}
        detail["work"] = {"frames": frames, "samples": samples}
        detail["quality"] = {name: {"accuracy": acc, "grabbing_f1": f1}
                             for name, (acc, f1) in quality.items()}
        return metrics, detail

    def run_traced(self) -> tuple[dict, dict]:
        import tracing

        trace_dir = self.work / "traces"
        trace_dir.mkdir()
        _, inputs, _ = self.setup(0)
        _, traced_inputs, setup_traces = self.setup(1, trace_dir)
        self.same_inputs(inputs, traced_inputs, "traced set-up")
        setup = [tracing.load_trace(p) for p in setup_traces]

        iters = self.timed_loop(inputs, traced=lambda i: i % 2 == 1, min_iters=4,
                                trace_dir=trace_dir)
        plain = [it for it in iters if it.ok and not it.traces]
        traced = [it for it in iters if it.traces]
        if not plain or not traced:
            raise CommandFailed(self.failures[-1])
        if self.workload == "extract":
            self.check_distances(inputs, plain[0].out / "features.csv")

        # a failed traced command (a diverged fold, say) is kept for its
        # spans, but its counts are not compared: the failure is counted once
        per_iter = [tracing.layer_metrics(setup, [tracing.load_trace(p) for p in it.traces])
                    for it in traced]
        whole = [m for m, it in zip(per_iter, traced) if it.ok]
        for m in whole[1:]:
            for name, value in m.items():
                if tracing.is_count(name):
                    self.check(value == whole[0][name],
                               f"{name} differs between traced runs: {value} vs {whole[0][name]}")
        metrics = tracing.median_metrics(per_iter)
        plain_wall = statistics.median(it.wall_s for it in plain)
        traced_wall = statistics.median(it.wall_s for it in traced)
        cpu = statistics.median(it.cpu_s for it in plain)
        metrics["cli.cpu_s"] = cpu
        metrics["cli.cpu_util"] = cpu / plain_wall
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        detail = {"untraced_wall_s": summary([it.wall_s for it in plain]),
                  "traced_wall_s": summary([it.wall_s for it in traced])}
        return metrics, detail

    def timed_loop(self, inputs: Inputs, traced, min_iters: int = 1,
                   trace_dir: Path | None = None, between=None) -> list[Iteration]:
        """Closed loop, one client: the next command starts when the last ends.

        Iterations run until their wall times add up to ``--seconds``, or
        until one fails; ``between(timed seconds so far)`` runs after each
        one, untimed. Every iteration is checked, and its outputs must equal
        the first (untraced) one's; all but the first iteration's files are
        dropped once checked.
        """
        iters: list[Iteration] = []
        ref = None
        timed_s = 0.0
        while len(iters) < min_iters or timed_s < self.seconds:
            i = len(iters)
            it = self.iteration(inputs, i, trace_dir if traced(i) else None)
            iters.append(it)
            if not it.ok:
                break
            timed_s += it.wall_s
            self.check_iteration(inputs, it)
            if ref is None:
                ref = self.outputs(it)
            else:
                self.same_outputs(ref, it, "traced rerun" if it.traces else "rerun")
                shutil.rmtree(it.out)
            if between is not None:
                between(timed_s)
        return iters


# ---------------------------------------------------------------------------
# helpers

FEATURE_COLUMNS = ("mean_dist", "std_dist", "trend_dist", "mean_speed", "std_speed",
                   "trend_speed", "contact_count", "contact_duration")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def parse_histogram(stdout: str) -> dict[str, int]:
    """The window-label histogram ``synth`` prints."""
    hist = {}
    for line in stdout.splitlines():
        name, _, count = line.strip().partition(": ")
        if name in CLASS_NAMES and count.isdigit():
            hist[name] = int(count)
    if set(hist) != set(CLASS_NAMES):
        raise BenchError(f"synth printed no full label histogram:\n{stdout}")
    return hist


def file_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root`` by relative path, bar run
    manifests (they hold wall times) and byte-code caches."""
    from handstates.cli import sha256_file

    return {str(p.relative_to(root)): sha256_file(p) for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json" and "__pycache__" not in p.parts}


def oracle_distance(hand, obj) -> float:
    """Brute-force minimum pixel-centre distance between two masks.

    Mirrors the pipeline's conventions: an empty mask, or a distance beyond
    the image diagonal, gives the diagonal.
    """
    h, w = hand.shape
    diag = float(np.hypot(w, h))
    if not hand.any() or not obj.any():
        return diag
    hy, hx = np.nonzero(hand)
    oy, ox = np.nonzero(obj)
    d2 = (hy[:, None] - oy[None, :]) ** 2 + (hx[:, None] - ox[None, :]) ** 2
    return min(float(np.sqrt(d2.min())), diag)


def plan_corpus_seed(seed: int, episodes: int) -> int:
    """The synth seed for benchmark seed ``seed``.

    ``synth`` jitters every phase of every episode by up to 30%, so corpora
    of a few episodes differ in size by several percent from seed to seed.
    Of the candidate synth seeds 1000*seed, 1000*seed+1, ... the first whose
    corpus has the nominal frame total (within one frame) and the nominal
    number of grab frames is used: inputs still change with the seed, the
    amount of work does not.
    """
    from handstates import synth

    cfg = synth.ScenarioConfig(durations=synth.PhaseDurations(**PHASES))
    nominal_total = episodes * sum(PHASES.values())
    nominal_grab = episodes * PHASES["grab"]
    for candidate in range(1000 * seed, 1000 * seed + 1000):
        durations = [synth.episode_config(cfg, candidate + i).durations for i in range(episodes)]
        if (abs(sum(d.total() for d in durations) - nominal_total) <= 1
                and sum(d.grab for d in durations) == nominal_grab):
            return candidate
    raise BenchError(f"no synth seed of nominal size for seed {seed}")


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def environment() -> dict:
    """The machine and build every result was measured on."""
    from handstates import raster

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    backend = getattr(raster, "edt_backend", None)
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "unknown")
    except OSError:
        pass
    return {
        "git_commit": git_commit(),
        "source_sha256": hashlib.sha256(
            json.dumps(file_digests(SRC / "handstates")).encode()).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "distance_backend": backend() if callable(backend) else "n/a",
    }


def git_commit() -> str | None:
    # Only this checkout's own repository: git would otherwise search the
    # parent directories and could name an unrelated commit.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------------------
# entry point

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "frames_per_s": "1/s", "samples_per_s": "1/s",
    "peak_rss_mb": "MB", "accuracy": "frac", "grabbing_f1": "frac", "pass_frac": "frac",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".canvas_px"):
        return "px"
    if name.endswith((".keyframe_ratio", ".cpu_util", ".overhead_frac")):
        return "frac"
    return "count"


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool,
                  size: Size = FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, seconds, size, work)
    try:
        metrics, detail = bench.run_traced() if trace else bench.run_untraced()
    except CommandFailed:
        # counted in ``failed``; the result line still reports it
        metrics, detail = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()
    if not trace:
        metrics["pass_frac"] = 1.0 - len(bench.failures) / bench.attempted
    units = layer_unit if trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    detail.update(workload=workload, seed=seed, corpus_seed=bench.corpus_seed,
                  trace=trace, failures=bench.failures, environment=environment())
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "handstates" / "cli.py").is_file():
        print(f"error: no handstates sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
