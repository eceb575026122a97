"""Random hyperparameter search, stratified k-fold validation and the
worker pool that runs their trials and folds."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

import handstates.nn.train as train_mod
from handstates.cli import SCORES, _mean_std
from handstates.features import stratified_folds
from handstates.nn import search
from handstates.nn.model import ModelSpec
from handstates.nn.search import (
    SearchSpace,
    kfold_validate,
    pool_size,
    random_search,
)
from handstates.nn.train import TrainConfig, TrainingDivergedError

BASE_SPEC = ModelSpec(kind="birnn", rnn_units=8, seq_length=1, use_batchnorm=False)
FAST_CFG = TrainConfig(epochs=3, batch_size=16, seed=0, early_stop_patience=0)


def blob_data(rng, n_per=30, classes=3):
    xs, ys = [], []
    for c in range(classes):
        centre = np.zeros(8)
        centre[c] = 6.0
        xs.append(rng.normal(size=(n_per, 8)) + centre)
        ys.append(np.full(n_per, c, dtype=np.int64))
    x = np.vstack(xs)
    y = np.concatenate(ys)
    order = rng.permutation(y.size)
    return x[order], y[order]


def everywhere(x, y):
    """The ``(x, y, train, val)`` arguments that train and validate on every row."""
    all_rows = np.arange(len(y))
    return x, y, all_rows, all_rows


def split_at(x, y, n):
    """The ``(x, y, train, val)`` arguments that train on the first ``n`` rows
    and validate on the rest."""
    return x, y, np.arange(n), np.arange(n, len(y))


class TestRandomSearch:
    def test_budget_one_returns_single_trial(self, rng):
        x, y = blob_data(rng)
        winner, trials = random_search(
            SearchSpace(rnn_units=(4, 8)), 1, *everywhere(x, y), 5, BASE_SPEC, FAST_CFG
        )
        assert len(trials) == 1
        assert winner is trials[0]
        assert winner.status == "ok"

    def test_fixed_seed_reproduces_trials_and_winner(self, rng):
        x, y = blob_data(rng)
        args = (SearchSpace(rnn_units=(4, 12)), 3, *everywhere(x, y), 9, BASE_SPEC, FAST_CFG)
        w1, t1 = random_search(*args)
        w2, t2 = random_search(*args)
        assert [(t.spec, t.cfg) for t in t1] == [(t.spec, t.cfg) for t in t2]
        assert w1.index == w2.index and w1.val_acc == w2.val_acc

    def test_winner_has_max_validation_accuracy(self, rng):
        x, y = blob_data(rng)
        winner, trials = random_search(
            SearchSpace(rnn_units=(4, 12)), 4, *everywhere(x, y), 3, BASE_SPEC, FAST_CFG
        )
        assert winner.val_acc == max(t.val_acc for t in trials if t.status == "ok")

    def test_samples_stay_inside_space(self, rng):
        x, y = blob_data(rng, n_per=12)
        space = SearchSpace(rnn_units=(4, 6), rnn_layers=(1, 2), batch_sizes=(8, 16))
        _, trials = random_search(space, 5, *everywhere(x, y), 1, BASE_SPEC, FAST_CFG)
        for t in trials:
            assert 4 <= t.spec.rnn_units <= 6
            assert t.spec.rnn_layers in (1, 2)
            assert 0.0 <= t.spec.dropout_p <= 0.5
            assert 1e-4 <= t.cfg.learning_rate <= 1e-2
            assert t.cfg.batch_size in (8, 16)

    def test_zero_budget_rejected(self, rng):
        x, y = blob_data(rng, n_per=5)
        with pytest.raises(ValueError, match="budget"):
            random_search(SearchSpace(), 0, *everywhere(x, y), 0, BASE_SPEC, FAST_CFG)


class TestStratifiedFolds:
    def test_folds_partition_all_rows(self, rng):
        y = np.repeat([0, 1], [60, 40])
        held_out = [held for _, held in stratified_folds(y, 5, seed=3)]
        assert [h.size for h in held_out] == [20] * 5
        everything = np.sort(np.concatenate(held_out))
        assert np.array_equal(everything, np.arange(100))

    def test_each_fold_is_class_balanced(self, rng):
        y = np.repeat([0, 1, 2], [50, 25, 25])
        for _, held in stratified_folds(y, 5, seed=0):
            counts = np.bincount(y[held], minlength=3)
            assert list(counts) == [10, 5, 5]

    def test_same_seed_same_assignment(self):
        y = np.repeat([0, 1], [30, 30])
        a = stratified_folds(y, 3, seed=8)
        b = stratified_folds(y, 3, seed=8)
        assert all(np.array_equal(x, z) for pa, pb in zip(a, b) for x, z in zip(pa, pb))

    def test_class_smaller_than_k_rejected(self):
        y = np.array([0, 0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"^class grabbing has 2 samples; needs >= 3 for 3-fold$"):
            stratified_folds(y, 3, seed=0)


class TestKfoldValidate:
    def test_metrics_and_mean_bounds(self, rng):
        x, y = blob_data(rng, n_per=25)
        rows = kfold_validate(BASE_SPEC, FAST_CFG, x, y, stratified_folds(y, 3, seed=1))
        assert len(rows) == 3
        assert [r["fold"] for r in rows] == [0, 1, 2]
        accs = [r["accuracy"] for r in rows]
        (accuracy_mean, _, _), _ = _mean_std([[r[key] for key in SCORES] for r in rows])
        assert min(accs) <= accuracy_mean <= max(accs)
        for r in rows:
            assert 0.0 <= r["weighted_f1"] <= 1.0
            assert 0.0 <= r["grabbing_f1"] <= 1.0

    def test_deterministic(self, rng):
        x, y = blob_data(rng, n_per=15)
        a = kfold_validate(BASE_SPEC, FAST_CFG, x, y, stratified_folds(y, 3, seed=4))
        b = kfold_validate(BASE_SPEC, FAST_CFG, x, y, stratified_folds(y, 3, seed=4))
        assert a == b


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(search, "pool_size", lambda tasks: min(tasks, 2))


class TestPoolSize:
    # BLAS runs one thread per process (the CLI pins it), so the pool is the
    # usable cores over that one thread, capped by the tasks, whatever BLAS
    # variables the environment sets
    @pytest.mark.parametrize(
        "cores, env, tasks, expected",
        [
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 5, 2),
            (2, {"OMP_NUM_THREADS": "1"}, 5, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2"}, 5, 2),
            (2, {}, 5, 2),
            (8, {"OPENBLAS_NUM_THREADS": "2"}, 5, 5),
            (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 5, 1),
            (2, {"OPENBLAS_NUM_THREADS": "0"}, 5, 2),
            (2, {"OPENBLAS_NUM_THREADS": "many"}, 5, 2),
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 0, 1),
            (8, {}, 8, 8),
            (8, {}, 20, 8),
            (1, {}, 0, 1),
        ],
    )
    def test_cores_over_blas_threads_capped_by_tasks(self, monkeypatch, cores, env, tasks,
                                                     expected):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert pool_size(tasks) == expected


class TestWorkerPool:
    def test_inline_fold_model_is_dropped_before_the_next_fold_trains(self, rng, monkeypatch):
        x, y = blob_data(rng, n_per=15)
        monkeypatch.setattr(search, "pool_size", lambda tasks: 1)
        models, alive = [], []
        real_train = search.train

        def tracking_train(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in models))
            ckpt, history = real_train(*args, **kwargs)
            models.append(weakref.ref(ckpt.model))
            return ckpt, history

        monkeypatch.setattr(search, "train", tracking_train)
        kfold_validate(BASE_SPEC, FAST_CFG, x, y, stratified_folds(y, 3, seed=4))
        assert alive == [0, 0, 0]

    def test_trial_checkpoints_come_back_without_forward_caches(self, rng, two_workers):
        x, y = blob_data(rng, n_per=12)
        _, trials = random_search(SearchSpace(rnn_units=(4, 6)), 2, *everywhere(x, y), 2,
                                  BASE_SPEC, FAST_CFG)
        for t in trials:
            cached = [(type(layer).__name__, k) for layer in t.checkpoint.model.layers
                      for k, v in vars(layer).items() if k.startswith("_") and v is not None]
            assert cached == []

    def test_diverged_fold_in_a_worker_fails_with_its_epoch(self, rng, two_workers):
        x, y = blob_data(rng, n_per=10)
        cfg = replace(FAST_CFG, learning_rate=1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                kfold_validate(BASE_SPEC, cfg, x, y, stratified_folds(y, 2, seed=0))
        assert err.value.epoch == 0
        assert str(err.value) == "training diverged (non-finite loss) at epoch 0"

    def test_diverged_trials_in_workers_are_recorded(self, rng, two_workers):
        x, y = blob_data(rng, n_per=10)
        space = SearchSpace(rnn_units=(4, 4), learning_rate=(1e200, 1e200))
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=r"\(trial 0: diverged, trial 1: diverged\)"):
                random_search(space, 2, *everywhere(x, y), 0, BASE_SPEC, FAST_CFG)


class TestNoTrainingSetPass:
    """Holdout training, folds and trials evaluate their validation rows only,
    once per epoch; no epoch makes a pass over the training set."""

    @pytest.fixture
    def evaluated_rows(self, monkeypatch):
        monkeypatch.setattr(search, "pool_size", lambda tasks: 1)
        rows = []
        real_evaluate = train_mod._evaluate

        def counting_evaluate(clf, x, y, weights):
            rows.append(x.shape[0])
            return real_evaluate(clf, x, y, weights)

        monkeypatch.setattr(train_mod, "_evaluate", counting_evaluate)
        return rows

    def test_holdout_train_evaluates_only_the_validation_rows(self, rng, evaluated_rows):
        x, y = blob_data(rng, n_per=15)
        ckpt, history = train_mod.train(BASE_SPEC, *split_at(x, y, 33), FAST_CFG)
        assert len(history) == ckpt.meta["epochs_run"]
        assert evaluated_rows == [12] * len(history)

    def test_folds_evaluate_only_their_held_out_rows(self, rng, evaluated_rows):
        x, y = blob_data(rng, n_per=15)
        kfold_validate(BASE_SPEC, FAST_CFG, x, y, stratified_folds(y, 3, seed=4))
        held_out = [held.size for _, held in stratified_folds(y, 3, seed=4)]
        assert evaluated_rows == [size for size in held_out for _ in range(FAST_CFG.epochs)]

    def test_trials_evaluate_only_the_validation_rows(self, rng, evaluated_rows):
        x, y = blob_data(rng, n_per=15)
        random_search(SearchSpace(rnn_units=(4, 6)), 2, *split_at(x, y, 33), 3, BASE_SPEC,
                      FAST_CFG)
        assert evaluated_rows == [12] * (2 * FAST_CFG.epochs)


class TestDivergenceWithoutHistory:
    """A diverging fold or trial is reported as it was when every epoch also
    checked the training-set loss. Those epochs were measured on float64
    classifiers, so the cases that pin them train in float64; their float32
    twins pin the epochs of the default classifier."""

    SPEC = ModelSpec(kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=1e-2,
                     use_batchnorm=False)

    @staticmethod
    def two_blobs():
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(size=(30, 8)) + 4.0, rng.normal(size=(30, 8)) - 4.0])
        y = np.repeat(np.array([0, 1], dtype=np.int64), 30)
        order = rng.permutation(60)
        return x[order], y[order]

    @staticmethod
    def cfg(lr):
        return TrainConfig(learning_rate=lr, batch_size=16, epochs=40, seed=0,
                           early_stop_patience=0)

    @pytest.mark.parametrize("lr, epoch", [(6e152, 0), (7e152, 5), (1e200, 0)])
    def test_fold_fails_with_its_epoch(self, monkeypatch, float64_training, lr, epoch):
        self.assert_fold_fails_at(monkeypatch, lr, epoch)

    @pytest.mark.parametrize("lr, epoch", [(1.2e18, 5), (1.9e18, 1), (1e200, 0)])
    def test_fold_fails_with_its_epoch_in_float32(self, monkeypatch, lr, epoch):
        self.assert_fold_fails_at(monkeypatch, lr, epoch)

    def assert_fold_fails_at(self, monkeypatch, lr, epoch):
        monkeypatch.setattr(search, "pool_size", lambda tasks: 1)
        x, y = self.two_blobs()
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                kfold_validate(self.SPEC, self.cfg(lr), x, y, stratified_folds(y, 2, seed=0))
        assert str(err.value) == f"training diverged (non-finite loss) at epoch {epoch}"

    @pytest.mark.parametrize("lr", [6e152, 7e152, 1e200])
    def test_trials_are_recorded_diverged(self, monkeypatch, float64_training, lr):
        monkeypatch.setattr(search, "pool_size", lambda tasks: 1)
        x, y = self.two_blobs()
        space = SearchSpace(learning_rate=(lr, lr), dropout_p=(0.0, 0.0), batch_sizes=(16,))
        expected = r"\(trial 0: diverged, trial 1: diverged, trial 2: diverged\)"
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=expected):
                random_search(space, 3, *split_at(x, y, 40), 0, self.SPEC, self.cfg(lr))
