"""Training loop, checkpoint round trips and whole-model gradient checks."""

import json
import pickle
import types

import numpy as np
import pytest

from conftest import bits

import handstates.nn.train as train_mod
from handstates.nn import checkpoint as ckpt_mod
from handstates.nn import optim
from handstates.nn.checkpoint import predict
from handstates.nn.gradcheck import gradient_check
from handstates.nn.model import Classifier, ModelSpec
from handstates.nn.train import TrainConfig, TrainingDivergedError, fit_standardizer, train

SMALL_MLP = ModelSpec(
    kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=0.0, use_batchnorm=False
)


def two_blob_data(rng, n=60):
    """Linearly separable two-class slice of the five-class problem."""
    half = (n + 1) // 2
    x = np.vstack(
        [
            rng.normal(size=(half, 8)) + 4.0,
            rng.normal(size=(n - half, 8)) - 4.0,
        ]
    )
    y = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    order = rng.permutation(n)
    return x[order], y[order]


def fit_all(spec, x, y, cfg):
    """Train on every target row of ``x`` whose window holds no padding, the
    rows from ``seq_length - 1`` on, and validate on them too."""
    targets = np.arange(spec.seq_length - 1, len(y))
    return train(spec, x, y, targets, targets, cfg)


def test_train_module_keeps_its_name():
    # the package re-exports nothing, so the function does not hide the module
    import handstates.nn.train as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.train)


class TestTrainLoop:
    def test_separable_toy_reaches_full_train_accuracy(self, rng):
        x, y = two_blob_data(rng)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=16, epochs=50, seed=0,
                          early_stop_patience=0)
        _, history = fit_all(SMALL_MLP, x, y, cfg)
        assert max(h["train_acc"] for h in history) == 1.0

    def test_epoch_produces_ceil_n_over_batch_steps(self, rng, monkeypatch):
        x, y = two_blob_data(rng, n=10)
        calls = []
        original = optim.Adam.step

        def counting_step(self, grads):
            calls.append(1)
            return original(self, grads)

        monkeypatch.setattr(optim.Adam, "step", counting_step)
        cfg = TrainConfig(batch_size=4, epochs=1, seed=0)
        fit_all(SMALL_MLP, x, y, cfg)
        assert len(calls) == 3  # ceil(10 / 4)

    def test_same_seed_reproduces_history_and_checkpoint_bytes(self, rng, tmp_path):
        x, y = two_blob_data(rng)
        cfg = TrainConfig(epochs=5, batch_size=16, seed=42)
        ckpt_a, hist_a = fit_all(SMALL_MLP, x, y, cfg)
        ckpt_b, hist_b = fit_all(SMALL_MLP, x, y, cfg)
        assert hist_a == hist_b
        ckpt_mod.save(ckpt_a, tmp_path / "a.json")
        ckpt_mod.save(ckpt_b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("layers", [1, 2])
    def test_static_birnn_trains_as_an_lstm_of_twice_the_units(self, rng, layers):
        """At seq_length 1 a ``birnn`` of u units is an ``lstm`` of 2u units:
        the same trained state and history, bit for bit."""
        x = rng.normal(size=(40, 8))
        y = np.arange(40) % 5
        cfg = TrainConfig(batch_size=8, epochs=3, early_stop_patience=0)
        (bi, bi_history), (uni, uni_history) = (
            fit_all(ModelSpec(kind=kind, rnn_units=units, rnn_layers=layers), x, y, cfg)
            for kind, units in (("birnn", 4), ("lstm", 8))
        )
        assert bi_history == uni_history
        bi_state, uni_state = bi.model.state(), uni.model.state()
        assert bi_state.keys() == uni_state.keys()
        for name, value in bi_state.items():
            assert np.array_equal(bits(value), bits(uni_state[name])), name

    def test_non_finite_input_aborts_with_epoch(self, rng):
        x, y = two_blob_data(rng, n=20)
        x[3, 2] = np.inf
        cfg = TrainConfig(epochs=3, seed=0, standardize_features=False)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                fit_all(SMALL_MLP, x, y, cfg)
        assert err.value.epoch == 0

    @pytest.mark.parametrize("lr, epoch", [(6e152, 3), (7e152, 2), (1e200, 0)])
    def test_exploding_learning_rate_raises_at_its_epoch(self, rng, float64_training, lr,
                                                         epoch):
        # In float64 the L2 penalty overflows first: in a batch, where it is
        # no longer summed, then in the epoch's validation loss, which still
        # sums it. The epochs are those at which the per-batch sum raised.
        self.assert_diverges_at(rng, lr, epoch)

    @pytest.mark.parametrize("lr, epoch", [(1.1e18, 3), (1.2e18, 2), (1e200, 0)])
    def test_exploding_learning_rate_raises_at_its_epoch_in_float32(self, rng, lr, epoch):
        # float32 overflows at far smaller weights; 1e200 is inf as a float32
        self.assert_diverges_at(rng, lr, epoch)

    @staticmethod
    def assert_diverges_at(rng, lr, epoch):
        x, y = two_blob_data(rng)
        spec = ModelSpec(kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=1e-2,
                         use_batchnorm=False)
        cfg = TrainConfig(learning_rate=lr, batch_size=16, epochs=40, seed=0,
                          early_stop_patience=0)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergedError) as err:
                fit_all(spec, x, y, cfg)
        assert err.value.epoch == epoch

    def test_diverged_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(3)))
        assert type(err) is TrainingDivergedError
        assert err.epoch == 3
        assert str(err) == "training diverged (non-finite loss) at epoch 3"

    def test_empty_dataset_rejected(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="non-empty"):
            train(SMALL_MLP, np.empty((0, 8)), empty, empty, empty, TrainConfig())

    @pytest.mark.parametrize("kind", ["train", "validation"])
    def test_target_whose_window_reaches_the_padding_is_refused(self, rng, kind):
        # at seq 3, target 1's window would start one zero row before row 0
        x, y = two_blob_data(rng, n=20)
        spec = ModelSpec(kind="lstm", rnn_units=4, seq_length=3)
        early, full = np.array([5, 1, 0]), np.arange(2, 20)
        sides = (early, full) if kind == "train" else (full, early)
        with pytest.raises(ValueError, match=f"^{kind} target row 1 has 1 rows before it, "
                                             "but its window of seq_length 3 needs 2$"):
            train(spec, x, y, *sides, TrainConfig(epochs=1))

    def test_batchnorm_model_survives_singleton_tail(self, rng):
        x, y = two_blob_data(rng, n=17)  # 17 % 8 == 1
        spec = ModelSpec(kind="mlp", hidden=(8,), dropout_p=0.0, use_batchnorm=True)
        cfg = TrainConfig(batch_size=8, epochs=2, seed=1)
        ckpt, history = fit_all(spec, x, y, cfg)
        assert len(history) == 2


class TestHistory:
    """Every epoch appends one row, whose train columns summarise the batches
    it trained on; at patience 2 the MLP and the static encoder stop early."""

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(kind="mlp", hidden=(16, 8), dropout_p=0.2, use_batchnorm=True),
            ModelSpec(kind="lstm", rnn_units=6, seq_length=3),
            ModelSpec(kind="birnn", rnn_units=8, seq_length=1),
        ],
        ids=["mlp", "lstm-seq3", "static-encoder"],
    )
    @pytest.mark.parametrize("patience", [0, 2])
    def test_train_columns_summarise_the_batches(self, rng, monkeypatch, spec, patience):
        # the lstm trains on the windows of 3 rows that end at its targets,
        # every model on 35 targets, the first with a full window at seq 3
        x, y = two_blob_data(rng, n=50)
        epochs = [[]]  # per epoch: (loss, rows, correct) of each batch
        penalties = []
        real_step, real_evaluate = Classifier.loss_and_grads, train_mod._evaluate

        def recording_step(self, xb, yb, *args, **kwargs):
            loss, logits = real_step(self, xb, yb, *args, **kwargs)
            epochs[-1].append((loss, len(yb), int((logits.argmax(axis=1) == yb).sum())))
            return loss, logits

        def recording_evaluate(clf, *args):
            penalties.append(clf.penalty())
            epochs.append([])
            return real_evaluate(clf, *args)

        monkeypatch.setattr(Classifier, "loss_and_grads", recording_step)
        monkeypatch.setattr(train_mod, "_evaluate", recording_evaluate)
        cfg = TrainConfig(learning_rate=3e-2, batch_size=8, epochs=12, seed=5,
                          early_stop_patience=patience)
        ckpt, history = train(spec, x, y, np.arange(2, 37), np.arange(37, 50), cfg)
        assert len(history) == ckpt.meta["epochs_run"] == len(penalties)
        if patience and spec.kind != "lstm":
            assert len(history) < cfg.epochs
        for row, batches, penalty in zip(history, epochs, penalties):
            rows = sum(n for _, n, _ in batches)
            assert rows == 35
            assert row["train_loss"] == sum(loss * n for loss, n, _ in batches) / rows + penalty
            assert row["train_acc"] == sum(c for _, _, c in batches) / rows


class TestLogits:
    """``Classifier.logits`` runs ``forward`` in blocks: in float64 it keeps
    its bits, in float32 it matches it to rounding, because BLAS's single
    precision kernels sum a block's tail rows in another order."""

    SPECS = {
        "mlp-bn": (ModelSpec(kind="mlp", hidden=(16, 8), use_batchnorm=True), None),
        "static-encoder": (ModelSpec(), None),
        "lstm-seq10": (ModelSpec(kind="lstm", rnn_units=8, seq_length=10), 10),
        "birnn-2layer-seq5": (ModelSpec(kind="birnn", rnn_units=6, rnn_layers=2,
                                        seq_length=5), 5),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    @pytest.mark.parametrize("n", [1, 2, 513, 1537])
    def test_equals_one_forward_bit_for_bit(self, rng, name, n):
        whole, blocked = self.whole_and_blocked(rng, name, n, np.float64)
        assert np.array_equal(bits(blocked), bits(whole))

    @pytest.mark.parametrize("name", list(SPECS))
    @pytest.mark.parametrize("n", [1, 2, 513, 1537])
    def test_float32_equals_one_forward_to_rounding(self, rng, name, n):
        whole, blocked = self.whole_and_blocked(rng, name, n, np.float32)
        assert blocked.dtype == np.float32
        np.testing.assert_allclose(blocked, whole, rtol=1e-5, atol=1e-6)

    def whole_and_blocked(self, rng, name, n, dtype):
        spec, seq_length = self.SPECS[name]
        clf = Classifier(spec, rng, dtype=dtype)
        shape = (n, 8) if seq_length is None else (n, seq_length, 8)
        x = rng.normal(size=shape)
        blocked = clf.logits(x)
        assert blocked.shape == (n, spec.num_classes)
        return clf.forward(x), blocked

    def test_no_block_holds_one_row(self, rng, monkeypatch):
        clf = Classifier(SMALL_MLP, rng)
        blocks = []
        real_forward = clf.forward

        def recording_forward(x, *args, **kwargs):
            blocks.append(x.shape[0])
            return real_forward(x, *args, **kwargs)

        monkeypatch.setattr(clf, "forward", recording_forward)
        for n in (0, 1, 2, 512, 513, 1537):
            clf.logits(rng.normal(size=(n, 8)))
        assert blocks == [0, 1, 2, 512, 257, 256, 385, 384, 384, 384]


class TestStandardization:
    def test_fit_matches_direct_recomputation(self, rng):
        x = rng.normal(size=(40, 8)) * rng.uniform(0.5, 20, 8) + rng.normal(size=8)
        mean, std = fit_standardizer(x)
        assert np.abs(mean - x.mean(axis=0)).max() < 1e-12
        assert np.abs(std - x.std(axis=0)).max() < 1e-12
        z = (x - mean) / std
        assert np.abs(z - (x - x.mean(0)) / x.std(0)).max() < 1e-12

    def test_constant_dimension_gets_unit_std(self):
        x = np.ones((10, 3))
        _, std = fit_standardizer(x)
        assert np.array_equal(std, np.ones(3))

    def test_checkpoint_standardization_round_trips(self, rng, tmp_path):
        x, y = two_blob_data(rng)
        ckpt, _ = fit_all(SMALL_MLP, x, y, TrainConfig(epochs=2, seed=3))
        mean, std = fit_standardizer(x)
        assert np.array_equal(bits(ckpt.model.feature_mean), bits(mean))
        assert np.array_equal(bits(ckpt.model.feature_std), bits(std))
        ckpt_mod.save(ckpt, tmp_path / "ckpt.json")
        loaded = ckpt_mod.load(tmp_path / "ckpt.json").model
        assert np.array_equal(bits(loaded.feature_mean), bits(mean))
        assert np.array_equal(bits(loaded.feature_std), bits(std))

    def test_sequence_model_fits_on_its_training_sequences(self, rng):
        # the samples as the stacked sequences held them, so a row inside
        # three training windows counts three times
        x, y = two_blob_data(rng)
        spec = ModelSpec(kind="lstm", rnn_units=4, seq_length=3)
        targets = np.arange(2, 40)
        ckpt, _ = train(spec, x, y, targets, np.arange(40, 60), TrainConfig(epochs=1, seed=3))
        mean, std = fit_standardizer(np.stack([x[t - 2 : t + 1] for t in targets]))
        assert np.array_equal(bits(ckpt.model.feature_mean), bits(mean))
        assert np.array_equal(bits(ckpt.model.feature_std), bits(std))

    def test_no_standardize_leaves_the_model_without_vectors(self, rng, tmp_path):
        x, y = two_blob_data(rng)
        cfg = TrainConfig(epochs=2, seed=3, standardize_features=False)
        ckpt, _ = fit_all(SMALL_MLP, x, y, cfg)
        assert ckpt.model.feature_mean is None and ckpt.model.feature_std is None
        ckpt_mod.save(ckpt, tmp_path / "ckpt.json")
        assert json.loads((tmp_path / "ckpt.json").read_text())["standardization"] is None
        assert ckpt_mod.load(tmp_path / "ckpt.json").model.feature_mean is None

    @pytest.mark.parametrize("seq_length", [None, 1, 3])
    def test_classifier_standardizes_in_float64_before_its_cast(self, rng, seq_length):
        # the same operations on the same elements as standardizing the rows
        # first and handing them to a model without vectors
        spec = SMALL_MLP if seq_length is None else ModelSpec(rnn_units=4, seq_length=seq_length)
        x = rng.normal(size=(20, 8) if seq_length is None else (20, seq_length, 8)) * 7.0 + 3.0
        clf = Classifier(spec, rng)
        clf.feature_mean, clf.feature_std = fit_standardizer(x)
        plain = pickle.loads(pickle.dumps(clf))
        plain.feature_mean = plain.feature_std = None
        z = (x - clf.feature_mean) / clf.feature_std
        assert np.array_equal(bits(clf.logits(x)), bits(plain.logits(z)))


class TestState:
    SPEC = ModelSpec(kind="mlp", hidden=(12, 6), dropout_p=0.2, use_batchnorm=True)

    def test_names_are_the_parameters_and_batchnorm_statistics(self, rng):
        clf = Classifier(self.SPEC, rng)
        assert set(clf.state()) == set(clf.params()) | {
            "bn0.mean", "bn0.var", "bn1.mean", "bn1.var"}

    def test_state_is_a_copy_and_load_state_restores_it(self, rng):
        x, y = two_blob_data(rng)
        clf = Classifier(self.SPEC, rng)
        before = clf.state()
        logits_before = clf.logits(x)
        clf.loss_and_grads(x, y, np.ones(5), rng=rng)  # moves the running statistics
        optim.Adam(clf.params(), lr=1e-1).step(clf.grads())
        assert not np.array_equal(clf.logits(x), logits_before)
        assert not np.array_equal(clf.state()["bn0.mean"], before["bn0.mean"])
        clf.load_state(before)
        assert np.array_equal(bits(clf.logits(x)), bits(logits_before))
        assert {k: v.dtype for k, v in clf.state().items()} == {k: np.float32 for k in before}

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: s.pop("bn1.var"), r"do not match spec: \['bn1.var'\]"),
            (lambda s: s.update(extra=np.zeros(1)), r"do not match spec: \['extra'\]"),
            (lambda s: s.update({"dense1.w": np.zeros((6, 12))}),
             r"dense1.w: shape \(6, 12\) != expected \(12, 6\)"),
        ],
        ids=["missing", "extra", "shape"],
    )
    def test_load_state_refuses_what_does_not_fit(self, rng, edit, message):
        clf = Classifier(self.SPEC, rng)
        state = clf.state()
        edit(state)
        with pytest.raises(ValueError, match=message):
            clf.load_state(state)


class TestPredictAndCheckpoint:
    @pytest.fixture()
    def trained(self, rng):
        x, y = two_blob_data(rng)
        spec = ModelSpec(kind="mlp", hidden=(12, 6), dropout_p=0.2, use_batchnorm=True)
        ckpt, _ = fit_all(spec, x, y, TrainConfig(epochs=3, seed=7))
        return ckpt, x

    def test_probabilities_sum_to_one(self, trained):
        ckpt, x = trained
        probs, labels = predict(ckpt, x)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
        assert np.array_equal(labels, probs.argmax(axis=1))

    def test_save_load_predict_bit_identical(self, trained, tmp_path):
        ckpt, x = trained
        before, _ = predict(ckpt, x)
        path = tmp_path / "ckpt.json"
        ckpt_mod.save(ckpt, path)
        after, _ = predict(ckpt_mod.load(path), x)
        assert np.array_equal(before, after)

    def test_save_is_deterministic(self, trained, tmp_path):
        ckpt, _ = trained
        ckpt_mod.save(ckpt, tmp_path / "a.json")
        ckpt_mod.save(ckpt, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_refuses_a_float64_model(self, trained, tmp_path):
        ckpt, _ = trained
        wide = ckpt_mod.Checkpoint(Classifier(ckpt.spec, np.random.default_rng(0), np.float64))
        wide.model.feature_mean = ckpt.model.feature_mean
        wide.model.feature_std = ckpt.model.feature_std
        with pytest.raises(ValueError, match="float32"):
            ckpt_mod.save(wide, tmp_path / "ckpt.json")
        assert not (tmp_path / "ckpt.json").exists()

    def test_batch_composition_invariance(self, trained):
        # row-independent math; BLAS may pick different kernels per batch
        # shape, so equality holds to rounding, not bit for bit (this narrow
        # MLP has given equal bits)
        ckpt, x = trained
        batch_probs, _ = predict(ckpt, x[:10])
        row_probs = np.vstack([predict(ckpt, x[i : i + 1])[0] for i in range(10)])
        assert np.allclose(batch_probs, row_probs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize(
        "spec", [ModelSpec(kind="birnn", seq_length=1), ModelSpec(kind="mlp")],
        ids=["static-encoder", "default-mlp"],
    )
    def test_batch_composition_invariance_at_default_width(self, rng, spec):
        # A lone row runs on BLAS's matrix-vector path and a block on its
        # matrix-matrix kernels, so a float32 model's probabilities may
        # differ in their last float32 bits: ``checkpoint.predict`` documents
        # up to 5e-7 on the seed-7 corpus's models. Allow 8 float32 ulps of 1.
        x, y = two_blob_data(rng)
        ckpt, _ = fit_all(spec, x, y, TrainConfig(epochs=3, seed=7))
        batch_probs, _ = predict(ckpt, x[:10])
        row_probs = np.vstack([predict(ckpt, x[i : i + 1])[0] for i in range(10)])
        assert np.abs(batch_probs - row_probs).max() <= 8 * np.finfo(np.float32).eps

    def test_dimension_mismatch_rejected(self, trained):
        ckpt, _ = trained
        with pytest.raises(ValueError, match="input_dim"):
            predict(ckpt, np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "spec, shape, expected",
        [
            (SMALL_MLP, (3, 7), r"mlp expects input of shape \(batch, input_dim=8\), got \(3, 7\)"),
            (ModelSpec(rnn_units=4), (3, 1, 7),
             r"birnn expects input of shape \(batch, input_dim=8\), got \(3, 7\)"),
            (ModelSpec(kind="lstm", rnn_units=4, seq_length=3), (3, 3, 7),
             r"lstm expects input of shape \(batch, seq_length=3, input_dim=8\), "
             r"got \(3, 3, 7\)"),
        ],
        ids=["mlp", "static-encoder", "lstm-seq3"],
    )
    def test_seven_wide_input_names_the_expected_shape(self, rng, spec, shape, expected):
        x, y = two_blob_data(rng)
        ckpt, _ = fit_all(spec, x, y, TrainConfig(epochs=1, seed=2))
        with pytest.raises(ValueError, match=expected):
            predict(ckpt, np.zeros(shape))

    def test_loaded_checkpoint_builds_its_classifier_once(self, trained, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        ckpt_mod.save(trained[0], path)
        builds = []
        original = Classifier.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Classifier, "__init__", counting_init)
        loaded = ckpt_mod.load(path)
        for _ in range(4):
            predict(loaded, trained[1])
        assert len(builds) == 1

    def test_pickled_checkpoint_holds_no_forward_caches(self, trained):
        ckpt, x = trained
        before, _ = predict(ckpt, x)  # the layers now cache this call
        copy = pickle.loads(pickle.dumps(ckpt))
        cached = [(type(layer).__name__, k) for layer in copy.model.layers
                  for k, v in vars(layer).items() if k.startswith("_") and v is not None]
        assert cached == []
        assert np.array_equal(predict(copy, x)[0], before)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: "{not json", "not a JSON checkpoint"),
            (lambda doc: doc.pop("params"), "no key 'params'"),
            (lambda doc: doc.update(schema_version=1), "schema_version 1 .*retrain"),
            (lambda doc: doc.update(schema_version=2), "schema_version 2 .*retrain"),
            (lambda doc: doc.update(schema_version=3), "schema_version 3 .*retrain"),
            (lambda doc: doc["label_order"].reverse(), "label_order"),
            (lambda doc: doc["spec"].update(hidden=[12, 7]), r"shape \(12, 6\) != expected \(12, 7\)"),
            (lambda doc: doc["spec"].update(hidden=[12, 0]), "hidden widths must be >= 1"),
            (lambda doc: doc["spec"].update(seq_length=5), "mlp takes one row, not seq_length 5"),
            (lambda doc: doc["standardization"]["mean"].pop(), "standardization"),
            (lambda doc: doc["params"]["head.w"]["data"].__setitem__(0, float("nan")),
             "head.w has non-finite values"),
            (lambda doc: doc["params"]["head.w"]["data"].__setitem__(1, 1e39),
             "head.w has non-finite values"),  # past float32's range
            (lambda doc: doc["batchnorm"]["bn0"]["mean"].__setitem__(1, float("inf")),
             "bn0.mean has non-finite values"),
            (lambda doc: doc["batchnorm"]["bn1"]["var"].__setitem__(0, float("nan")),
             "bn1.var has non-finite values"),
            (lambda doc: doc["batchnorm"]["bn0"]["var"].__setitem__(0, -1.0),
             "bn0.var has negative values"),
            (lambda doc: doc["standardization"]["mean"].__setitem__(2, float("-inf")),
             "standardization mean has non-finite values"),
            (lambda doc: doc["standardization"]["std"].__setitem__(3, float("nan")),
             "standardization std has non-finite values"),
            (lambda doc: doc["standardization"]["std"].__setitem__(4, 0.0),
             r"standardization std must be > 0"),
        ],
        ids=["invalid-json", "missing-key", "old-schema", "schema-2", "schema-3", "label-order",
             "spec-mismatch", "zero-width-spec", "mlp-over-sequences", "short-standardization",
             "nan-param", "float32-overflow-param", "inf-bn-mean", "nan-bn-var",
             "negative-bn-var", "inf-standardization-mean", "nan-standardization-std",
             "zero-standardization-std"],
    )
    def test_malformed_checkpoint_names_the_file(self, trained, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        ckpt_mod.save(trained[0], path)
        doc = json.loads(path.read_text())
        replacement = edit(doc)
        path.write_text(replacement if isinstance(replacement, str) else json.dumps(doc))
        with pytest.raises(ValueError, match=message) as err:
            ckpt_mod.load(path)
        assert str(path) in str(err.value)


class TestFloat32Flow:
    """A default classifier is float32 from its input to its logits and back:
    a single float64 array, such as a dropout mask, would silently upcast
    every array computed after it."""

    SPECS = {
        "mlp-bn-dropout": (ModelSpec(kind="mlp", hidden=(16, 8), use_batchnorm=True,
                                     dropout_p=0.3), None),
        "static-encoder": (ModelSpec(rnn_units=8), None),
        "lstm-seq3": (ModelSpec(kind="lstm", rnn_units=6, seq_length=3), 3),
        "birnn-2layer": (ModelSpec(kind="birnn", rnn_units=5, rnn_layers=2, seq_length=3), 3),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_every_array_is_float32(self, rng, name):
        spec, seq_length = self.SPECS[name]
        clf = Classifier(spec, rng)
        returned = []

        def recording(layer, method):
            def call(*args):
                out = method(*args)
                returned.append((type(layer).__name__, method.__name__, out.dtype))
                return out
            return call

        for layer in clf.layers:
            layer.forward = recording(layer, layer.forward)
            layer.backward = recording(layer, layer.backward)
        x = rng.normal(size=(32, 8) if seq_length is None else (32, seq_length, 8))
        optimizer = optim.Adam(clf.params(), lr=1e-3)
        loss, _ = clf.loss_and_grads(x, rng.integers(0, 5, 32), np.ones(5), rng=rng)
        optimizer.step(clf.grads())

        assert isinstance(loss, float)
        # every layer's output and dL/d(input), the first layer's dx included
        assert len(returned) == 2 * len(clf.layers)
        assert [r for r in returned if r[2] != np.float32] == []
        arrays = {**clf.params(), **{f"grad {k}": g for k, g in clf.grads().items()},
                  **{f"m {k}": m for k, m in optimizer.m.items()},
                  **{f"v {k}": v for k, v in optimizer.v.items()}}
        for bn in clf.batchnorm_layers():
            arrays.update({f"{bn.name} mean": bn.running_mean, f"{bn.name} var": bn.running_var})
        assert {k: a.dtype for k, a in arrays.items() if a.dtype != np.float32} == {}
        assert clf.logits(x).dtype == np.float32
        assert clf.predict_proba(x).dtype == np.float64


class TestGradientCheckHarness:
    def test_mlp_within_tolerance(self, rng):
        spec = ModelSpec(kind="mlp", hidden=(16,), dropout_p=0.0, l2_lambda=1e-4,
                         use_batchnorm=False)
        x = rng.normal(size=(4, 8))
        y = rng.integers(0, 5, 4)
        assert gradient_check(spec, x, y) <= 1e-5

    def test_birnn_seq1_within_tolerance(self, rng):
        spec = ModelSpec(kind="birnn", rnn_units=6, seq_length=1, dropout_p=0.0,
                         l2_lambda=1e-4, use_batchnorm=False)
        x = rng.normal(size=(4, 1, 8))
        y = rng.integers(0, 5, 4)
        assert gradient_check(spec, x, y) <= 1e-5

    @pytest.mark.parametrize(
        "kind, layers, seq_length, batchnorm",
        [
            ("lstm", 2, 3, False),
            ("birnn", 2, 3, False),
            ("birnn", 1, 3, True),
            ("lstm", 1, 1, False),
            ("birnn", 2, 1, True),
        ],
        ids=["lstm-2layer-seq3", "birnn-2layer-seq3", "birnn-seq3-bn", "lstm-seq1",
             "birnn-2layer-seq1-bn"],
    )
    def test_recurrent_stack_within_tolerance(self, rng, kind, layers, seq_length, batchnorm):
        spec = ModelSpec(kind=kind, rnn_units=4, rnn_layers=layers, seq_length=seq_length,
                         dropout_p=0.0, l2_lambda=1e-3, use_batchnorm=batchnorm)
        x = rng.normal(size=(4, seq_length, 8))
        y = rng.integers(0, 5, 4)
        assert gradient_check(spec, x, y) <= 1e-5

    def test_dropout_rejected(self, rng):
        spec = ModelSpec(kind="mlp", hidden=(8,), dropout_p=0.5)
        with pytest.raises(ValueError, match="dropout"):
            gradient_check(spec, rng.normal(size=(2, 8)), [0, 1])
