"""From-scratch differentiable building blocks and training machinery.

Nothing is re-exported; import each name from the module that defines it:

- ``layers``: Layer, Dense, ReLU, BatchNorm, Dropout
- ``recurrent``: lstm_step, lstm_step_backward, ZeroStateGate, LSTMLayer,
  BidirectionalLSTM
- ``losses``: softmax, log_softmax, softmax_cross_entropy,
  balanced_class_weights
- ``model``: KINDS, ModelSpec, Classifier
- ``optim``: Adam
- ``train``: CLASS_WEIGHTINGS, TrainConfig, TrainingDivergedError,
  fit_standardizer, train
- ``checkpoint``: Checkpoint, save, load, to_classifier, predict
- ``search``: SearchSpace, random_search, kfold_validate, pool_size
- ``gradcheck``: gradient_check

No module here splits data or builds samples; ``handstates.features`` does
both, and ``train``, ``random_search`` and ``kfold_validate`` take its feature
table, row labels and target rows (the last row of each sample, see ``windows``).
Folds and trials run on one forked worker per usable core (``search.pool_size``).
"""
