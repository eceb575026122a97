"""Shared helpers for the test suite."""

from functools import partial

import numpy as np
import pytest

import handstates.nn.train as train_mod
from handstates.cli import main as cli_main, pin_blas_threads
from handstates.nn.model import Classifier


@pytest.fixture(autouse=True, scope="session")
def one_blas_thread():
    """Library calls run on one BLAS thread, as every CLI run does, also in
    tests that run before the first ``cli.main`` call pins it."""
    pin_blas_threads()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def run_cli(*argv) -> int:
    """Invoke the CLI in-process; returns its exit code."""
    return cli_main([str(a) for a in argv])


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture
def float64_training(monkeypatch):
    """``train`` builds float64 classifiers, for cases that pin where
    float64 arithmetic overflows."""
    monkeypatch.setattr(train_mod, "Classifier", partial(Classifier, dtype=np.float64))


def bits(a):
    """The bit patterns of a float array, for exact comparison."""
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])
