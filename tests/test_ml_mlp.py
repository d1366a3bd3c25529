"""Tests for the MLP regressor and its three solvers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.mlp import MLPRegressor, PAPER_HIDDEN_LAYERS


class TestMLPRegressor:
    def test_learns_linear_function_with_identity_activation(self, linear_problem):
        X, y, _ = linear_problem
        model = MLPRegressor(
            (8,), activation="identity", solver="lbfgs", max_iter=200, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.98

    def test_learns_nonlinear_function_with_relu(self, regression_problem):
        X, y = regression_problem
        model = MLPRegressor(
            (64, 32), activation="relu", solver="lbfgs", max_iter=400, random_state=0
        ).fit(X, y)
        assert model.score(X, y) > 0.8

    @pytest.mark.parametrize("solver", ["sgd", "adam", "lbfgs"])
    def test_all_solvers_beat_predicting_the_mean(self, solver, linear_problem):
        X, y, _ = linear_problem
        model = MLPRegressor(
            (16,),
            activation="identity",
            solver=solver,
            max_iter=150,
            learning_rate_init=1e-2,
            random_state=0,
        ).fit(X, y)
        assert model.score(X, y) > 0.5

    def test_paper_architecture_constant(self):
        assert PAPER_HIDDEN_LAYERS == (48, 39, 27, 16, 7, 5)

    def test_paper_architecture_trains(self, regression_problem):
        X, y = regression_problem
        model = MLPRegressor(
            PAPER_HIDDEN_LAYERS, solver="lbfgs", max_iter=150, random_state=0
        ).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_loss_curve_recorded_and_decreasing(self, linear_problem):
        X, y, _ = linear_problem
        model = MLPRegressor((8,), solver="adam", max_iter=50, random_state=0).fit(X, y)
        assert len(model.loss_curve_) > 1
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_l2_penalty_reduces_weight_norm(self, linear_problem):
        X, y, _ = linear_problem
        loose = MLPRegressor((16,), alpha=0.0, solver="lbfgs", max_iter=200, random_state=0).fit(X, y)
        tight = MLPRegressor((16,), alpha=50.0, solver="lbfgs", max_iter=200, random_state=0).fit(X, y)
        norm = lambda model: sum(float(np.sum(W**2)) for W in model.coefs_)  # noqa: E731
        assert norm(tight) < norm(loose)

    def test_parameter_count(self, linear_problem):
        X, y, _ = linear_problem
        model = MLPRegressor((8, 4), solver="lbfgs", max_iter=20, random_state=0).fit(X, y)
        n_features = X.shape[1]
        expected = (n_features * 8 + 8) + (8 * 4 + 4) + (4 * 1 + 1)
        assert model.parameter_count() == expected

    def test_predictions_on_original_scale(self, rng):
        # Targets in the hundreds of MB range must come back on that scale.
        X = rng.normal(size=(200, 3))
        y = 500.0 + 100.0 * X[:, 0]
        model = MLPRegressor((8,), activation="identity", solver="lbfgs", max_iter=200, random_state=0).fit(X, y)
        assert 300.0 < model.predict(X).mean() < 700.0

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            MLPRegressor(activation="tanh")
        with pytest.raises(InvalidParameterError):
            MLPRegressor(solver="rmsprop")
        with pytest.raises(InvalidParameterError):
            MLPRegressor(alpha=-0.1)
        with pytest.raises(InvalidParameterError):
            MLPRegressor(max_iter=0)

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().predict([[0.0]])

    def test_reproducible_with_seed(self, linear_problem):
        X, y, _ = linear_problem
        a = MLPRegressor((8,), solver="adam", max_iter=30, random_state=7).fit(X, y)
        b = MLPRegressor((8,), solver="adam", max_iter=30, random_state=7).fit(X, y)
        assert np.allclose(a.predict(X), b.predict(X))

    def test_early_stopping_respects_patience(self, linear_problem):
        X, y, _ = linear_problem
        model = MLPRegressor(
            (4,),
            solver="adam",
            max_iter=500,
            tol=1e-1,  # coarse tolerance forces an early stop
            n_iter_no_change=3,
            random_state=0,
        ).fit(X, y)
        assert model.n_iter_ < 500


def test_importing_the_package_leaves_scipy_unloaded():
    # scipy.optimize alone is ~49 MB of RSS; only the L-BFGS solver needs it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = (
        "import sys, repro, repro.serving.http, repro.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
