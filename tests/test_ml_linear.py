"""Tests for linear regression models (OLS and Ridge)."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, NotFittedError
from repro.ml.linear import LinearRegression, Ridge


class TestLinearRegression:
    def test_recovers_coefficients(self, linear_problem):
        X, y, coef = linear_problem
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, coef, atol=0.05)
        assert model.intercept_ == pytest.approx(1.5, abs=0.05)

    def test_without_intercept(self, rng):
        X = rng.normal(size=(100, 2))
        y = X @ np.array([1.0, -2.0])
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert np.allclose(model.coef_, [1.0, -2.0], atol=1e-8)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearRegression().predict([[1.0]])

    def test_score_on_training_data_high(self, linear_problem):
        X, y, _ = linear_problem
        assert LinearRegression().fit(X, y).score(X, y) > 0.99


class TestRidge:
    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidParameterError):
            Ridge(alpha=-1.0)

    def test_matches_ols_at_zero_alpha(self, linear_problem):
        X, y, _ = linear_problem
        ols = LinearRegression().fit(X, y)
        ridge = Ridge(alpha=0.0).fit(X, y)
        assert np.allclose(ridge.coef_, ols.coef_, atol=1e-6)

    def test_shrinkage_increases_with_alpha(self, linear_problem):
        X, y, _ = linear_problem
        small = Ridge(alpha=0.1).fit(X, y)
        large = Ridge(alpha=1e4).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_intercept_not_penalized(self, rng):
        # A large constant offset must survive heavy regularization.
        X = rng.normal(size=(200, 2))
        y = X @ np.array([0.5, 0.5]) + 1000.0
        model = Ridge(alpha=1e3).fit(X, y)
        assert model.predict(X).mean() == pytest.approx(1000.0, rel=0.01)

    def test_collinear_features_are_handled(self, rng):
        x = rng.normal(size=200)
        X = np.column_stack([x, x])  # perfectly collinear
        y = 2.0 * x + rng.normal(0, 0.01, 200)
        model = Ridge(alpha=1.0).fit(X, y)
        predictions = model.predict(X)
        assert np.corrcoef(predictions, y)[0, 1] > 0.99

    def test_prediction_shape(self, linear_problem):
        X, y, _ = linear_problem
        model = Ridge().fit(X, y)
        assert model.predict(X[:7]).shape == (7,)

    def test_not_fitted_raises(self):
        with pytest.raises(NotFittedError):
            Ridge().predict([[0.0]])

    def test_clone_preserves_alpha(self):
        assert Ridge(alpha=3.3).clone().alpha == 3.3


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("model_class", [LinearRegression, Ridge])
def test_prediction_is_independent_of_the_batch(model_class, order):
    """A row's prediction is bit-identical alone and inside a large batch."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(512, 37)) * rng.uniform(0.1, 100.0, size=37)
    y = X @ rng.normal(size=37) + 3.0
    model = model_class().fit(X, y)
    X = np.asarray(X, order=order)
    batch = model.predict(X)
    alone = np.array([model.predict(X[i : i + 1])[0] for i in range(len(X))])
    assert np.array_equal(alone, batch)
