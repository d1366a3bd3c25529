"""Linear regression models (ordinary least squares and Ridge).

The paper uses Ridge as its linear baseline (LearnedWMP-Ridge and
SingleWMP-Ridge).  Ridge is solved in closed form via the regularized normal
equations, which is exact and fast for the feature dimensionalities involved
(tens of plan features or up to a few hundred template bins).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.ml.base import BaseEstimator, RegressorMixin, check_array, check_is_fitted, check_X_y

__all__ = ["LinearRegression", "Ridge"]


def _predict_rows(X: np.ndarray, coef: np.ndarray, intercept: float) -> np.ndarray:
    """``X @ coef + intercept``, reduced one row at a time.

    A BLAS matrix-vector product may sum a row differently depending on how
    many rows it is given, so a prediction would depend on the batch it
    lands in.  Reducing each C-contiguous row on its own gives every row
    the same answer at any batch size and for either memory order.
    """
    return (np.ascontiguousarray(X) * coef).sum(axis=1) + intercept


class LinearRegression(BaseEstimator, RegressorMixin):
    """Ordinary least squares fitted with a numerically-stable lstsq solve."""

    def __init__(self, *, fit_intercept: bool = True) -> None:
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            X_design = np.hstack([X, np.ones((X.shape[0], 1))])
        else:
            X_design = X
        solution, *_ = np.linalg.lstsq(X_design, y, rcond=None)
        if self.fit_intercept:
            self.coef_ = solution[:-1]
            self.intercept_ = float(solution[-1])
        else:
            self.coef_ = solution
            self.intercept_ = 0.0
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        return _predict_rows(check_array(X), self.coef_, self.intercept_)


class Ridge(BaseEstimator, RegressorMixin):
    """L2-regularized linear regression.

    Parameters
    ----------
    alpha:
        Regularization strength; ``alpha=0`` reduces to ordinary least
        squares (but prefer :class:`LinearRegression` in that case).
    fit_intercept:
        When true the intercept is estimated on centred data and is *not*
        penalized, matching the standard formulation.
    """

    def __init__(self, alpha: float = 1.0, *, fit_intercept: bool = True) -> None:
        if alpha < 0:
            raise InvalidParameterError("alpha must be non-negative")
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Ridge":
        X, y = check_X_y(X, y)
        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            X_centred = X - x_mean
            y_centred = y - y_mean
        else:
            x_mean = np.zeros(X.shape[1])
            y_mean = 0.0
            X_centred = X
            y_centred = y

        n_features = X.shape[1]
        gram = X_centred.T @ X_centred + self.alpha * np.eye(n_features)
        moment = X_centred.T @ y_centred
        try:
            self.coef_ = np.linalg.solve(gram, moment)
        except np.linalg.LinAlgError:
            self.coef_, *_ = np.linalg.lstsq(gram, moment, rcond=None)
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        return _predict_rows(check_array(X), self.coef_, self.intercept_)
