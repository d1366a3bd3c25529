"""Random forest regressor (bagged CART trees with feature subsampling).

Backs the paper's LearnedWMP-RF and SingleWMP-RF variants.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.ml.base import (
    BaseEstimator,
    RegressorMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from repro.ml.flat_trees import FlatTreesMixin, accumulate
from repro.ml.tree import DecisionTreeRegressor, TreeNode

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(FlatTreesMixin, BaseEstimator, RegressorMixin):
    """Ensemble of variance-reduction CART trees trained on bootstrap samples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Forwarded to every :class:`DecisionTreeRegressor`.
    max_features:
        Features examined per split; the random-forest default is ``"sqrt"``.
    bootstrap:
        When true each tree is trained on a bootstrap resample of the data.
    random_state:
        Seed controlling bootstrapping and per-tree feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise InvalidParameterError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.estimators_: list[DecisionTreeRegressor] | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        estimators: list[DecisionTreeRegressor] = []
        for _ in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31 - 1)),
            )
            if self.bootstrap:
                indices = rng.integers(0, n_samples, size=n_samples)
                tree.fit(X[indices], y[indices])
            else:
                tree.fit(X, y)
            estimators.append(tree)
        self.estimators_ = estimators
        self._compile()
        return self

    def _linked_roots(self) -> list[TreeNode] | None:
        if self.estimators_ is None:
            return None
        return [estimator.tree_ for estimator in self.estimators_]

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "flat_")
        X = check_array(X)
        return accumulate(0.0, self.flat_.leaf_values(X))[:, -1] / len(self.estimators_)

    def node_count(self) -> int:
        """Total number of tree nodes across the ensemble."""
        check_is_fitted(self, "flat_")
        return self.flat_.n_nodes
