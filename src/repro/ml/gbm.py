"""Gradient-boosted regression trees (an XGBoost-style booster).

Backs the paper's LearnedWMP-XGB and SingleWMP-XGB variants.  The booster
follows the XGBoost formulation for squared-error loss: each round fits a
regression tree whose leaf values maximize the regularized gain

    gain = 1/2 * [ G_L^2/(H_L + lambda) + G_R^2/(H_R + lambda)
                   - (G_L + G_R)^2/(H_L + H_R + lambda) ] - gamma

where for squared error the gradient of sample ``i`` is ``g_i = pred_i - y_i``
and the hessian is ``h_i = 1``.  Shrinkage (``learning_rate``) and row
subsampling are supported, which is enough to reproduce the accuracy /
size / speed trends the paper reports for XGBoost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.ml.flat_trees import FlatTreesMixin, accumulate, compile_trees

__all__ = ["GradientBoostingRegressor", "BoostedTreeNode"]


@dataclass
class BoostedTreeNode:
    """Node of a single boosted tree (leaf weight in ``value``)."""

    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "BoostedTreeNode | None" = field(default=None, repr=False)
    right: "BoostedTreeNode | None" = field(default=None, repr=False)


class GradientBoostingRegressor(FlatTreesMixin, BaseEstimator, RegressorMixin):
    """Gradient boosting with second-order (XGBoost-style) tree construction.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth:
        Depth limit of each boosted tree.
    min_child_weight:
        Minimum hessian sum (== sample count for squared error) per leaf.
    reg_lambda:
        L2 regularization on leaf weights.
    gamma:
        Minimum gain required to keep a split.
    subsample:
        Row-subsampling fraction per boosting round.
    random_state:
        Seed for row subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise InvalidParameterError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise InvalidParameterError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise InvalidParameterError("subsample must be in (0, 1]")
        if max_depth < 1:
            raise InvalidParameterError("max_depth must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.subsample = subsample
        self.random_state = random_state
        self.base_score_: float | None = None
        self.trees_: list[BoostedTreeNode] | None = None

    def _leaf_weight(self, grad_sum: float, hess_sum: float) -> float:
        return -grad_sum / (hess_sum + self.reg_lambda)

    def _split_gain(
        self, g_left: float, h_left: float, g_right: float, h_right: float
    ) -> float:
        def score(g: float, h: float) -> float:
            return g * g / (h + self.reg_lambda)

        return 0.5 * (
            score(g_left, h_left)
            + score(g_right, h_right)
            - score(g_left + g_right, h_left + h_right)
        ) - self.gamma

    def _build_tree(
        self, X: np.ndarray, gradients: np.ndarray, hessians: np.ndarray, depth: int
    ) -> BoostedTreeNode:
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        node = BoostedTreeNode(value=self._leaf_weight(grad_sum, hess_sum))

        if depth >= self.max_depth or hess_sum < 2 * self.min_child_weight:
            return node

        n_samples = X.shape[0]
        if n_samples < 2:
            return node

        # Evaluate every feature in one vectorized pass: sort the whole node
        # block column-wise, gather gradient/hessian prefix sums, and score
        # every candidate cut of every feature at once (no per-feature Python
        # loop — the cost profile of an exact-split production booster).
        order = np.argsort(X, axis=0, kind="stable")
        sorted_values = np.take_along_axis(X, order, axis=0)
        g_prefix = np.cumsum(gradients[order], axis=0)[:-1]
        h_prefix = np.cumsum(hessians[order], axis=0)[:-1]

        g_right = grad_sum - g_prefix
        h_right = hess_sum - h_prefix

        valid = (
            (h_prefix >= self.min_child_weight)
            & (h_right >= self.min_child_weight)
            & (sorted_values[:-1] < sorted_values[1:])
        )
        if not np.any(valid):
            return node

        gains = 0.5 * (
            g_prefix**2 / (h_prefix + self.reg_lambda)
            + g_right**2 / (h_right + self.reg_lambda)
            - grad_sum**2 / (hess_sum + self.reg_lambda)
        ) - self.gamma
        gains[~valid] = -np.inf

        flat_index = int(np.argmax(gains))
        cut, best_feature = np.unravel_index(flat_index, gains.shape)
        best_gain = float(gains[cut, best_feature])
        best_threshold = float(
            (sorted_values[cut, best_feature] + sorted_values[cut + 1, best_feature]) / 2.0
        )

        if not np.isfinite(best_gain) or best_gain <= 0.0:
            return node

        mask = X[:, best_feature] <= best_threshold
        if not mask.any() or mask.all():
            # Degenerate threshold (numerically equal candidate values).
            return node
        node.feature = int(best_feature)
        node.threshold = best_threshold
        node.left = self._build_tree(X[mask], gradients[mask], hessians[mask], depth + 1)
        node.right = self._build_tree(
            X[~mask], gradients[~mask], hessians[~mask], depth + 1
        )
        return node

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]

        self.base_score_ = float(y.mean())
        predictions = np.full(n_samples, self.base_score_, dtype=np.float64)
        trees: list[BoostedTreeNode] = []

        for _ in range(self.n_estimators):
            gradients = predictions - y
            hessians = np.ones(n_samples, dtype=np.float64)

            if self.subsample < 1.0:
                sample_size = max(2, int(self.subsample * n_samples))
                indices = rng.choice(n_samples, size=sample_size, replace=False)
            else:
                indices = np.arange(n_samples)

            tree = self._build_tree(X[indices], gradients[indices], hessians[indices], 0)
            trees.append(tree)
            update = compile_trees([tree]).leaf_values(X)[:, 0]
            predictions += self.learning_rate * update

        self.trees_ = trees
        self._compile()
        return self

    def _linked_roots(self) -> list[BoostedTreeNode] | None:
        return self.trees_

    def _stages(self, X: np.ndarray) -> np.ndarray:
        """Base score then the running sum after each tree, shape (n, rounds + 1)."""
        check_is_fitted(self, "flat_")
        X = check_array(X)
        return accumulate(self.base_score_, self.learning_rate * self.flat_.leaf_values(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._stages(X)[:, -1].copy()

    def node_count(self) -> int:
        """Total node count across boosted trees (a model-size proxy)."""
        check_is_fitted(self, "flat_")
        return self.flat_.n_nodes

    def staged_predict(self, X: np.ndarray) -> np.ndarray:
        """Return predictions after each boosting round, shape (rounds, n)."""
        return np.ascontiguousarray(self._stages(X)[:, 1:].T)
