"""Naive reference walker for the fitted tree regressors.

Walks the linked nodes that every tree builder grows, one row at a time,
with the semantics the regressors promise: a row goes left when
``x[feature] <= threshold`` and right otherwise, so NaN goes right.  Sums
run in tree order with plain float arithmetic.  The golden-file and
property tests check the library's tree predictions against this walker
bit for bit.
"""

from __future__ import annotations


def leaf_value(node, row) -> float:
    """Value of the leaf that ``row`` reaches in the tree rooted at ``node``."""
    if node.feature < 0:
        return node.value
    return leaf_value(node.left if row[node.feature] <= node.threshold else node.right, row)


def reference_predict(model, X) -> list[float]:
    """Prediction of a fitted DT, RF or GBM regressor for every row of ``X``."""
    name = type(model).__name__
    out = []
    for row in X:
        if name == "DecisionTreeRegressor":
            out.append(leaf_value(model.tree_, row))
        elif name == "RandomForestRegressor":
            total = 0.0
            for estimator in model.estimators_:
                total += leaf_value(estimator.tree_, row)
            out.append(total / len(model.estimators_))
        else:
            total = model.base_score_
            for tree in model.trees_:
                total += model.learning_rate * leaf_value(tree, row)
            out.append(total)
    return out
