"""The compiled tree traversal equals the naive linked-node walker exactly.

Hypothesis draws random tree shapes (single leaves included), thresholds
that tie with the inputs, NaN and +-inf features and 0, 1 or many rows.
``tests/tree_oracle.py`` walks the linked nodes row by row; the flat
arrays must reach the same leaf, bit for bit, in every tree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.ml.flat_trees import compile_trees
from repro.ml.forest import RandomForestRegressor
from repro.ml.gbm import BoostedTreeNode, GradientBoostingRegressor
from repro.ml.tree import DecisionTreeRegressor, TreeNode
from tree_oracle import leaf_value, reference_predict

#: Split thresholds come from this pool and so do most feature values, so
#: rows land exactly on thresholds often.
THRESHOLDS = (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 1e300)
FEATURE_VALUES = st.one_of(
    st.sampled_from(THRESHOLDS + (np.nan, np.inf, -np.inf, -0.0)),
    st.floats(allow_nan=True, allow_infinity=True),
)
LEAF_VALUES = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


def tree_nodes(n_features: int):
    leaf = st.builds(lambda v: BoostedTreeNode(value=v), LEAF_VALUES)

    def split(children):
        return st.builds(
            lambda f, t, v, left, right: BoostedTreeNode(
                value=v, feature=f, threshold=t, left=left, right=right
            ),
            st.integers(0, n_features - 1),
            st.sampled_from(THRESHOLDS),
            LEAF_VALUES,
            children,
            children,
        )

    return st.recursive(leaf, split, max_leaves=12)


@st.composite
def forests_and_rows(draw, finite: bool = False):
    n_features = draw(st.integers(1, 4))
    roots = draw(st.lists(tree_nodes(n_features), min_size=1, max_size=6))
    values = LEAF_VALUES | st.sampled_from(THRESHOLDS) if finite else FEATURE_VALUES
    n_rows = draw(st.sampled_from((0, 1, 2, 7)))
    rows = draw(st.lists(st.lists(values, min_size=n_features, max_size=n_features),
                         min_size=n_rows, max_size=n_rows))
    X = np.array(rows, dtype=np.float64).reshape(n_rows, n_features)
    return roots, X


def to_tree_node(node: BoostedTreeNode) -> TreeNode:
    if node.feature < 0:
        return TreeNode(value=node.value, n_samples=1, impurity=0.0)
    return TreeNode(
        value=node.value, n_samples=1, impurity=0.0, feature=node.feature,
        threshold=node.threshold, left=to_tree_node(node.left), right=to_tree_node(node.right),
    )


@given(forests_and_rows())
def test_leaf_values_match_the_walker(case):
    roots, X = case
    got = compile_trees(roots).leaf_values(X)
    want = np.array([[leaf_value(root, row) for root in roots] for row in X]).reshape(got.shape)
    assert got.shape == (X.shape[0], len(roots))
    assert got.tobytes() == want.tobytes()


@given(forests_and_rows())
def test_depth_and_size(case):
    roots, _ = case
    flat = compile_trees(roots)

    def size_depth(node):
        if node.feature < 0:
            return 1, 0
        (ls, ld), (rs, rd) = size_depth(node.left), size_depth(node.right)
        return 1 + ls + rs, 1 + max(ld, rd)

    stats = [size_depth(root) for root in roots]
    assert flat.n_nodes == sum(size for size, _ in stats)
    assert flat.max_depth == max(depth for _, depth in stats)


@given(forests_and_rows(finite=True), st.sampled_from((0.1, 0.3, 1.0)), LEAF_VALUES)
def test_boosted_sum_matches_the_walker(case, learning_rate, base_score):
    roots, X = case
    model = GradientBoostingRegressor(len(roots), learning_rate=learning_rate)
    model.trees_, model.base_score_ = roots, base_score
    model._compile()
    if X.shape[0] == 0:
        return
    want = np.array(reference_predict(model, X))
    assert model.predict(X).tobytes() == want.tobytes()
    assert model.staged_predict(X)[-1].tobytes() == want.tobytes()


@given(forests_and_rows(finite=True))
def test_forest_and_tree_match_the_walker(case):
    roots, X = case
    trees = []
    for root in roots:
        tree = DecisionTreeRegressor()
        tree.tree_ = to_tree_node(root)
        tree._compile()
        trees.append(tree)
    forest = RandomForestRegressor(n_estimators=len(trees))
    forest.estimators_ = trees
    forest._compile()
    if X.shape[0] == 0:
        return
    assert forest.predict(X).tobytes() == np.array(reference_predict(forest, X)).tobytes()
    for tree in trees:
        assert tree.predict(X).tobytes() == np.array(reference_predict(tree, X)).tobytes()
