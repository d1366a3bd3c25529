"""Flat-array form of fitted tree ensembles, scored all trees at once.

The tree builders in :mod:`repro.ml.tree` and :mod:`repro.ml.gbm` grow
linked nodes.  At the end of ``fit`` every tree of a model is compiled into
one set of node arrays (:class:`FlatTrees`), and every predict path scores
from those arrays: an ``(n_rows, n_trees)`` matrix of node indices moves one
level down per numpy step, so the Python overhead is per tree level rather
than per row and tree.  A row goes left when ``x[feature] <= threshold``
and right otherwise (NaN goes right), exactly as the linked nodes route it.

The flat arrays are derived data: :class:`FlatTreesMixin` leaves them out
of pickles and rebuilds them from the linked nodes on load, with the same
:func:`compile_trees` that ``fit`` calls, so model files written before the
arrays existed load and predict bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = ["FlatTrees", "FlatTreesMixin", "compile_trees", "accumulate"]


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """Every tree of a fitted model in one set of node arrays.

    Node ``i`` tests ``x[feature[i]] <= threshold[i]``, and its children are
    indexed by the outcome: ``children[2 * i + 1]`` when the test holds (the
    left child) and ``children[2 * i]`` when it fails (the right child, which
    is where NaN goes).  A leaf tests feature 0 and is its own child either
    way, so rows that reach a leaf early stay there while deeper rows keep
    descending.  ``roots`` holds one root index per tree and ``max_depth``
    the deepest leaf's depth (0 when every tree is a single leaf).
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    max_depth: int

    @property
    def n_nodes(self) -> int:
        return int(self.value.shape[0])

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value of every tree for every row, shape ``(n_rows, n_trees)``."""
        n_rows, n_features = X.shape
        cells = X.ravel()
        row_offsets = (np.arange(n_rows) * n_features)[:, None]
        node = np.repeat(self.roots[None, :], n_rows, axis=0)
        for _ in range(self.max_depth):
            goes_left = cells.take(row_offsets + self.feature.take(node)) <= self.threshold.take(node)
            node = self.children.take(2 * node + goes_left)
        return self.value.take(node)


def compile_trees(roots: Sequence[Any]) -> FlatTrees:
    """Compile linked trees (``TreeNode`` or ``BoostedTreeNode``) into one
    :class:`FlatTrees`, nodes numbered depth-first, trees in order."""
    feature: list[int] = []
    threshold: list[float] = []
    value: list[float] = []
    children: list[int] = []
    max_depth = 0

    def add(node: Any, depth: int) -> int:
        nonlocal max_depth
        index = len(value)
        value.append(node.value)
        if node.feature < 0:
            feature.append(0)
            threshold.append(0.0)
            children.extend((index, index))
            max_depth = max(max_depth, depth)
        else:
            feature.append(node.feature)
            threshold.append(node.threshold)
            children.extend((-1, -1))
            children[2 * index] = add(node.right, depth + 1)
            children[2 * index + 1] = add(node.left, depth + 1)
        return index

    root_indices = [add(root, 0) for root in roots]
    return FlatTrees(
        feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold, dtype=np.float64),
        children=np.array(children, dtype=np.intp),
        value=np.array(value, dtype=np.float64),
        roots=np.array(root_indices, dtype=np.intp),
        max_depth=max_depth,
    )


def accumulate(start: float, terms: np.ndarray) -> np.ndarray:
    """Running sums ``start + terms[:, 0] + terms[:, 1] + ...`` per row, added
    left to right as a per-tree loop would, shape ``(n_rows, n_trees + 1)``."""
    sums = np.empty((terms.shape[0], terms.shape[1] + 1), dtype=np.float64)
    sums[:, 0] = start
    sums[:, 1:] = terms
    return np.add.accumulate(sums, axis=1)


class FlatTreesMixin:
    """Holds a tree model's :class:`FlatTrees` in ``flat_``.

    Sub-classes list their linked roots in :meth:`_linked_roots` (``None``
    while unfitted) and call :meth:`_compile` at the end of ``fit``.
    """

    flat_: FlatTrees | None = None

    def _linked_roots(self) -> list[Any] | None:
        raise NotImplementedError

    def _compile(self) -> None:
        self.flat_ = compile_trees(self._linked_roots())

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("flat_", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.flat_ = None
        if self._linked_roots() is not None:
            self._compile()
