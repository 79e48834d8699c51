"""A CART decision tree with Gini impurity and explicit NaN routing.

The tree is binary: internal nodes test ``feature <= threshold`` and route
left on success.  Missing feature values (NaN) are routed to whichever
child received more training examples, and the direction is recorded on
the node so that rules extracted from tree paths reproduce the tree's
behaviour exactly (important for blocking-rule application, Section 4.3).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..exceptions import DataError


@dataclass
class Node:
    """One tree node, stored flat in :attr:`DecisionTree.nodes`.

    Leaves have ``feature == -1``; their prediction is ``label`` and
    ``n_positive / n_total`` gives the training-class distribution.
    """

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    nan_left: bool = True
    label: bool = False
    n_total: int = 0
    n_positive: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class TreeCondition(NamedTuple):
    """One edge of a root-to-leaf path: a test on a single feature.

    ``le`` is True for ``feature <= threshold`` (the left branch) and
    False for ``feature > threshold``.  ``nan_satisfies`` tells whether a
    missing value follows this edge, mirroring the node's NaN routing.
    """

    feature: int
    threshold: float
    le: bool
    nan_satisfies: bool


class TreePath(NamedTuple):
    """A root-to-leaf path: the conjunction of its conditions implies
    ``label`` for any example that satisfies all of them."""

    conditions: tuple[TreeCondition, ...]
    label: bool
    n_total: int
    n_positive: int


class _Presorted(NamedTuple):
    """One fit's training data, each column sorted once.

    ``order[f]`` lists the row ids in stable ascending order of column
    ``f`` (NaNs last) and ``values[f]`` the values in that order, so a
    node's sorted block of any feature is a filter, not a sort.  Built
    per ``fit`` call and never stored on the tree.
    """

    x: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "_Presorted":
        order = np.argsort(x, axis=0, kind="stable")
        values = np.take_along_axis(x, order, axis=0)
        return cls(x, y.astype(np.float64), np.ascontiguousarray(order.T),
                   np.ascontiguousarray(values.T))


class DecisionTree:
    """Binary CART classifier over float feature matrices.

    Parameters mirror :class:`repro.config.ForestConfig`.  ``max_features``
    is the number of randomly chosen candidate features per split (the
    random-forest ingredient); pass ``None`` to consider all features.
    """

    def __init__(self, max_depth: int = 32, min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | None = None) -> None:
        if max_depth < 1:
            raise DataError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.nodes: list[Node] = []
        self.n_features_: int | None = None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray,
            rng: np.random.Generator | None = None) -> "DecisionTree":
        """Grow the tree on feature matrix ``x`` and boolean labels ``y``."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=bool)
        if x.ndim != 2:
            raise DataError("x must be 2-dimensional")
        if x.shape[0] != y.shape[0]:
            raise DataError("x and y row counts differ")
        if x.shape[0] == 0:
            raise DataError("cannot fit a tree on zero examples")
        if rng is None:
            # Deterministic default (CL001): an unseeded fallback would
            # make refits irreproducible; callers wanting variation
            # thread their own Generator (RandomForest always does).
            rng = np.random.default_rng(0)
        self.n_features_ = x.shape[1]
        self.nodes = []
        self._grow(_Presorted.of(x, y), np.arange(x.shape[0]), depth=0,
                   rng=rng)
        return self

    def _grow(self, data: "_Presorted", rows: np.ndarray, depth: int,
              rng: np.random.Generator) -> int:
        """Recursively grow a subtree; returns the new node's index."""
        node_id = len(self.nodes)
        n_total = int(rows.size)
        n_positive = int(data.labels[rows].sum())
        node = Node(n_total=n_total, n_positive=n_positive,
                    label=n_positive * 2 >= n_total)
        self.nodes.append(node)

        pure = n_positive in (0, n_total)
        if (pure or depth >= self.max_depth
                or n_total < self.min_samples_split):
            return node_id

        split = self._best_split(data, rows, rng)
        if split is None:
            return node_id
        feature, threshold = split

        values = data.x[rows, feature]
        nan_mask = np.isnan(values)
        left_mask = values <= threshold  # NaN compares False
        # Route NaNs with the majority of non-NaN examples.
        nan_left = bool(left_mask.sum() >= (~left_mask & ~nan_mask).sum())
        if nan_left:
            left_mask = left_mask | nan_mask

        left_rows = rows[left_mask]
        right_rows = rows[~left_mask]
        if (left_rows.size < self.min_samples_leaf
                or right_rows.size < self.min_samples_leaf):
            return node_id

        node.feature = feature
        node.threshold = threshold
        node.nan_left = nan_left
        node.left = self._grow(data, left_rows, depth + 1, rng)
        node.right = self._grow(data, right_rows, depth + 1, rng)
        return node_id

    def _best_split(self, data: "_Presorted", rows: np.ndarray,
                    rng: np.random.Generator) -> tuple[int, float] | None:
        """Best (feature, threshold) by Gini gain over a random feature
        subset, or None if no split improves impurity.

        Every threshold of every candidate feature is scored in one
        pass over the node's ``(m, k)`` block of presorted values: a
        threshold is the midpoint between two distinct consecutive
        non-NaN values, and the first maximum in (candidate, position)
        order wins.
        """
        n_features = data.x.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(
                n_features, size=self.max_features, replace=False
            )

        # Each candidate's presorted rows, restricted to this node's.
        k = rows.size
        member = np.zeros(data.x.shape[0], dtype=bool)
        member[rows] = True
        ids = data.order[candidates]
        keep = member[ids]
        ids = ids[keep].reshape(-1, k)
        values = data.values[candidates][keep].reshape(-1, k)
        pos_prefix = np.cumsum(data.labels[ids], axis=1)
        # NaNs sort last and compare False, so no threshold touches them.
        feature_at, split_at = np.nonzero(np.diff(values, axis=1) > 0)
        if split_at.size == 0:
            return None
        n = (~np.isnan(values)).sum(axis=1)[feature_at]
        left_counts = split_at + 1
        left_pos = pos_prefix[feature_at, split_at]
        right_counts = n - left_counts
        right_pos = pos_prefix[feature_at, n - 1] - left_pos
        # The per-feature loop's operation order (tests/oracle.py), so
        # every gain, and with it the tree, is bit-identical.
        left_p = left_pos / left_counts
        right_p = right_pos / right_counts
        weighted = (left_counts * (2.0 * left_p * (1.0 - left_p))
                    + right_counts * (2.0 * right_p * (1.0 - right_p))) / n
        gains = _gini(data.labels[rows].sum(), k) - weighted
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            return None
        f, j = feature_at[best], split_at[best]
        threshold = float((values[f, j] + values[f, j + 1]) / 2.0)
        return int(candidates[f]), threshold

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Boolean predictions for every row of ``x`` (vectorized)."""
        x = np.asarray(x, dtype=np.float64)
        if not self.nodes:
            raise DataError("tree has not been fitted")
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise DataError("x has wrong shape for this tree")
        out = np.empty(x.shape[0], dtype=bool)
        self._predict_into(0, np.arange(x.shape[0]), x, out)
        return out

    def _predict_into(self, node_id: int, rows: np.ndarray, x: np.ndarray,
                      out: np.ndarray) -> None:
        if rows.size == 0:
            return
        node = self.nodes[node_id]
        if node.is_leaf:
            out[rows] = node.label
            return
        values = x[rows, node.feature]
        left = values <= node.threshold
        if node.nan_left:
            left = left | np.isnan(values)
        self._predict_into(node.left, rows[left], x, out)
        self._predict_into(node.right, rows[~left], x, out)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_leaves(self) -> int:
        return sum(1 for node in self.nodes if node.is_leaf)

    @property
    def depth(self) -> int:
        """Maximum root-to-leaf depth (0 for a single-leaf tree)."""
        def node_depth(node_id: int) -> int:
            node = self.nodes[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))
        return node_depth(0) if self.nodes else 0

    def paths(self) -> Iterator[TreePath]:
        """Yield every root-to-leaf path (Figure 2's rule source)."""
        if not self.nodes:
            return
        stack: list[tuple[int, tuple[TreeCondition, ...]]] = [(0, ())]
        while stack:
            node_id, conditions = stack.pop()
            node = self.nodes[node_id]
            if node.is_leaf:
                yield TreePath(conditions, node.label,
                               node.n_total, node.n_positive)
                continue
            left_condition = TreeCondition(
                node.feature, node.threshold, le=True,
                nan_satisfies=node.nan_left,
            )
            right_condition = TreeCondition(
                node.feature, node.threshold, le=False,
                nan_satisfies=not node.nan_left,
            )
            stack.append((node.right, conditions + (right_condition,)))
            stack.append((node.left, conditions + (left_condition,)))


def _gini(n_positive: float, n_total: float) -> float:
    """Gini impurity of a binary class distribution."""
    if n_total == 0:
        return 0.0
    p = n_positive / n_total
    return 2.0 * p * (1.0 - p)


def condition_satisfied(condition: TreeCondition,
                        values: np.ndarray) -> np.ndarray:
    """Vectorized truth of one tree condition over a feature column.

    Follows the tree's NaN routing: missing values satisfy the condition
    iff ``nan_satisfies``.
    """
    values = np.asarray(values, dtype=np.float64)
    nan = np.isnan(values)
    if condition.le:
        satisfied = values <= condition.threshold
    else:
        satisfied = values > condition.threshold
    if condition.nan_satisfies:
        return satisfied | nan
    return satisfied & ~nan
