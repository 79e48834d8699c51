"""The scalar oracles the vectorized paths are held to.

``Feature.value`` for one pair at a time, then ``Rule.applies`` over
the resulting rows: no batch kernel, no prepared-column cache, no
compiled plan, no chunking and no workers.  ``ScalarSplitTree`` searches
splits one candidate feature at a time, sorting each column per node.
Parity tests compare the one blocking path, the one vectorizer and the
one split search against these with exact equality.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import Pair
from repro.data.sampling import iter_cartesian
from repro.forest.tree import DecisionTree, _gini


def scalar_matrix(table_a, table_b, pairs, library,
                  columns=None) -> np.ndarray:
    """The feature matrix of ``pairs``, one ``Feature.value`` per cell.

    ``columns`` restricts the computed columns (the rest stay NaN).
    """
    if columns is None:
        columns = range(len(library))
    matrix = np.full((len(pairs), len(library)), np.nan)
    for row, pair in enumerate(pairs):
        record_a = table_a[pair.a_id]
        record_b = table_b[pair.b_id]
        for col in columns:
            matrix[row, col] = library.features[col].value(record_a,
                                                           record_b)
    return matrix


def scalar_survivors(table_a, table_b, rules, library) -> list[Pair]:
    """The A x B pairs no rule blocks, in A-major stream order."""
    pairs = list(iter_cartesian(table_a, table_b))
    needed = sorted({i for rule in rules for i in rule.feature_indices})
    matrix = scalar_matrix(table_a, table_b, pairs, library, needed)
    blocked = np.zeros(len(pairs), dtype=bool)
    for rule in rules:
        blocked |= rule.applies(matrix)
    return [pair for pair, is_blocked in zip(pairs, blocked)
            if not is_blocked]


class ScalarSplitTree(DecisionTree):
    """A ``DecisionTree`` whose split search loops over the candidate
    features, argsorting each one's non-NaN values at every node."""

    def _best_split(self, data, rows, rng):
        x = data.x
        n_features = x.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = rng.choice(
                n_features, size=self.max_features, replace=False
            )

        labels = data.labels[rows]
        best_gain = 1e-12
        best = None
        parent_impurity = _gini(labels.sum(), labels.size)

        for feature in candidates:
            values = x[rows, feature]
            valid = ~np.isnan(values)
            if valid.sum() < 2:
                continue
            v = values[valid]
            lv = labels[valid]
            order = np.argsort(v, kind="stable")
            v_sorted = v[order]
            l_sorted = lv[order]
            # Candidate thresholds: midpoints between distinct
            # consecutive values.
            distinct = np.nonzero(np.diff(v_sorted) > 0)[0]
            if distinct.size == 0:
                continue
            pos_prefix = np.cumsum(l_sorted)
            total_pos = pos_prefix[-1]
            n = v_sorted.size
            left_counts = distinct + 1
            left_pos = pos_prefix[distinct]
            right_counts = n - left_counts
            right_pos = total_pos - left_pos
            left_imp = _gini_vec(left_pos, left_counts)
            right_imp = _gini_vec(right_pos, right_counts)
            weighted = (left_counts * left_imp
                        + right_counts * right_imp) / n
            gains = parent_impurity - weighted
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                threshold = float(
                    (v_sorted[distinct[best_local]]
                     + v_sorted[distinct[best_local] + 1]) / 2.0
                )
                best = (int(feature), threshold)
        return best


def _gini_vec(n_positive, n_total):
    """Vectorized Gini impurity; zero where ``n_total`` is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(n_total > 0, n_positive / n_total, 0.0)
    return 2.0 * p * (1.0 - p)
