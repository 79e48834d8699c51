"""The per-pair scalar oracle the batched and sharded paths are held to.

``Feature.value`` for one pair at a time, then ``Rule.applies`` over
the resulting rows: no batch kernel, no prepared-column cache, no
compiled plan, no chunking and no workers.  Parity tests compare the
one blocking path and the one vectorizer against these functions with
exact equality.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import Pair
from repro.data.sampling import iter_cartesian


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
