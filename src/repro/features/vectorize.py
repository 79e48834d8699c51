"""Convert tuple pairs into feature vectors (Section 5.1).

Every surviving pair after blocking is converted immediately into a
feature vector; all downstream modules then work on the numeric matrix.
The matrix is filled column-wise through the batched feature engine
(:mod:`repro.features.batch`): records are materialized once per side,
per-record tokenization comes from the shared per-table caches, and each
feature evaluates the whole pair column in one call.  The per-pair
``Feature.value`` loop is the parity oracle the tests hold it to.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..data.pairs import CandidateSet, Pair
from ..data.table import Table
from ..exceptions import DataError
from ..obs.profiling import profile_section
from .batch import table_cache
from .library import FeatureLibrary


def vectorize_pairs(table_a: Table, table_b: Table, pairs: Sequence[Pair],
                    library: FeatureLibrary,
                    out: np.ndarray | None = None) -> CandidateSet:
    """Build a :class:`CandidateSet` for ``pairs`` using ``library``.

    Records are looked up by id in their respective tables; unknown ids
    raise :class:`repro.exceptions.DataError` via the table lookup.
    Missing attribute values produce NaN feature entries.  Each feature
    is evaluated column-wise over all pairs at once.

    ``out`` (optional) is a preallocated ``(len(pairs), len(library))``
    float64 array the matrix is written into — the spill hook: the
    engine passes a memory-mapped array from
    :class:`repro.plan.SpillManager` so the feature matrix never has to
    fit in RAM.
    """
    shape = (len(pairs), len(library))
    if out is None:
        matrix = np.empty(shape, dtype=np.float64)
    else:
        if out.shape != shape or out.dtype != np.float64:
            raise DataError(
                f"out must be a float64 array of shape {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        matrix = out
    if not pairs:
        return CandidateSet(list(pairs), matrix, library.names)

    with profile_section("features.vectorize_pairs"):
        records_a = [table_a[pair.a_id] for pair in pairs]
        records_b = [table_b[pair.b_id] for pair in pairs]
        cache_a = table_cache(table_a)
        cache_b = table_cache(table_b)
        for col, feature in enumerate(library):
            matrix[:, col] = feature.batch_value(
                records_a, records_b, cache_a, cache_b
            )
    return CandidateSet(list(pairs), matrix, library.names)
