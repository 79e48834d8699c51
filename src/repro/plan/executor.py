"""Fused evaluate-then-filter execution of compiled blocking plans.

:class:`PlanExecutor` is the one rule evaluator behind blocking: the
sharded executor (:mod:`repro.exec`) feeds it aligned chunks of A x B
and it turns each chunk into a boolean *blocked* mask.  Instead of
materializing every needed feature for every pair of a chunk, it walks
the compiled :class:`~repro.plan.compiler.BlockingPlan` node by node,
keeping an *active row set* per node and computing each feature column
lazily, only at rows that are still undecided:

* a pair blocked by an earlier (cheaper) rule never reaches a later
  rule's kernels at all;
* within a rule, a pair failing an earlier (cheaper) predicate never
  reaches the later predicates' columns;
* a column computed once — for any subset of rows — is remembered, so
  overlapping rules share it instead of recomputing.

Bit-exactness: all batch kernels are element-wise per pair and blocking
is a monotone OR of AND-rules, so the survivor set equals the per-pair
oracle (``Feature.value`` plus ``Rule.applies``) for any rule order and
any chunk geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.table import Table
from ..features.batch import table_cache
from ..features.library import FeatureLibrary
from ..obs.profiling import profile_section
from ..rules.rule import Rule
from .compiler import BlockingPlan, compile_blocking_plan


@dataclass
class PlanStats:
    """Deterministic work accounting for one plan-executed blocking run.

    Feature-*cell* counts (one cell = one feature value for one pair)
    are a pure function of tables, rules and plan order, so they are
    safe to fold into the checkpointed metrics registry — unlike cache
    hit/miss counts, which depend on process-lifetime cache warmth and
    stay out of it (see :func:`repro.features.batch.cache_stats`).
    """

    pairs: int = 0
    """Pairs scanned through the plan."""
    cells_computed: int = 0
    """Feature cells actually evaluated by a kernel."""
    needed_width: int = 0
    """Distinct feature columns the plan references."""

    @property
    def cells_budget(self) -> int:
        """Cells a full-matrix evaluation would have computed."""
        return self.pairs * self.needed_width

    @property
    def cells_pruned(self) -> int:
        """Cells the fused evaluate-then-filter never had to compute."""
        return max(0, self.cells_budget - self.cells_computed)

    def merge_counts(self, pairs: int, cells_computed: int) -> None:
        """Fold one shard's (pairs, computed-cells) contribution in."""
        self.pairs += int(pairs)
        self.cells_computed += int(cells_computed)

    def as_dict(self) -> dict[str, int]:
        """JSON-compatible snapshot of the accounting figures."""
        return {
            "pairs": self.pairs,
            "needed_width": self.needed_width,
            "cells_computed": self.cells_computed,
            "cells_pruned": self.cells_pruned,
        }


class PlanExecutor:
    """Evaluates blocking rules over aligned chunks of record pairs.

    Construction compiles the plan from the rule set and the library's
    cost model, and binds the per-table prepared-column caches the
    sharded executor pre-warms before it forks.

    Missing-value semantics (the blocking NaN contract): a missing
    attribute value surfaces as ``np.nan`` in a feature column, and a
    predicate comparison against NaN evaluates **falsy** unless the
    predicate was extracted with ``nan_satisfies`` — so *NaN never
    blocks*: a pair with missing evidence survives to the matcher
    rather than being silently discarded, matching the scalar
    ``Feature.value`` path.  Only a rule whose predicates all tolerate
    NaN can block a fully-missing pair.
    """

    def __init__(self, table_a: Table, table_b: Table,
                 rules: list[Rule], library: FeatureLibrary,
                 stats: PlanStats | None = None) -> None:
        self.table_a = table_a
        self.table_b = table_b
        self.plan: BlockingPlan = compile_blocking_plan(rules, library)
        self.needed = list(self.plan.needed)
        self.needed_features = [library.features[i] for i in self.needed]
        self._features_by_index = dict(zip(self.needed,
                                           self.needed_features))
        self.cache_a = table_cache(table_a)
        self.cache_b = table_cache(table_b)
        self.stats = stats if stats is not None else PlanStats()
        self.stats.needed_width = len(self.needed)

    def blocked_mask(self, records_a: list, records_b: list) -> np.ndarray:
        """Boolean mask: True where some rule blocks the aligned pair.

        ``Predicate.evaluate_column`` is False on NaN absent
        ``nan_satisfies``, which is what makes NaN never block (see the
        class docstring); no separate all-missing guard is needed.
        """
        n = len(records_a)
        blocked = np.zeros(n, dtype=bool)
        columns: dict[int, np.ndarray] = {}
        have: dict[int, np.ndarray] = {}
        for node in self.plan.nodes:
            rows = np.flatnonzero(~blocked)
            if rows.size == 0:
                break
            # Per-node sections are parameterized by plan position on
            # purpose: the plan shape varies per rule set, so the
            # closed SECTION_NAMES registry cannot enumerate them.
            # corlint: disable-next-line=CL017 — computed plan.node.N section
            with profile_section(f"plan.node.{node.position}"):
                for step in node.steps:
                    if rows.size == 0:
                        break
                    column = self._column(
                        step.predicate.feature_index, rows,
                        records_a, records_b, columns, have,
                    )
                    rows = rows[step.predicate.evaluate_column(column[rows])]
            if rows.size:
                blocked[rows] = True
        self.stats.pairs += n
        return blocked

    def _column(self, index: int, rows: np.ndarray, records_a: list,
                records_b: list, columns: dict[int, np.ndarray],
                have: dict[int, np.ndarray]) -> np.ndarray:
        """The feature column for ``index``, filled at least at ``rows``.

        Lazily allocated full-length so earlier fills are reusable;
        only rows without a value yet are handed to the kernel.  The
        kernels are element-wise per pair, so subset evaluation is
        bit-identical to the full pass.
        """
        column = columns.get(index)
        if column is None:
            column = np.full(len(records_a), np.nan)
            columns[index] = column
            have[index] = np.zeros(len(records_a), dtype=bool)
        pending = rows[~have[index][rows]]
        if pending.size:
            feature = self._features_by_index[index]
            column[pending] = feature.batch_value(
                [records_a[i] for i in pending],
                [records_b[i] for i in pending],
                self.cache_a, self.cache_b,
            )
            have[index][pending] = True
            self.stats.cells_computed += int(pending.size)
        return column
