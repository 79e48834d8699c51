"""repro.plan — the columnar plan compiler and its execution engine.

Compiles conjunction-of-predicate blocking rules plus the feature
library's cost model into a single ordered execution plan (predicate
pushdown, cheapest-rule-first, shared columns), executes it with fused
evaluate-then-filter so losing pairs never reach expensive kernels —
the one blocking evaluator, run per shard by :mod:`repro.exec` — and
spills oversized candidate feature matrices to memory-mapped ``.npy``
files under the run directory.  See "The plan compiler" in
docs/architecture.md.
"""

from .compiler import (
    BlockingPlan,
    PredicateStep,
    RuleNode,
    compile_blocking_plan,
)
from .executor import PlanExecutor, PlanStats
from .spill import (
    SPILL_DIR_NAME,
    SpillManager,
    open_readonly,
    spill_path,
)

__all__ = [
    "BlockingPlan",
    "PlanExecutor",
    "PlanStats",
    "PredicateStep",
    "RuleNode",
    "SPILL_DIR_NAME",
    "SpillManager",
    "compile_blocking_plan",
    "open_readonly",
    "spill_path",
]
