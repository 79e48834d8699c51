"""Columnar plan compilation for blocking rules.

The blocker's output is a disjunction of conjunction-of-predicate
rules, and the feature library carries a per-measure cost model
(``features/library.py``).  Rather than computing every needed feature
for every pair and then every rule over the full matrix, this module
compiles those inputs into an ordered execution plan:

* **cheapest-rule-first** — rules are ordered greedily by marginal
  feature cost (features an earlier rule already materialized are
  free), so the cheap, high-coverage rules run first and shrink the
  active pair set before any expensive kernel fires;
* **predicate pushdown** — within a rule, predicates are ordered by
  ascending feature cost (shared columns first), and each predicate
  filters the candidate rows handed to the next one;
* **fused evaluate-then-filter** — the executor
  (:mod:`repro.plan.executor`) computes a feature column only at the
  rows that are still undecided, so losing pairs never reach later,
  more expensive kernels.

Correctness rests on two structural facts, both load-bearing for the
bit-exactness contract: blocking is a *monotone* OR over rules and AND
within a rule (evaluation order cannot change the outcome), and every
batch kernel is element-wise per pair ("bit-exact regardless of chunk
boundaries" — the documented :mod:`repro.features.batch` contract), so
evaluating a feature on a row subset yields the exact values the full
pass would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..features.library import Feature, FeatureLibrary
from ..rules.predicates import Predicate
from ..rules.rule import Rule


@dataclass(frozen=True)
class PredicateStep:
    """One pushed-down predicate: project a column, filter the rows."""

    predicate: Predicate
    cost: float
    """Compile-time marginal cost: 0.0 when the column is shared."""
    shared: bool
    """True when an earlier step of the plan already pays for the column."""


@dataclass(frozen=True)
class RuleNode:
    """One rule of the disjunction, with its ordered predicate steps."""

    rule: Rule
    position: int
    """Execution position in the compiled plan (0-based)."""
    source_index: int
    """The rule's index in the input rule list (for provenance)."""
    steps: tuple[PredicateStep, ...]
    marginal_cost: float
    """Summed cost of the features this node newly materializes."""


@dataclass(frozen=True)
class BlockingPlan:
    """A compiled blocking plan: ordered rule nodes over shared columns."""

    nodes: tuple[RuleNode, ...]
    needed: tuple[int, ...]
    """Sorted union of feature indices any node touches."""
    total_cost: float
    """Worst-case cost: every needed column computed exactly once."""

    def describe(self) -> str:
        """A compact human-readable rendering (for logs and docs)."""
        lines = []
        for node in self.nodes:
            steps = ", ".join(
                f"{step.predicate}"
                + (" [shared]" if step.shared else f" [{step.cost:g}]")
                for step in node.steps
            )
            lines.append(
                f"node {node.position} (rule {node.source_index}, "
                f"marginal {node.marginal_cost:g}): {steps}"
            )
        return "\n".join(lines)


def compile_blocking_plan(rules: list[Rule],
                          library: FeatureLibrary) -> BlockingPlan:
    """Order rules cheapest-marginal-first and push predicates down.

    Greedy: repeatedly pick the remaining rule whose *marginal* cost —
    the summed cost of features no earlier node materialized — is
    smallest, tie-broken by input position (stable, deterministic).
    Within a rule, predicate steps are grouped by feature and ordered
    shared-columns-first then by ascending feature cost; a predicate
    whose column an earlier step (of any node) already pays for is
    marked ``shared`` with marginal cost 0.
    """
    features = library.features
    computed: set[int] = set()
    remaining = list(enumerate(rules))
    nodes: list[RuleNode] = []
    while remaining:
        best_key: tuple[float, int] | None = None
        best_slot = 0
        for slot, (source_index, rule) in enumerate(remaining):
            marginal = sum(
                features[index].cost
                for index in rule.feature_indices
                if index not in computed
            )
            key = (marginal, source_index)
            if best_key is None or key < best_key:
                best_key, best_slot = key, slot
        source_index, rule = remaining.pop(best_slot)
        steps = _order_steps(rule, features, computed)
        nodes.append(RuleNode(
            rule=rule,
            position=len(nodes),
            source_index=source_index,
            steps=steps,
            marginal_cost=best_key[0],
        ))
        computed.update(rule.feature_indices)
    needed = tuple(sorted(computed))
    return BlockingPlan(
        nodes=tuple(nodes),
        needed=needed,
        total_cost=sum(features[index].cost for index in needed),
    )


def _order_steps(rule: Rule, features: list[Feature],
                 computed: set[int]) -> tuple[PredicateStep, ...]:
    """Push a rule's predicates down in ascending-cost order.

    Feature groups already materialized by earlier nodes sort first
    (their marginal cost is zero); the rest sort by ascending feature
    cost, then feature index for determinism.  Multiple predicates on
    the same feature stay adjacent in their original relative order —
    only the first one pays the column's cost.
    """
    def group_key(index: int) -> tuple[int, float, int]:
        already = index in computed
        return (0 if already else 1,
                0.0 if already else features[index].cost, index)

    groups = sorted({p.feature_index for p in rule.predicates},
                    key=group_key)
    steps: list[PredicateStep] = []
    seen = set(computed)
    for index in groups:
        for predicate in rule.predicates:
            if predicate.feature_index != index:
                continue
            shared = index in seen
            steps.append(PredicateStep(
                predicate=predicate,
                cost=0.0 if shared else features[index].cost,
                shared=shared,
            ))
            seen.add(index)
    return tuple(steps)
