"""Corleone's core modules (Figure 1).

* :mod:`~repro.core.blocker` — crowdsourced blocking (Section 4)
* :mod:`~repro.core.matcher` — crowdsourced active learning (Section 5)
* :mod:`~repro.core.stopping` — the matcher's stopping rules (Section 5.3)
* :mod:`~repro.core.estimator` — accuracy estimation (Section 6)
* :mod:`~repro.core.locator` — difficult-pairs locator (Section 7)
* :mod:`~repro.core.pipeline` — the hands-off orchestrator
* :mod:`~repro.core.baselines` — Baseline 1 / Baseline 2 (Section 9.1)
"""

from .stopping import ConfidenceMonitor, StopDecision, smooth
from .matcher import ActiveLearningMatcher, MatcherResult
from .blocker import Blocker, BlockerResult, apply_rules_streaming
from .estimator import AccuracyEstimate, AccuracyEstimator
from .locator import DifficultPairsLocator, LocatorResult
from .pipeline import Corleone, CorleoneResult, IterationRecord
from .baselines import BaselineResult, developer_blocking, run_baseline

__all__ = [
    "ConfidenceMonitor",
    "StopDecision",
    "smooth",
    "ActiveLearningMatcher",
    "MatcherResult",
    "Blocker",
    "BlockerResult",
    "apply_rules_streaming",
    "AccuracyEstimate",
    "AccuracyEstimator",
    "DifficultPairsLocator",
    "LocatorResult",
    "Corleone",
    "CorleoneResult",
    "IterationRecord",
    "BaselineResult",
    "developer_blocking",
    "run_baseline",
]
