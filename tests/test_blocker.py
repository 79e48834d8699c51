"""Crowdsourced blocking (Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BlockerConfig, CorleoneConfig, ForestConfig, MatcherConfig
from repro.core.blocker import Blocker, apply_rules_streaming
from repro.crowd.service import LabelingService
from repro.crowd.simulated import PerfectCrowd
from repro.data.sampling import cartesian_size
from repro.engine.events import (
    EVENT_BLOCKER_FALLBACK,
    EVENT_SHARD_COMPLETED,
    EventBus,
)
from repro.exec import apply_rules_sharded
from repro.features.library import build_feature_library
from repro.metrics import blocking_recall
from repro.rules.predicates import Predicate
from repro.rules.rule import Rule
from repro.synth.restaurants import generate_restaurants

from .oracle import scalar_survivors


@pytest.fixture
def blocking_setup():
    dataset = generate_restaurants(n_a=120, n_b=90, n_matches=30, seed=11)
    config = CorleoneConfig(
        forest=ForestConfig(n_trees=5),
        blocker=BlockerConfig(t_b=2000, top_k_rules=10,
                              max_labels_per_rule=60),
        matcher=MatcherConfig(batch_size=10, pool_size=40, n_converged=8,
                              n_degrade=6, max_iterations=20),
    )
    crowd = PerfectCrowd(dataset.matches, rng=np.random.default_rng(3))
    service = LabelingService(crowd, config.crowd)
    library = build_feature_library(dataset.table_a, dataset.table_b)
    blocker = Blocker(config, service, np.random.default_rng(4))
    return dataset, config, blocker, library, service


class TestTrigger:
    def test_small_product_skips_blocking(self, blocking_setup):
        dataset, config, _, library, service = blocking_setup
        big_config = config.replace(
            blocker=BlockerConfig(t_b=10**9)
        )
        blocker = Blocker(big_config, service, np.random.default_rng(4))
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert not result.triggered
        assert result.umbrella_size == cartesian_size(
            dataset.table_a, dataset.table_b
        )
        assert result.pairs_labeled == 0

    def test_large_product_triggers(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.triggered
        assert result.sample_size >= 2000


class TestBlockingQuality:
    def test_reduces_and_keeps_matches(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.umbrella_size < result.cartesian
        recall = blocking_recall(result.candidate_pairs, dataset.matches)
        assert recall >= 0.9

    def test_applied_rules_are_negative_and_accepted(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        accepted = {e.rule for e in result.evaluations if e.accepted}
        for rule in result.applied_rules:
            assert rule.is_negative
            assert rule in accepted

    def test_telemetry_populated(self, blocking_setup):
        dataset, _, blocker, library, _ = blocking_setup
        result = blocker.run(dataset.table_a, dataset.table_b, library,
                             dataset.seed_labels)
        assert result.n_candidate_rules > 0
        assert result.matcher_result is not None
        assert result.pairs_labeled > 0
        assert result.dollars > 0
        assert 0.0 < result.reduction_ratio <= 1.0


class TestStreamingApplication:
    def test_matches_vectorized_application(self, blocking_setup):
        """Streaming rule application must agree with the per-pair oracle."""
        dataset, _, _, library, _ = blocking_setup
        name_col = library.names.index("name_jaro_winkler")
        rule = Rule(
            [Predicate(name_col, "name_jaro_winkler", True, 0.5)],
            predicts_match=False,
        )
        survivors = apply_rules_streaming(
            dataset.table_a, dataset.table_b, [rule], library,
            chunk_size=700,
        )
        assert survivors == scalar_survivors(
            dataset.table_a, dataset.table_b, [rule], library)

    def test_no_rules_keeps_everything(self, blocking_setup):
        dataset, _, _, library, _ = blocking_setup
        survivors = apply_rules_streaming(
            dataset.table_a, dataset.table_b, [], library
        )
        assert len(survivors) == cartesian_size(
            dataset.table_a, dataset.table_b
        )


def _two_rules(library) -> list[Rule]:
    name_col = library.names.index("name_jaro_winkler")
    phone_col = library.names.index("phone_jaro_winkler")
    return [
        Rule([Predicate(name_col, "name_jaro_winkler", True, 0.5)],
             predicts_match=False),
        Rule([Predicate(phone_col, "phone_jaro_winkler", True, 0.3)],
             predicts_match=False),
    ]


class TestParallelApplication:
    def test_parallel_matches_sequential(self, blocking_setup):
        dataset, _, _, library, _ = blocking_setup
        rules = _two_rules(library)
        parallel = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library, n_workers=3
        )
        assert parallel == scalar_survivors(
            dataset.table_a, dataset.table_b, rules, library)

    def test_single_worker_is_sequential(self, blocking_setup,
                                         monkeypatch):
        """One worker runs every shard in-process: nothing forks."""
        import multiprocessing

        def no_fork(*args, **kwargs):
            raise AssertionError("n_workers=1 must not fork")

        dataset, _, _, library, _ = blocking_setup
        rules = _two_rules(library)
        golden = scalar_survivors(dataset.table_a, dataset.table_b,
                                  rules, library)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        survivors = apply_rules_sharded(
            dataset.table_a, dataset.table_b, rules, library,
            n_workers=1, shard_size=7,
        )
        assert survivors == golden

    def test_tfidf_rules_fall_back_to_sequential(self, blocking_setup):
        """Corpus-dependent (TF/IDF) rules no longer need a sequential
        fallback: sharded across workers they agree with the sequential
        streaming result."""
        from repro.data.table import AttrType, Record, Schema, Table
        schema = Schema.from_pairs([("desc", AttrType.TEXT)])
        table_a = Table("a", schema, [
            Record(f"a{i}", {"desc": f"alpha beta gamma {i}"})
            for i in range(12)
        ])
        table_b = Table("b", schema, [
            Record(f"b{i}", {"desc": f"alpha beta delta {i}"})
            for i in range(12)
        ])
        library = build_feature_library(table_a, table_b)
        cosine_col = library.names.index("desc_cosine_tfidf")
        rule = Rule(
            [Predicate(cosine_col, "desc_cosine_tfidf", True, 0.2)],
            predicts_match=False,
        )
        sequential = apply_rules_streaming(table_a, table_b, [rule],
                                           library)
        parallel = apply_rules_sharded(table_a, table_b, [rule],
                                       library, n_workers=4)
        assert parallel == sequential


class TestFallbackReporting:
    """Lost parallelism is reported on the bus, not hidden."""

    def test_deliberate_sizing_is_not_reported(self, blocking_setup,
                                               monkeypatch):
        """n_workers=1 is a choice, not lost parallelism, even where
        the platform cannot fork."""
        from repro.exec import executor as executor_module
        dataset, _, _, library, _ = blocking_setup
        monkeypatch.setattr(executor_module, "_fork_available",
                            lambda: False)
        bus = EventBus()
        names = []
        bus.subscribe(lambda e: names.append(e.name))
        apply_rules_sharded(
            dataset.table_a, dataset.table_b, _two_rules(library),
            library, n_workers=1, bus=bus,
        )
        assert EVENT_SHARD_COMPLETED in names
        assert EVENT_BLOCKER_FALLBACK not in names
