"""Microbenchmarks of the hot substrate paths.

Unlike the table/figure benches (single-shot pipeline runs), these are
honest multi-round pytest-benchmark measurements of the operations that
dominate wall-clock: similarity features, pair vectorization, forest
training/prediction, and rule application.  Useful for catching
performance regressions when the substrates change.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ForestConfig
from repro.features.similarity import (
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
)
from repro.forest.forest import train_forest


class TestSimilarityMicro:
    S = "kingston hyperx 4gb kit 2 x 2gb ddr3 memory"
    T = "kingston 4gb hyperx ddr3 kit 1800mhz"

    def test_levenshtein(self, benchmark):
        value = benchmark(levenshtein_similarity, self.S, self.T)
        assert 0.0 <= value <= 1.0

    def test_jaro_winkler(self, benchmark):
        value = benchmark(jaro_winkler, self.S, self.T)
        assert 0.0 <= value <= 1.0

    def test_monge_elkan_cached(self, benchmark):
        """After the word-level cache warms, Monge-Elkan is cheap."""
        monge_elkan(self.S, self.T)  # warm the jaro-winkler cache
        value = benchmark(monge_elkan, self.S, self.T)
        assert value > 0.5


class TestVectorizationMicro:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.features.library import build_feature_library
        from repro.synth.restaurants import generate_restaurants
        dataset = generate_restaurants(n_a=80, n_b=60, n_matches=20,
                                       seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        pairs = [
            (a.record_id, b.record_id)
            for a in dataset.table_a for b in dataset.table_b
        ][:1000]
        return dataset, library, pairs

    def test_vectorize_1k_pairs(self, benchmark, world):
        from repro.data.pairs import Pair
        from repro.features.vectorize import vectorize_pairs
        dataset, library, pairs = world
        result = benchmark.pedantic(
            lambda: vectorize_pairs(
                dataset.table_a, dataset.table_b,
                [Pair(*p) for p in pairs], library,
            ),
            rounds=3, iterations=1,
        )
        assert len(result) == 1000


class TestEngineThroughput:
    """Per-pair scalar loop vs batched vectorization, products, 10k pairs.

    The pair of timings (same pairs, same library) is the headline
    number for the batched feature-evaluation engine: the scalar arm is
    the ``Feature.value`` loop the parity tests use as their oracle,
    the batched arm is :func:`vectorize_pairs`.  ``collect_results.py
    --substrates`` distills their ratio into the
    ``BENCH_substrates.json`` baseline.
    """

    N_PAIRS = 10_000

    @pytest.fixture(scope="class")
    def products_world(self):
        from repro.data.pairs import Pair
        from repro.features.library import build_feature_library
        from repro.synth.products import generate_products
        dataset = generate_products(n_a=250, n_b=2200, n_matches=115,
                                    seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        a_ids = [r.record_id for r in dataset.table_a]
        b_ids = [r.record_id for r in dataset.table_b]
        rng = np.random.default_rng(2)
        flat = rng.choice(len(a_ids) * len(b_ids), size=self.N_PAIRS,
                          replace=False)
        pairs = [
            Pair(a_ids[index // len(b_ids)], b_ids[index % len(b_ids)])
            for index in flat
        ]
        return dataset, library, pairs

    def _run(self, benchmark, vectorize, engine, rounds):
        result = benchmark.pedantic(vectorize, rounds=rounds,
                                    iterations=1, warmup_rounds=1)
        benchmark.extra_info["engine"] = engine
        benchmark.extra_info["pairs"] = self.N_PAIRS
        assert len(result) == self.N_PAIRS

    def test_vectorize_products_10k_scalar(self, benchmark,
                                           products_world):
        dataset, library, pairs = products_world

        def scalar():
            rows = []
            for pair in pairs:
                record_a = dataset.table_a[pair.a_id]
                record_b = dataset.table_b[pair.b_id]
                rows.append([feature.value(record_a, record_b)
                             for feature in library])
            return rows

        self._run(benchmark, scalar, "scalar", rounds=2)

    def test_vectorize_products_10k_batched(self, benchmark,
                                            products_world):
        from repro.features.vectorize import vectorize_pairs
        dataset, library, pairs = products_world
        self._run(benchmark, lambda: vectorize_pairs(
            dataset.table_a, dataset.table_b, pairs, library),
            "batched", rounds=5)


class TestForestMicro:
    @pytest.fixture(scope="class")
    def training_data(self):
        rng = np.random.default_rng(3)
        x = rng.random((400, 16))
        y = (x[:, 0] + x[:, 1]) > 1.0
        probe = rng.random((20_000, 16))
        return x, y, probe

    def test_train_400x16(self, benchmark, training_data):
        x, y, _ = training_data
        forest = benchmark.pedantic(
            lambda: train_forest(x, y, ForestConfig(),
                                 np.random.default_rng(1)),
            rounds=3, iterations=1,
        )
        assert len(forest) == 10

    def test_train_products_400x21(self, benchmark):
        """The products matcher's shape: 21 features, m = 5 per split,
        min_samples_leaf 2, one column with missing values."""
        rng = np.random.default_rng(4)
        x = rng.random((400, 21))
        x[rng.random(400) < 0.3, 4] = np.nan
        y = (x[:, 0] + x[:, 7]) > 1.0
        config = ForestConfig(min_samples_leaf=2)
        assert config.features_per_split(21) == 5
        forest = benchmark.pedantic(
            lambda: train_forest(x, y, config, np.random.default_rng(1)),
            rounds=5, iterations=1,
        )
        assert len(forest) == 10

    def test_predict_20k(self, benchmark, training_data):
        x, y, probe = training_data
        forest = train_forest(x, y, ForestConfig(),
                              np.random.default_rng(1))
        predictions = benchmark.pedantic(
            lambda: forest.predict(probe), rounds=3, iterations=1
        )
        assert predictions.shape == (20_000,)

    def test_entropy_20k(self, benchmark, training_data):
        x, y, probe = training_data
        forest = train_forest(x, y, ForestConfig(),
                              np.random.default_rng(1))
        entropy = benchmark.pedantic(
            lambda: forest.entropy(probe), rounds=3, iterations=1
        )
        assert entropy.shape == (20_000,)


class TestRuleMicro:
    def test_rule_application_100k_rows(self, benchmark):
        from repro.rules.predicates import Predicate
        from repro.rules.rule import Rule
        rng = np.random.default_rng(5)
        matrix = rng.random((100_000, 8))
        matrix[::17, 3] = np.nan
        rule = Rule(
            [
                Predicate(0, "f0", True, 0.4),
                Predicate(3, "f3", False, 0.2, nan_satisfies=True),
            ],
            predicts_match=False,
        )
        mask = benchmark(rule.applies, matrix)
        assert mask.shape == (100_000,)
