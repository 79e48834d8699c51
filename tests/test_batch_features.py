"""Scalar-vs-batched feature parity: the batch engine's core contract.

``Feature.batch_value`` must reproduce the per-pair ``Feature.value``
loop bit for bit — including NaN positions for missing values — on every
measure and every dataset family.  The scalar path is the parity oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.pairs import Pair
from repro.data.table import AttrType, Record, Schema, Table
from repro.exceptions import FeatureError
from repro.features import batch
from repro.features.batch import (
    cache_stats,
    reset_cache_stats,
    reset_word_pair_table,
)
from repro.features.library import Feature, build_feature_library
from repro.features.similarity import (
    _char_matrix,
    batch_jaro_winkler,
    batch_levenshtein_similarity,
    jaro_winkler,
    levenshtein_similarity,
)
from repro.features.tokenize import normalize
from repro.features.vectorize import vectorize_pairs
from repro.synth.citations import generate_citations
from repro.synth.products import generate_products
from repro.synth.restaurants import generate_restaurants
from repro.synth.songs import generate_songs

from .oracle import scalar_matrix

_GENERATORS = {
    "restaurants": generate_restaurants,
    "citations": generate_citations,
    "products": generate_products,
    "songs": generate_songs,
}


def _random_pairs(table_a: Table, table_b: Table, count: int,
                  seed: int) -> list[Pair]:
    """``count`` distinct random pairs of the two tables."""
    a_ids = [record.record_id for record in table_a]
    b_ids = [record.record_id for record in table_b]
    total = len(a_ids) * len(b_ids)
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=min(count, total), replace=False)
    return [
        Pair(a_ids[index // len(b_ids)], b_ids[index % len(b_ids)])
        for index in flat
    ]


def _assert_parity(table_a: Table, table_b: Table, pairs, library) -> None:
    scalar = scalar_matrix(table_a, table_b, pairs, library)
    batched = vectorize_pairs(table_a, table_b, pairs, library).features
    assert np.array_equal(scalar, batched, equal_nan=True)


def test_parity_suite_covers_every_library_measure():
    """The datasets above exercise the full measure registry.

    The parity tests are only as strong as the measures the four
    synthetic schemas generate: if a library measure never appears in
    any extended feature library, batched/scalar parity for it is
    untested.  Assert the union of generated measures equals the
    registry backing ``build_feature_library`` (the same registry the
    CL003 kernel-parity lint rule diffs against the batched kernels).
    """
    from repro.features.library import _MEASURE_COSTS

    generated: set[str] = set()
    for generate in _GENERATORS.values():
        dataset = generate(n_a=12, n_b=10, n_matches=4, seed=3)
        library = build_feature_library(dataset.table_a, dataset.table_b,
                                        extended=True)
        generated.update(feature.measure for feature in library)
    missing = set(_MEASURE_COSTS) - generated
    assert not missing, (
        f"library measures never exercised by the parity suite: "
        f"{sorted(missing)}"
    )


class TestDatasetParity:
    """Exact parity across every synthetic dataset family and measure."""

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("name", sorted(_GENERATORS))
    def test_batched_equals_scalar(self, name, extended):
        dataset = _GENERATORS[name](n_a=40, n_b=30, n_matches=10, seed=3)
        library = build_feature_library(dataset.table_a, dataset.table_b,
                                        extended=extended)
        pairs = _random_pairs(dataset.table_a, dataset.table_b, 400, seed=5)
        _assert_parity(dataset.table_a, dataset.table_b, pairs, library)

    def test_repeat_call_uses_warm_cache(self):
        """A second batched run (warm per-table caches) stays identical."""
        dataset = generate_restaurants(n_a=30, n_b=20, n_matches=8, seed=9)
        library = build_feature_library(dataset.table_a, dataset.table_b)
        pairs = _random_pairs(dataset.table_a, dataset.table_b, 200, seed=1)
        first = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                                library).features
        second = vectorize_pairs(dataset.table_a, dataset.table_b, pairs,
                                 library).features
        np.testing.assert_array_equal(first, second)


class TestMissingValues:
    def test_nan_positions_match_scalar(self, book_tables):
        """Missing values NaN out in exactly the scalar positions —
        including for records added after the table cache was warmed."""
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        # Warm the per-table caches, then grow the table.
        vectorize_pairs(table_a, table_b, pairs, library)
        table_a.add(Record("a9", {"title": None, "author": "late arrival",
                                  "pages": None}))
        pairs += [Pair("a9", b.record_id) for b in table_b]
        _assert_parity(table_a, table_b, pairs, library)
        out = vectorize_pairs(table_a, table_b, pairs, library)
        title_col = out.feature_index("title_levenshtein")
        assert math.isnan(out.features[-1, title_col])


class TestFallbackAndErrors:
    def test_feature_without_kernel_falls_back_to_scalar(self, book_tables):
        table_a, table_b = book_tables
        feature = Feature(
            name="title_length_parity", attribute="title",
            measure="length_parity", cost=1.0,
            compute=lambda a, b: float(len(str(a)) == len(str(b))),
        )
        assert feature.batch_compute is None
        records_a = list(table_a)
        records_b = list(table_b)
        expected = [feature.value(a, b)
                    for a, b in zip(records_a, records_b)]
        np.testing.assert_array_equal(
            feature.batch_value(records_a, records_b), expected
        )

    def test_mismatched_lengths_rejected(self, book_tables):
        table_a, table_b = book_tables
        library = build_feature_library(table_a, table_b)
        feature = library.features[0]
        with pytest.raises(FeatureError):
            feature.batch_value(list(table_a), list(table_b)[:1])


_VALUE_TEXT = st.one_of(
    st.none(),
    st.text(alphabet="abc XY1.-", max_size=12),
)
_VALUE_NUM = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5).map(float),
)
_ROWS = st.lists(st.tuples(_VALUE_TEXT, _VALUE_TEXT, _VALUE_NUM),
                 min_size=1, max_size=5)


class TestPropertyParity:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows_a=_ROWS, rows_b=_ROWS)
    def test_arbitrary_values(self, rows_a, rows_b):
        """Parity holds on arbitrary (messy, partly missing) tables."""
        schema = Schema.from_pairs([
            ("code", AttrType.STRING),
            ("blurb", AttrType.TEXT),
            ("amount", AttrType.NUMERIC),
        ])

        def build(name, rows):
            return Table(name, schema, [
                Record(f"{name}{i}",
                       {"code": code, "blurb": blurb, "amount": amount})
                for i, (code, blurb, amount) in enumerate(rows)
            ])

        table_a = build("a", rows_a)
        table_b = build("b", rows_b)
        library = build_feature_library(table_a, table_b, extended=True)
        pairs = [
            Pair(a.record_id, b.record_id) for a in table_a for b in table_b
        ]
        _assert_parity(table_a, table_b, pairs, library)


# ----------------------------------------------------------------------
# Monge-Elkan: shape buckets and the word-pair table
# ----------------------------------------------------------------------

_BLURB_SCHEMA = Schema.from_pairs([("blurb", AttrType.TEXT)])


def _blurb_table(name: str, texts) -> Table:
    return Table(name, _BLURB_SCHEMA, [
        Record(f"{name}{i}", {"blurb": text}) for i, text in enumerate(texts)
    ])


def _monge_columns(texts_a, texts_b):
    """The Monge-Elkan feature plus cross-product record columns."""
    table_a = _blurb_table("a", texts_a)
    table_b = _blurb_table("b", texts_b)
    library = build_feature_library(table_a, table_b)
    feature = next(f for f in library if f.measure == "monge_elkan")
    records_a = [a for a in table_a for _ in table_b]
    records_b = [b for _ in table_a for b in table_b]
    return feature, records_a, records_b


def _monge_parity(feature, records_a, records_b) -> np.ndarray:
    """Batched Monge-Elkan, asserted bit-identical to the scalar oracle."""
    batched = feature.batch_value(records_a, records_b)
    scalar = np.array([feature.value(a, b)
                       for a, b in zip(records_a, records_b)])
    assert np.array_equal(batched, scalar, equal_nan=True)
    return batched


class TestMongeElkanBuckets:
    def test_bucket_split_across_blocks(self, monkeypatch):
        """A cap of 20 cells splits the one (2, 3) bucket into blocks of
        three rows, and the result still equals the scalar oracle."""
        feature, records_a, records_b = _monge_columns(
            ["data mining", "database system", "mining data", "data data",
             "deep learn"],
            ["data mining tools", "data base systems", "deep deep learning",
             "mine the data"],
        )
        calls = []
        block = batch._monge_elkan_block
        monkeypatch.setattr(batch, "_MONGE_BLOCK_ELEMENTS", 20)
        monkeypatch.setattr(
            batch, "_monge_elkan_block",
            lambda pieces, *args: (calls.append(pieces), block(pieces, *args)),
        )
        _monge_parity(feature, records_a, records_b)
        assert len(calls) == 7  # ceil(20 rows / 3 rows per block)
        assert all(len(pieces) == 1 for pieces in calls)
        assert all(rows.size * wa * wb <= 20
                   for pieces in calls for rows, wa, wb in pieces)

    def test_cold_and_warm_table_agree(self):
        """Scoring through an empty word-pair table and through the table
        it filled gives the same values, and the warm pass misses nothing."""
        feature, records_a, records_b = _monge_columns(
            ["alpha beta", "gamma", "beta beta delta", "zeta eta theta"],
            ["alpha bet", "gamma gamma", "delta beta", "theta"],
        )
        reset_word_pair_table()
        before = cache_stats().get("jw_word_pairs", 0)
        cold = _monge_parity(feature, records_a, records_b)
        filled = cache_stats().get("jw_word_pairs", 0)
        assert filled > before
        warm = _monge_parity(feature, records_a, records_b)
        assert cache_stats().get("jw_word_pairs", 0) == filled
        assert np.array_equal(cold, warm)

    def test_reset_cache_stats_keeps_table_warm(self):
        feature, records_a, records_b = _monge_columns(
            ["kappa lambda", "mu"], ["lambda kappa", "nu mu"])
        _monge_parity(feature, records_a, records_b)
        reset_cache_stats()
        _monge_parity(feature, records_a, records_b)
        assert cache_stats().get("jw_word_pairs", 0) == 0

    def test_row_order_only_permutes_output(self):
        feature, records_a, records_b = _monge_columns(
            ["red apple pie", "green apple", "pie", "", "apple apple red"],
            ["apple pie", "red green", "pies apple red", "!!", "green"],
        )
        base = _monge_parity(feature, records_a, records_b)
        order = np.random.default_rng(11).permutation(len(records_a))
        shuffled = _monge_parity(feature,
                                 [records_a[i] for i in order],
                                 [records_b[i] for i in order])
        assert np.array_equal(shuffled, base[order])

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(texts_a=st.lists(st.lists(st.sampled_from(
               ["ab", "abc", "ba", "x", "x1", "data", "date", "ab"]),
               max_size=4).map(" ".join), min_size=1, max_size=5),
           texts_b=st.lists(st.one_of(
               st.just(""), st.just("--"), st.sampled_from(["ab", "data"]),
               st.lists(st.sampled_from(["ab", "abd", "x", "datum", "ba"]),
                        min_size=2, max_size=4).map(" ".join),
           ), min_size=1, max_size=5))
    def test_repeated_single_and_empty_words(self, texts_a, texts_b):
        """Repeated words, one-word rows and word-less sides (empty or
        punctuation only) all match the scalar oracle."""
        feature, records_a, records_b = _monge_columns(texts_a, texts_b)
        _monge_parity(feature, records_a, records_b)


# ----------------------------------------------------------------------
# One-shot character matrices
# ----------------------------------------------------------------------


def _char_matrix_per_string(strings, width: int, pad: int) -> np.ndarray:
    """The reference layout: one UTF-32 encode per string."""
    out = np.full((len(strings), max(width, 1)), pad, dtype=np.int32)
    for row, text in enumerate(strings):
        if text:
            out[row, :len(text)] = np.frombuffer(
                text.encode("utf-32-le"), dtype=np.uint32
            ).astype(np.int32)
    return out


_CHAR_STRINGS = ["", "café", "", "𝔘x", "cafe", "x𝔘", "", "naïve ünï"]


class TestCharMatrix:
    @pytest.mark.parametrize("strings", [
        _CHAR_STRINGS, ["", ""], [], ["𝔘"], ["abc", "", "de"],
    ])
    @pytest.mark.parametrize("extra", [0, 3])
    def test_one_shot_equals_per_string(self, strings, extra):
        width = max(map(len, strings), default=0) + extra
        for pad in (-1, -2):
            expected = _char_matrix_per_string(strings, width, pad)
            actual = _char_matrix(strings, width, pad)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

    def test_batch_string_kernels_match_scalar(self):
        norms = [normalize(text) for text in _CHAR_STRINGS]
        norms_a = [a for a in norms for _ in norms]
        norms_b = [b for _ in norms for b in norms]
        assert np.array_equal(
            batch_levenshtein_similarity(norms_a, norms_b),
            [levenshtein_similarity(a, b) for a, b in zip(norms_a, norms_b)],
        )
        assert np.array_equal(
            batch_jaro_winkler(norms_a, norms_b),
            [jaro_winkler(a, b) for a, b in zip(norms_a, norms_b)],
        )
