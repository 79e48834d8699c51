"""The pre-supplied feature library of Section 4.1 and pair vectorization."""

from .similarity import (
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan,
    overlap_coefficient,
    cosine_tfidf,
    exact_match,
    abs_diff,
    rel_diff,
)
from .batch import cache_stats, reset_cache_stats, reset_word_pair_table
from .tokenize import normalize, qgrams, word_tokens
from .library import Feature, FeatureLibrary, build_feature_library
from .vectorize import vectorize_pairs

__all__ = [
    "cache_stats",
    "reset_cache_stats",
    "reset_word_pair_table",
    "jaccard",
    "jaro",
    "jaro_winkler",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan",
    "overlap_coefficient",
    "cosine_tfidf",
    "exact_match",
    "abs_diff",
    "rel_diff",
    "normalize",
    "qgrams",
    "word_tokens",
    "Feature",
    "FeatureLibrary",
    "build_feature_library",
    "vectorize_pairs",
]
