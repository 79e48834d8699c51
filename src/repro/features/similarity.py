"""Similarity measures from the paper's feature library (Section 4.1).

Edit distance, Jaccard, Jaro-Winkler, TF/IDF cosine and Monge-Elkan are the
measures the paper names explicitly; overlap coefficient and numeric
differences round out the library.  All similarity functions return values
in [0, 1] where 1 means identical, except the raw distance/difference
helpers which are documented individually.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping, Sequence
from functools import lru_cache

import numpy as np

from .tokenize import normalize, word_tokens


def levenshtein_distance(s: str, t: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs).

    Runs in O(|s| * |t|) time and O(min) memory via two rolling rows.
    """
    if s == t:
        return 0
    if len(s) < len(t):
        s, t = t, s
    if not t:
        return len(s)
    previous = list(range(len(t) + 1))
    for i, cs in enumerate(s, start=1):
        current = [i]
        for j, ct in enumerate(t, start=1):
            current.append(min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + (cs != ct),  # substitution
            ))
        previous = current
    return previous[-1]


def levenshtein_similarity(s: str, t: str) -> float:
    """1 - distance / max_length, on normalized strings."""
    s, t = normalize(s), normalize(t)
    longest = max(len(s), len(t))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(s, t) / longest


def jaro(s: str, t: str) -> float:
    """Jaro similarity of two strings (0 = disjoint, 1 = identical)."""
    s, t = normalize(s), normalize(t)
    if s == t:
        return 1.0
    if not s or not t:
        return 0.0
    window = max(len(s), len(t)) // 2 - 1
    window = max(window, 0)

    s_flags = [False] * len(s)
    t_flags = [False] * len(t)
    matches = 0
    for i, ch in enumerate(s):
        low = max(0, i - window)
        high = min(len(t), i + window + 1)
        for j in range(low, high):
            if not t_flags[j] and t[j] == ch:
                s_flags[i] = t_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i, flagged in enumerate(s_flags):
        if not flagged:
            continue
        while not t_flags[j]:
            j += 1
        if s[i] != t[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    m = matches
    return (m / len(s) + m / len(t) + (m - transpositions) / m) / 3.0


def jaro_winkler(s: str, t: str, prefix_weight: float = 0.1,
                 max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the length of the common prefix."""
    base = jaro(s, t)
    s_n, t_n = normalize(s), normalize(t)
    prefix = 0
    for cs, ct in zip(s_n, t_n):
        if cs != ct or prefix == max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def jaccard(tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
    """Jaccard similarity of two token multisets' supports.

    Defined as 1.0 when both token sets are empty (two empty strings are
    identical for matching purposes).
    """
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    return len(set_a & set_b) / union


def overlap_coefficient(tokens_a: Sequence[str],
                        tokens_b: Sequence[str]) -> float:
    """|A ∩ B| / min(|A|, |B|); 1.0 when either side is empty-and-equal."""
    set_a, set_b = set(tokens_a), set(tokens_b)
    if not set_a and not set_b:
        return 1.0
    smaller = min(len(set_a), len(set_b))
    if smaller == 0:
        return 0.0
    return len(set_a & set_b) / smaller


@lru_cache(maxsize=1 << 18)
def _jaro_winkler_words(a: str, b: str) -> float:
    """Cached word-level Jaro-Winkler for Monge-Elkan's inner loop.

    Real tables draw words from a modest vocabulary, so the cache turns
    Monge-Elkan from the most expensive library feature into one of the
    cheapest after warm-up.
    """
    return jaro_winkler(a, b)


def monge_elkan(s: str, t: str) -> float:
    """Monge-Elkan: mean best Jaro-Winkler match of each word of s in t.

    The measure is asymmetric in general; we symmetrize by averaging both
    directions, which is the common practice for EM feature libraries.
    """
    words_s, words_t = word_tokens(s), word_tokens(t)
    if not words_s and not words_t:
        return 1.0
    if not words_s or not words_t:
        return 0.0

    def directed(ws: list[str], wt: list[str]) -> float:
        total = 0.0
        for a in ws:
            total += max(_jaro_winkler_words(a, b) for b in wt)
        return total / len(ws)

    return (directed(words_s, words_t) + directed(words_t, words_s)) / 2.0


def cosine_tfidf(tokens_a: Sequence[str], tokens_b: Sequence[str],
                 idf: Mapping[str, float]) -> float:
    """TF/IDF-weighted cosine similarity of two token lists.

    ``idf`` maps tokens to inverse-document-frequency weights computed over
    the corpus (both tables) by the feature library.  Unknown tokens get
    the maximum observed idf + 1 (they are maximally discriminative).
    """
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    default_idf = (max(idf.values()) + 1.0) if idf else 1.0

    def weights(tokens: Sequence[str]) -> dict[str, float]:
        counts = Counter(tokens)
        return {
            token: count * idf.get(token, default_idf)
            for token, count in counts.items()
        }

    wa, wb = weights(tokens_a), weights(tokens_b)
    dot = sum(wa[token] * wb[token] for token in wa.keys() & wb.keys())
    norm_a = math.sqrt(sum(v * v for v in wa.values()))
    norm_b = math.sqrt(sum(v * v for v in wb.values()))
    # corlint: disable-next-line=CL004 — exact-zero division guard
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def exact_match(a: object, b: object) -> float:
    """1.0 if the normalized values are equal, else 0.0.

    Strings are compared after :func:`normalize`; other values compare
    with ``==``.
    """
    if isinstance(a, str) and isinstance(b, str):
        return 1.0 if normalize(a) == normalize(b) else 0.0
    return 1.0 if a == b else 0.0


def abs_diff(a: float, b: float) -> float:
    """Absolute difference of two numbers (a raw distance, not in [0,1])."""
    return abs(a - b)


def rel_diff(a: float, b: float) -> float:
    """Relative difference |a-b| / max(|a|, |b|); 0.0 when both are 0."""
    denominator = max(abs(a), abs(b))
    # corlint: disable-next-line=CL004 — exact-zero division guard
    if denominator == 0.0:
        return 0.0
    return abs(a - b) / denominator


# ----------------------------------------------------------------------
# Batched variants (the §4.3 hot-path substrate)
#
# Each batch function evaluates one measure over whole columns of pairs at
# once and returns exactly the values the scalar function above would —
# the scalar path is the parity oracle, and tests assert bit-identical
# matrices.  Inputs are *pre-normalized* strings (normalize() is
# idempotent, so the scalar functions agree on them); tokenization and
# normalization are hoisted out by repro.features.batch so they happen
# once per record instead of once per pair.
# ----------------------------------------------------------------------

# Pad codes for character matrices.  Distinct negative values on the two
# sides guarantee a padded cell never compares equal to anything.
_PAD_A = -2
_PAD_B = -1


def _char_matrix(strings: Sequence[str], width: int, pad: int) -> np.ndarray:
    """Stack strings into an (n, width) int32 code-point matrix.

    All strings are encoded in one go (UTF-32 spends one unit per code
    point, so ``len`` gives each string's share) and scattered row-major
    into the cells left of each row's length.
    """
    out = np.full((len(strings), max(width, 1)), pad, dtype=np.int32)
    lengths = np.fromiter(map(len, strings), dtype=np.int64,
                          count=len(strings))
    codes = np.frombuffer("".join(strings).encode("utf-32-le"),
                          dtype=np.uint32)
    out[np.arange(out.shape[1]) < lengths[:, None]] = codes
    return out


def _dedup_pairs(strings_a: Sequence[str], strings_b: Sequence[str],
                 ) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Unique (a, b) string pairs plus the pair index of every row.

    Cartesian chunks repeat values heavily (every record of A meets every
    record of B, and low-cardinality columns such as brands repeat across
    records), so computing each distinct pair once is a large win.
    """
    first: dict[tuple[str, str], int] = {}
    unique: list[tuple[str, str]] = []
    index = np.empty(len(strings_a), dtype=np.intp)
    for row, key in enumerate(zip(strings_a, strings_b)):
        slot = first.get(key)
        if slot is None:
            slot = len(unique)
            first[key] = slot
            unique.append(key)
        index[row] = slot
    return unique, index


def batch_levenshtein_similarity(norms_a: Sequence[str],
                                 norms_b: Sequence[str]) -> np.ndarray:
    """``levenshtein_similarity`` over pre-normalized string pairs.

    The classic DP runs across the whole (deduplicated) batch at once:
    one numpy row per unique pair, iterating over character positions of
    the longer side.  The sequential-insertion dependency inside a DP row
    is resolved with the prefix-minimum identity
    ``c[j] = min_k<=j (base[k] + (j - k))``, so every step is a handful of
    vector operations.  Integer arithmetic throughout — results are
    bit-identical to the scalar function.
    """
    unique, index = _dedup_pairs(norms_a, norms_b)
    values = np.empty(len(unique), dtype=np.float64)

    hard: list[int] = []
    for slot, (s, t) in enumerate(unique):
        longest = max(len(s), len(t))
        if longest == 0:
            values[slot] = 1.0
        elif s == t:
            values[slot] = 1.0
        elif not s or not t:
            values[slot] = 0.0  # distance == longest exactly
        else:
            hard.append(slot)

    if hard:
        strs_a = [unique[slot][0] for slot in hard]
        strs_b = [unique[slot][1] for slot in hard]
        len_a = np.array([len(s) for s in strs_a], dtype=np.int32)
        len_b = np.array([len(t) for t in strs_b], dtype=np.int32)
        width_a = int(len_a.max())
        width_b = int(len_b.max())
        chars_a = _char_matrix(strs_a, width_a, _PAD_A)
        chars_b = _char_matrix(strs_b, width_b, _PAD_B)

        offsets = np.arange(width_b + 1, dtype=np.int32)
        previous = np.tile(offsets, (len(hard), 1))
        distance = np.empty(len(hard), dtype=np.int32)
        base = np.empty_like(previous)
        for i in range(1, width_a + 1):
            cost = (chars_a[:, i - 1:i] != chars_b).astype(np.int32)
            base[:, 0] = i
            np.minimum(previous[:, 1:] + 1, previous[:, :-1] + cost,
                       out=base[:, 1:])
            current = np.minimum.accumulate(base - offsets, axis=1) + offsets
            finished = len_a == i
            if finished.any():
                rows = np.flatnonzero(finished)
                distance[rows] = current[rows, len_b[rows]]
            previous = current
        longest = np.maximum(len_a, len_b).astype(np.float64)
        values[hard] = 1.0 - distance / longest

    return values[index]


def batch_jaro_winkler(norms_a: Sequence[str],
                       norms_b: Sequence[str]) -> np.ndarray:
    """``jaro_winkler`` over pre-normalized string pairs, vectorized.

    The greedy matching pass iterates over character positions (a few
    dozen at most for STRING attributes) with all pairs advanced in lock
    step; flags, match counts and transpositions live in numpy arrays.
    Matching order, transposition counting and the Winkler prefix boost
    replicate the scalar implementation exactly.
    """
    unique, index = _dedup_pairs(norms_a, norms_b)
    values = np.empty(len(unique), dtype=np.float64)

    hard: list[int] = []
    for slot, (s, t) in enumerate(unique):
        if s == t:
            # jaro() == 1.0, and the prefix boost adds 0.
            values[slot] = 1.0
        elif not s or not t:
            values[slot] = 0.0
        else:
            hard.append(slot)

    if hard:
        strs_a = [unique[slot][0] for slot in hard]
        strs_b = [unique[slot][1] for slot in hard]
        values[hard] = _jaro_winkler_block(strs_a, strs_b)

    return values[index]


def _jaro_winkler_block(strs_a: Sequence[str],
                        strs_b: Sequence[str]) -> np.ndarray:
    """Vectorized Jaro-Winkler for non-trivial, non-empty string pairs."""
    n = len(strs_a)
    len_a = np.array([len(s) for s in strs_a], dtype=np.int32)
    len_b = np.array([len(t) for t in strs_b], dtype=np.int32)
    width_a = int(len_a.max())
    width_b = int(len_b.max())
    chars_a = _char_matrix(strs_a, width_a, _PAD_A)
    chars_b = _char_matrix(strs_b, width_b, _PAD_B)
    window = np.maximum(np.maximum(len_a, len_b) // 2 - 1, 0)
    max_window = int(window.max())

    flags_a = np.zeros((n, width_a), dtype=bool)
    flags_b = np.zeros((n, width_b), dtype=bool)
    matches = np.zeros(n, dtype=np.int32)
    for i in range(width_a):
        # Greedy first-fit inside each row's window, scanning j ascending
        # exactly like the scalar loop; `open_rows` drops a row once its
        # position i has found a partner (or has no character there).
        open_rows = i < len_a
        low = max(0, i - max_window)
        high = min(width_b, i + max_window + 1)
        for j in range(low, high):
            if not open_rows.any():
                break
            candidates = (
                open_rows
                & (j >= i - window) & (j <= i + window) & (j < len_b)
                & ~flags_b[:, j]
                & (chars_b[:, j] == chars_a[:, i])
            )
            if candidates.any():
                flags_b[candidates, j] = True
                flags_a[candidates, i] = True
                matches += candidates
                open_rows = open_rows & ~candidates

    # Transpositions: align the k-th matched character of each side.
    jaro_values = np.zeros(n, dtype=np.float64)
    matched_rows = matches > 0
    if matched_rows.any():
        max_matches = int(matches.max())
        ranks_a = np.cumsum(flags_a, axis=1) - 1
        ranks_b = np.cumsum(flags_b, axis=1) - 1
        seq_a = np.full((n, max_matches), _PAD_A, dtype=np.int32)
        seq_b = np.full((n, max_matches), _PAD_B, dtype=np.int32)
        rows_a, cols_a = np.nonzero(flags_a)
        rows_b, cols_b = np.nonzero(flags_b)
        seq_a[rows_a, ranks_a[rows_a, cols_a]] = chars_a[rows_a, cols_a]
        seq_b[rows_b, ranks_b[rows_b, cols_b]] = chars_b[rows_b, cols_b]
        transpositions = (
            ((seq_a != seq_b) & (seq_a != _PAD_A)).sum(axis=1) // 2
        ).astype(np.int32)

        m = matches.astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            jaro_all = (
                m / len_a + m / len_b + (m - transpositions) / m
            ) / 3.0
        jaro_values[matched_rows] = jaro_all[matched_rows]

    # Winkler prefix boost over the first (up to) four characters.
    prefix_width = min(4, width_a, width_b)
    if prefix_width > 0:
        agree = chars_a[:, :prefix_width] == chars_b[:, :prefix_width]
        prefix = np.cumprod(agree, axis=1).sum(axis=1)
    else:
        prefix = np.zeros(n, dtype=np.int64)
    return jaro_values + prefix * 0.1 * (1.0 - jaro_values)


def build_idf(documents: Sequence[Sequence[str]]) -> dict[str, float]:
    """Smoothed inverse document frequencies for a token corpus.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, the standard smooth variant
    that keeps weights positive and finite.
    """
    n_docs = len(documents)
    df: Counter[str] = Counter()
    for doc in documents:
        df.update(set(doc))
    return {
        token: math.log((1 + n_docs) / (1 + count)) + 1.0
        for token, count in df.items()
    }
