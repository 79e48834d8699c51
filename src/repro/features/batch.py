"""Batched feature evaluation: the blocking/vectorization hot-path engine.

Corleone's §4.3 rule-application step streams all of A x B through the
blocking rules — the paper's only Hadoop-scale component.  Evaluating
features with a per-pair, per-feature Python loop makes that path (and
every :func:`repro.features.vectorize.vectorize_pairs` call feeding the
matcher, estimator and locator) the dominant cost of a run.  This module
is the batch-first substrate underneath
:meth:`repro.features.library.Feature.batch_value`:

* :class:`PreparedColumn` caches *per-record* derived values — normalized
  strings, word/q-gram token sets, interned word-id arrays, TF/IDF weight
  vectors, Soundex code sets — so tokenization happens once per record
  instead of once per pair;
* :class:`TableFeatureCache` holds one :class:`PreparedColumn` per
  attribute of a :class:`~repro.data.table.Table`, shared across chunks
  and features (obtained via :func:`table_cache`, keyed weakly by table);
* :func:`kernel_for` maps every library measure to a batch kernel that
  evaluates whole pair-columns at once — pure numpy for numeric measures
  and the DP string measures (Levenshtein, Jaro-Winkler, Smith-Waterman),
  set arithmetic over precomputed token sets for the Jaccard family, and
  shape-bucketed word-id matrices over a sorted word-pair Jaro-Winkler
  table for Monge-Elkan.

Every kernel returns exactly the values the scalar ``Feature.value``
path produces — the scalar loop remains both the fallback (for features
without a kernel) and the parity oracle the test suite checks batch
results against, bit for bit (including NaN positions).
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from ..data.table import AttrType, Record, Table
from . import extended as ext
from . import similarity as sim
from .tokenize import normalize, qgrams, word_tokens

BatchKernel = Callable[
    ["PreparedColumn", Sequence[Record], "PreparedColumn", Sequence[Record]],
    np.ndarray,
]
"""A measure evaluated column-wise: (prepared_a, records_a, prepared_b,
records_b) -> float64 array aligned with the record lists.  Kernels do
not handle missing values — ``Feature.batch_value`` masks them to NaN."""


# ----------------------------------------------------------------------
# Cache-miss accounting
# ----------------------------------------------------------------------

_CACHE_MISSES: "Counter[str]" = Counter()
"""Prepared-column cache misses by accessor kind, process-lifetime.

``tfidf_table`` counts whole TF/IDF weight-table (re)builds — the
legacy per-rule waste the plan compiler exists to remove: tables are
keyed by idf-mapping *identity*, so two kernels built over the same
column but through different ``kernel_for`` calls silently recompute
every weight vector.  Like the wall-clock profiler, these counters
depend on process-lifetime cache warmth (a replayed run hits where the
first run missed), so they are deliberately NOT part of the
checkpointed metrics registry — read them via :func:`cache_stats`
(``make bench-plan`` records them before/after in BENCH_plan.json).
"""


def _note_misses(kind: str, count: int) -> None:
    """Record ``count`` cache misses for one accessor kind."""
    if count > 0:
        _CACHE_MISSES[kind] += count


def cache_stats() -> dict[str, int]:
    """A snapshot of the process-lifetime cache-miss counters."""
    return dict(_CACHE_MISSES)


def reset_cache_stats() -> None:
    """Zero the cache-miss counters (benchmark harness hook).

    Caches themselves stay warm; :func:`reset_word_pair_table` empties
    the Monge-Elkan word-pair table.
    """
    _CACHE_MISSES.clear()


# ----------------------------------------------------------------------
# Word interning (shared by the Monge-Elkan kernel)
# ----------------------------------------------------------------------

_WORD_IDS: dict[str, int] = {}
_WORDS: list[str] = []


def _intern_word(word: str) -> int:
    word_id = _WORD_IDS.get(word)
    if word_id is None:
        word_id = len(_WORDS)
        _WORD_IDS[word] = word_id
        _WORDS.append(word)
    return word_id


# ----------------------------------------------------------------------
# Per-record prepared values
# ----------------------------------------------------------------------


class PreparedColumn:
    """Record-level derived values for one attribute of one table.

    Every accessor takes the (pair-aligned) record list and returns an
    aligned list/array of prepared values, memoized per ``record_id`` —
    lazily, so records added to a table after the cache was created are
    still picked up.  Missing values map to neutral empties ("" / empty
    set); callers mask them to NaN afterwards.
    """

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute
        self._missing: dict[str, bool] = {}
        self._numbers: dict[str, float] = {}
        self._norms: dict[str, str] = {}
        self._tokens: dict[str, tuple[str, ...]] = {}
        self._token_sets: dict[str, frozenset[str]] = {}
        self._qgram_sets: dict[str, frozenset[str]] = {}
        self._word_ids: dict[str, np.ndarray] = {}
        self._soundex: dict[str, frozenset[str]] = {}
        # id(idf) -> (idf, default_idf, record_id -> (weights, norm)).
        self._tfidf: dict[int, tuple] = {}

    def missing_flags(self, records: Sequence[Record]) -> list[bool]:
        """Whether each record's attribute value is None, memoized."""
        memo = self._missing
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        attribute = self.attribute
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                value = record.get(attribute) is None
                memo[record.record_id] = value
            out.append(value)
        _note_misses("missing_flags", len(memo) - before)
        return out

    def missing_mask(self, records_a: Sequence[Record],
                     records_b: Sequence[Record],
                     other: "PreparedColumn") -> np.ndarray:
        """Pair-aligned bool mask: True where either side is missing."""
        return (np.array(self.missing_flags(records_a), dtype=bool)
                | np.array(other.missing_flags(records_b), dtype=bool))

    def numbers(self, records: Sequence[Record]) -> np.ndarray:
        """Float values per record (NaN where missing), memoized."""
        memo = self._numbers
        try:
            return np.array([memo[record.record_id] for record in records],
                            dtype=np.float64)
        except KeyError:
            pass
        before = len(memo)
        attribute = self.attribute
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = math.nan if raw is None else float(raw)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("numbers", len(memo) - before)
        return np.array(out, dtype=np.float64)

    def raw(self, records: Sequence[Record]) -> list:
        """The raw attribute value per record (None where missing)."""
        attribute = self.attribute
        return [record.get(attribute) for record in records]

    def norms(self, records: Sequence[Record]) -> list[str]:
        """Normalized string per record ("" where missing), memoized."""
        memo, attribute = self._norms, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = "" if raw is None else normalize(str(raw))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("norms", len(memo) - before)
        return out

    def tokens(self, records: Sequence[Record]) -> list[tuple[str, ...]]:
        """Word-token tuple per record (empty where missing), memoized."""
        memo, attribute = self._tokens, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = (() if raw is None
                         else tuple(word_tokens(str(raw))))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("tokens", len(memo) - before)
        return out

    def token_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """Word-token frozenset per record, memoized."""
        memo = self._token_sets
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = frozenset(toks)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("token_sets", len(memo) - before)
        return out

    def qgram_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """3-gram frozenset per record, memoized."""
        memo, attribute = self._qgram_sets, self.attribute
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        out = []
        for record in records:
            value = memo.get(record.record_id)
            if value is None:
                raw = record.get(attribute)
                value = (frozenset() if raw is None
                         else frozenset(qgrams(str(raw), 3)))
                memo[record.record_id] = value
            out.append(value)
        _note_misses("qgram_sets", len(memo) - before)
        return out

    def word_id_arrays(self, records: Sequence[Record]) -> list[np.ndarray]:
        """Interned word-id int64 array per record, memoized."""
        memo = self._word_ids
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = np.fromiter(
                    (_intern_word(word) for word in toks),
                    dtype=np.int64, count=len(toks),
                )
                memo[record.record_id] = value
            out.append(value)
        _note_misses("word_id_arrays", len(memo) - before)
        return out

    def soundex_sets(self, records: Sequence[Record]) -> list[frozenset[str]]:
        """Soundex-code frozenset per record's words, memoized."""
        memo = self._soundex
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                value = frozenset(ext.soundex(word) for word in toks)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("soundex_sets", len(memo) - before)
        return out

    def tfidf_weights(self, records: Sequence[Record],
                      idf: Mapping[str, float]) -> list[tuple[dict, float]]:
        """Per-record (token -> tf*idf weights, norm), memoized per idf.

        Weight dicts are built exactly as the scalar
        :func:`repro.features.similarity.cosine_tfidf` builds them, so
        the per-pair dot product reproduces its result bit for bit.
        """
        entry = self._tfidf.get(id(idf))
        if entry is None:
            # A fresh idf mapping (even one equal to an already-cached
            # mapping) starts an empty weight table: every record's
            # weights will be recomputed.  This is the per-rule rebuild
            # the cache-miss counters make visible.
            _note_misses("tfidf_table", 1)
            default_idf = (max(idf.values()) + 1.0) if idf else 1.0
            entry = (idf, default_idf, {})
            self._tfidf[id(idf)] = entry
        _, default_idf, memo = entry
        try:
            return [memo[record.record_id] for record in records]
        except KeyError:
            pass
        before = len(memo)
        tokens = self.tokens(records)
        out = []
        for record, toks in zip(records, tokens):
            value = memo.get(record.record_id)
            if value is None:
                counts = Counter(toks)
                weights = {
                    token: count * idf.get(token, default_idf)
                    for token, count in counts.items()
                }
                norm = math.sqrt(sum(v * v for v in weights.values()))
                value = (weights, norm)
                memo[record.record_id] = value
            out.append(value)
        _note_misses("tfidf_weights", len(memo) - before)
        return out


class TableFeatureCache:
    """One :class:`PreparedColumn` per attribute, for one table's records.

    Caches are keyed by ``record_id``, so a cache must only ever be used
    with records of the table it was created for — obtain instances via
    :func:`table_cache`, which enforces that by construction.
    """

    def __init__(self) -> None:
        self._columns: dict[str, PreparedColumn] = {}

    def column(self, attribute: str) -> PreparedColumn:
        """The (lazily created) prepared column for ``attribute``."""
        column = self._columns.get(attribute)
        if column is None:
            column = PreparedColumn(attribute)
            self._columns[attribute] = column
        return column


_TABLE_CACHES: "weakref.WeakKeyDictionary[Table, TableFeatureCache]" = (
    weakref.WeakKeyDictionary()
)


def table_cache(table: Table) -> TableFeatureCache:
    """The shared feature cache of ``table`` (created on first use)."""
    cache = _TABLE_CACHES.get(table)
    if cache is None:
        cache = TableFeatureCache()
        _TABLE_CACHES[table] = cache
    return cache


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


def _exact_numeric(col_a, records_a, col_b, records_b):
    return (col_a.numbers(records_a)
            == col_b.numbers(records_b)).astype(np.float64)


def _exact_string(col_a, records_a, col_b, records_b):
    norms_a = col_a.norms(records_a)
    norms_b = col_b.norms(records_b)
    return np.fromiter(
        (1.0 if a == b else 0.0 for a, b in zip(norms_a, norms_b)),
        dtype=np.float64, count=len(norms_a),
    )


def _abs_diff(col_a, records_a, col_b, records_b):
    return np.abs(col_a.numbers(records_a) - col_b.numbers(records_b))


def _rel_diff(col_a, records_a, col_b, records_b):
    a = col_a.numbers(records_a)
    b = col_b.numbers(records_b)
    denominator = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        # corlint: disable-next-line=CL004 — exact-zero division guard
        return np.where(denominator == 0.0, 0.0,
                        np.abs(a - b) / denominator)


def _jaccard_over(sets_of):
    def kernel(col_a, records_a, col_b, records_b):
        sets_a = sets_of(col_a, records_a)
        sets_b = sets_of(col_b, records_b)
        out = np.empty(len(sets_a), dtype=np.float64)
        for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
            if not sa and not sb:
                out[i] = 1.0
            else:
                intersection = len(sa & sb)
                out[i] = intersection / (len(sa) + len(sb) - intersection)
        return out
    return kernel


_jaccard_word = _jaccard_over(lambda col, recs: col.token_sets(recs))
_jaccard_qgram = _jaccard_over(lambda col, recs: col.qgram_sets(recs))


def _overlap(col_a, records_a, col_b, records_b):
    sets_a = col_a.token_sets(records_a)
    sets_b = col_b.token_sets(records_b)
    out = np.empty(len(sets_a), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
        if not sa and not sb:
            out[i] = 1.0
        else:
            smaller = min(len(sa), len(sb))
            out[i] = len(sa & sb) / smaller if smaller else 0.0
    return out


def _containment(col_a, records_a, col_b, records_b):
    sets_a = col_a.token_sets(records_a)
    sets_b = col_b.token_sets(records_b)
    out = np.empty(len(sets_a), dtype=np.float64)
    for i, (sa, sb) in enumerate(zip(sets_a, sets_b)):
        if not sa and not sb:
            out[i] = 1.0
        elif not sa or not sb:
            out[i] = 0.0
        else:
            intersection = len(sa & sb)
            out[i] = max(intersection / len(sa), intersection / len(sb))
    return out


def _levenshtein(col_a, records_a, col_b, records_b):
    return sim.batch_levenshtein_similarity(
        col_a.norms(records_a), col_b.norms(records_b)
    )


def _jaro_winkler(col_a, records_a, col_b, records_b):
    return sim.batch_jaro_winkler(
        col_a.norms(records_a), col_b.norms(records_b)
    )


def _smith_waterman(col_a, records_a, col_b, records_b):
    return ext.batch_smith_waterman(
        col_a.norms(records_a), col_b.norms(records_b)
    )


def _prefix(col_a, records_a, col_b, records_b):
    norms_a = col_a.norms(records_a)
    norms_b = col_b.norms(records_b)
    prefix = ext.prefix_similarity
    return np.fromiter(
        (prefix(a, b) for a, b in zip(norms_a, norms_b)),
        dtype=np.float64, count=len(norms_a),
    )


def _soundex(col_a, records_a, col_b, records_b):
    tokens_a = col_a.tokens(records_a)
    tokens_b = col_b.tokens(records_b)
    codes_a = col_a.soundex_sets(records_a)
    codes_b = col_b.soundex_sets(records_b)
    out = np.empty(len(tokens_a), dtype=np.float64)
    for i, (ta, tb, ca, cb) in enumerate(
            zip(tokens_a, tokens_b, codes_a, codes_b)):
        if not ta and not tb:
            out[i] = 1.0
        elif not ta or not tb:
            out[i] = 0.0
        else:
            shorter, other = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
            hits = sum(1 for code in shorter if code in other)
            out[i] = hits / len(shorter)
    return out


def _make_cosine_tfidf(idf: Mapping[str, float]) -> BatchKernel:
    def kernel(col_a, records_a, col_b, records_b):
        pairs_a = col_a.tfidf_weights(records_a, idf)
        pairs_b = col_b.tfidf_weights(records_b, idf)
        out = np.empty(len(pairs_a), dtype=np.float64)
        for i, ((wa, norm_a), (wb, norm_b)) in enumerate(
                zip(pairs_a, pairs_b)):
            if not wa and not wb:
                out[i] = 1.0
            elif not wa or not wb:
                out[i] = 0.0
            # corlint: disable-next-line=CL004 — exact-zero guard
            elif norm_a == 0.0 or norm_b == 0.0:
                out[i] = 0.0
            else:
                dot = sum(wa[token] * wb[token]
                          for token in wa.keys() & wb.keys())
                out[i] = dot / (norm_a * norm_b)
        return out
    return kernel


# ----------------------------------------------------------------------
# Monge-Elkan over shape-bucketed word-id matrices
# ----------------------------------------------------------------------

_MONGE_BLOCK_ELEMENTS = 1 << 20
"""Cap on word-pair cells (rows x words_a x words_b) scored per block.
Each cell takes four 8-byte scratch values (key, sorted key, inverse
index, score), so a block stays near 32 MB regardless of chunk size."""


def _monge_elkan(col_a, records_a, col_b, records_b):
    ids_a = col_a.word_id_arrays(records_a)
    ids_b = col_b.word_id_arrays(records_b)
    n = len(ids_a)
    size_a = np.fromiter(map(len, ids_a), dtype=np.int64, count=n)
    size_b = np.fromiter(map(len, ids_b), dtype=np.int64, count=n)
    # Both sides empty -> 1.0, one side empty -> 0.0; the rest is
    # overwritten below.
    out = np.where((size_a == 0) & (size_b == 0), 1.0, 0.0)
    hard = np.flatnonzero((size_a > 0) & (size_b > 0))
    if not hard.size:
        return out

    # Words of every row laid end to end; a row's words start at its
    # offset, so a bucket gathers its exact (k, wa) matrix in one index.
    flat_a = np.concatenate(ids_a)
    flat_b = np.concatenate(ids_b)
    start_a = np.cumsum(size_a) - size_a
    start_b = np.cumsum(size_b) - size_b

    # Shape buckets: rows sharing (len(words_a), len(words_b)), split so
    # no piece exceeds the block cap, then packed into blocks.
    hard = hard[np.lexsort((size_b[hard], size_a[hard]))]
    shape_a, shape_b = size_a[hard], size_b[hard]
    edges = np.flatnonzero((np.diff(shape_a) != 0) | (np.diff(shape_b) != 0))
    block: list[tuple[np.ndarray, int, int]] = []
    cells = 0
    for rows in np.split(hard, edges + 1):
        wa, wb = int(size_a[rows[0]]), int(size_b[rows[0]])
        step = max(1, _MONGE_BLOCK_ELEMENTS // (wa * wb))
        for first in range(0, rows.size, step):
            piece = rows[first:first + step]
            if block and cells + piece.size * wa * wb > _MONGE_BLOCK_ELEMENTS:
                _monge_elkan_block(block, flat_a, start_a, flat_b, start_b,
                                   out)
                block, cells = [], 0
            block.append((piece, wa, wb))
            cells += piece.size * wa * wb
    _monge_elkan_block(block, flat_a, start_a, flat_b, start_b, out)
    return out


def _monge_elkan_block(block, flat_a, start_a, flat_b, start_b, out) -> None:
    """Score one block of shape-bucket pieces ``(rows, wa, wb)`` into out."""
    keys = []
    for rows, wa, wb in block:
        mat_a = flat_a[start_a[rows][:, None] + np.arange(wa)]
        mat_b = flat_b[start_b[rows][:, None] + np.arange(wb)]
        keys.append(((mat_a[:, :, None] << 32) | mat_b[:, None, :]).ravel())
    values = _word_pair_scores(np.concatenate(keys))

    offset = 0
    for rows, wa, wb in block:
        cells = rows.size * wa * wb
        grid = values[offset:offset + cells].reshape(rows.size, wa, wb)
        offset += cells
        # cumsum adds left to right, exactly like the scalar directed()
        # loop (numpy's sum would add pairwise), keeping bit parity.
        total_ab = np.cumsum(grid.max(axis=2), axis=1)[:, -1]
        total_ba = np.cumsum(grid.max(axis=1), axis=1)[:, -1]
        out[rows] = (total_ab / wa + total_ba / wb) / 2.0


# ----------------------------------------------------------------------
# Word-pair Jaro-Winkler table
# ----------------------------------------------------------------------

def _empty_word_pair_table() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


_JW_TABLE = _empty_word_pair_table()
"""Sorted ``id_a << 32 | id_b`` word-pair keys scored so far and their
word-level Jaro-Winkler values.  Bounded by the square of the
co-occurring vocabulary, which real tables keep modest."""


def reset_word_pair_table() -> None:
    """Empty the word-pair Jaro-Winkler table (test hook).

    :func:`reset_cache_stats` leaves the table intact: it zeroes counters
    only, so a benchmark can reset them without making the next run cold.
    """
    global _JW_TABLE
    _JW_TABLE = _empty_word_pair_table()


def _word_pair_scores(keys: np.ndarray) -> np.ndarray:
    """Word-level Jaro-Winkler of every ``id_a << 32 | id_b`` key.

    Keys missing from the table are scored in one batch and merged in;
    each miss counts once as a ``jw_word_pairs`` cache miss.
    """
    global _JW_TABLE
    table_keys, table_values = _JW_TABLE
    unique, inverse = np.unique(keys, return_inverse=True)
    at = np.searchsorted(table_keys, unique)
    known = at < table_keys.size
    known[known] = table_keys[at[known]] == unique[known]
    scores = np.empty(unique.size, dtype=np.float64)
    scores[known] = table_values[at[known]]
    missing = ~known
    if missing.any():
        fresh = _score_word_pairs(unique[missing])
        scores[missing] = fresh
        _JW_TABLE = (np.insert(table_keys, at[missing], unique[missing]),
                     np.insert(table_values, at[missing], fresh))
        _note_misses("jw_word_pairs", int(missing.sum()))
    return scores[inverse]


def _score_word_pairs(keys: np.ndarray) -> np.ndarray:
    """Jaro-Winkler of the word pairs behind ``keys``, batched.

    Words match ``[a-z0-9]+``, so they are already normalized and never
    empty — exactly the input ``sim._jaro_winkler_block`` requires.  One
    block runs per length of the longer word, so a rare long word does
    not widen the character loops of every other pair.
    """
    id_a = keys >> 32
    id_b = keys & 0xFFFFFFFF
    scores = np.ones(keys.size, dtype=np.float64)  # equal words score 1.0
    differ = np.flatnonzero(id_a != id_b)
    if not differ.size:
        return scores
    words_a = [_WORDS[i] for i in id_a[differ].tolist()]
    words_b = [_WORDS[i] for i in id_b[differ].tolist()]
    longest = np.maximum(np.fromiter(map(len, words_a), dtype=np.int64),
                         np.fromiter(map(len, words_b), dtype=np.int64))
    order = np.argsort(longest, kind="stable")
    edges = np.flatnonzero(np.diff(longest[order])) + 1
    for group in np.split(order, edges):
        scores[differ[group]] = sim._jaro_winkler_block(
            [words_a[i] for i in group.tolist()],
            [words_b[i] for i in group.tolist()],
        )
    return scores


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_KERNELS: dict[str, BatchKernel] = {
    "abs_diff": _abs_diff,
    "rel_diff": _rel_diff,
    "jaccard_word": _jaccard_word,
    "jaccard_qgram": _jaccard_qgram,
    "overlap": _overlap,
    "containment": _containment,
    "levenshtein": _levenshtein,
    "jaro_winkler": _jaro_winkler,
    "monge_elkan": _monge_elkan,
    "smith_waterman": _smith_waterman,
    "prefix": _prefix,
    "soundex": _soundex,
}


def kernel_for(measure: str, attr_type: AttrType,
               idf: Mapping[str, float] | None = None) -> BatchKernel | None:
    """The batch kernel for ``measure`` on an ``attr_type`` column.

    Returns None for measures without a batched implementation; those
    features fall back to the scalar ``value()`` loop.
    """
    if measure == "exact":
        return (_exact_numeric if attr_type is AttrType.NUMERIC
                else _exact_string)
    if measure == "cosine_tfidf":
        return _make_cosine_tfidf(idf if idf is not None else {})
    return _KERNELS.get(measure)
