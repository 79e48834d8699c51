"""The CART decision tree: learning, prediction, NaN routing, paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ForestConfig
from repro.exceptions import DataError
from repro.forest import forest as forest_module
from repro.forest.forest import train_forest
from repro.forest.tree import (
    DecisionTree,
    condition_satisfied,
    TreeCondition,
)

from .oracle import ScalarSplitTree


def fit_tree(x, y, rng=None, **kwargs) -> DecisionTree:
    tree = DecisionTree(**kwargs)
    tree.fit(np.asarray(x, dtype=float), np.asarray(y, dtype=bool),
             rng=rng or np.random.default_rng(0))
    return tree


class TestFitting:
    def test_perfectly_separable(self):
        x = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([False, False, True, True])
        tree = fit_tree(x, y)
        np.testing.assert_array_equal(tree.predict(x), y)
        assert tree.n_leaves == 2

    def test_pure_node_stays_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([True, True, True])
        tree = fit_tree(x, y)
        assert tree.n_leaves == 1
        assert tree.predict(np.array([[5.0]]))[0]

    def test_max_depth_respected(self):
        rng = np.random.default_rng(1)
        x = rng.random((200, 4))
        y = rng.random(200) > 0.5
        tree = fit_tree(x, y, max_depth=3)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(1)
        x = rng.random((60, 3))
        y = x[:, 0] > 0.5
        tree = fit_tree(x, y, min_samples_leaf=10)
        for node in tree.nodes:
            if node.is_leaf:
                assert node.n_total >= 10 or tree.n_leaves == 1

    def test_constant_feature_unsplittable(self):
        x = np.ones((10, 1))
        y = np.array([True] * 5 + [False] * 5)
        tree = fit_tree(x, y)
        assert tree.n_leaves == 1

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.empty((0, 2)), np.empty(0, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.zeros((3, 2)), np.zeros(4, dtype=bool))

    def test_one_dim_x_rejected(self):
        with pytest.raises(DataError):
            fit_tree(np.zeros(3), np.zeros(3, dtype=bool))


class TestPrediction:
    def test_predict_before_fit_raises(self):
        with pytest.raises(DataError):
            DecisionTree().predict(np.zeros((1, 1)))

    def test_wrong_width_raises(self):
        tree = fit_tree(np.array([[0.0], [1.0]]), [False, True])
        with pytest.raises(DataError):
            tree.predict(np.zeros((1, 2)))

    def test_nan_routing_consistent(self):
        # NaNs must go to one fixed side of every split.
        rng = np.random.default_rng(3)
        x = rng.random((100, 2))
        y = x[:, 0] > 0.5
        tree = fit_tree(x, y)
        probe = np.array([[np.nan, 0.3]])
        first = tree.predict(probe)[0]
        for _ in range(5):
            assert tree.predict(probe)[0] == first

    def test_training_with_nans(self):
        x = np.array([[0.1], [0.2], [np.nan], [0.8], [0.9], [np.nan]])
        y = np.array([False, False, False, True, True, True])
        tree = fit_tree(x, y)
        # Non-NaN extremes must still classify correctly.
        assert not tree.predict(np.array([[0.0]]))[0]
        assert tree.predict(np.array([[1.0]]))[0]


class TestPaths:
    def test_paths_partition_prediction(self):
        """Every example satisfies exactly one root-to-leaf path, and that
        path's label equals the tree's prediction."""
        rng = np.random.default_rng(5)
        x = rng.random((150, 3))
        x[::11, 1] = np.nan
        y = (np.nan_to_num(x[:, 0]) + np.nan_to_num(x[:, 1])) > 1.0
        tree = fit_tree(x, y)
        paths = list(tree.paths())
        assert len(paths) == tree.n_leaves

        predictions = tree.predict(x)
        hits = np.zeros(len(x), dtype=int)
        for path in paths:
            mask = np.ones(len(x), dtype=bool)
            for condition in path.conditions:
                mask &= condition_satisfied(condition, x[:, condition.feature])
            hits += mask
            assert np.all(predictions[mask] == path.label)
        assert np.all(hits == 1)

    def test_single_leaf_tree_has_empty_path(self):
        tree = fit_tree(np.ones((5, 1)), [True] * 5)
        paths = list(tree.paths())
        assert len(paths) == 1
        assert paths[0].conditions == ()
        assert paths[0].label is True

    def test_path_counts_match_training(self):
        x = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([False, False, True, True])
        tree = fit_tree(x, y)
        total = sum(path.n_total for path in tree.paths())
        assert total == 4


class TestConditionSatisfied:
    def test_le_and_gt(self):
        values = np.array([0.2, 0.8, np.nan])
        le = TreeCondition(0, 0.5, le=True, nan_satisfies=False)
        gt = TreeCondition(0, 0.5, le=False, nan_satisfies=True)
        np.testing.assert_array_equal(
            condition_satisfied(le, values), [True, False, False]
        )
        np.testing.assert_array_equal(
            condition_satisfied(gt, values), [False, True, True]
        )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_fit_predict_reaches_reasonable_accuracy(seed):
    """Trees should learn an axis-aligned concept on random data."""
    rng = np.random.default_rng(seed)
    x = rng.random((120, 3))
    y = x[:, 1] > 0.6
    tree = fit_tree(x, y, rng=rng)
    assert (tree.predict(x) == y).mean() >= 0.95


# ----------------------------------------------------------------------
# Parity with the per-feature scalar split search (tests/oracle.py)
# ----------------------------------------------------------------------

TIED = [0.0, 0.25, 0.5, 0.5, 1.0, -3.0, 1e9, np.nan]
"""A small pool: draws from it repeat values and mix in NaNs."""


def node_tuples(tree):
    return [(n.feature, n.threshold, n.left, n.right, n.nan_left, n.label,
             n.n_total, n.n_positive) for n in tree.nodes]


@st.composite
def training_sets(draw, min_rows=2, max_rows=40):
    """Matrices with tied, free, constant, all-NaN and mostly-NaN
    columns, plus labels."""
    n_rows = draw(st.integers(min_rows, max_rows))

    def column_of(elements):
        return draw(st.lists(elements, min_size=n_rows, max_size=n_rows))

    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(
            ["tied", "free", "constant", "nan", "mostly_nan"]))
        if kind == "tied":
            column = column_of(st.sampled_from(TIED))
        elif kind == "free":
            column = column_of(st.floats(-1e6, 1e6) | st.just(np.nan))
        elif kind == "constant":
            column = [draw(st.sampled_from(TIED))] * n_rows
        else:
            column = [np.nan] * n_rows
            if kind == "mostly_nan":
                for index in draw(st.lists(st.integers(0, n_rows - 1),
                                           min_size=1, max_size=2)):
                    column[index] = draw(st.sampled_from(TIED[:-1]))
        columns.append(column)
    x = np.array(columns, dtype=np.float64).T
    return x, np.array(column_of(st.booleans()))


tree_params = st.fixed_dictionaries({
    "max_features": st.sampled_from([None, 1, 2, 3]),
    "min_samples_leaf": st.sampled_from([1, 2]),
    "max_depth": st.sampled_from([1, 2, 3, 32]),
})


def assert_same_tree(x, y, params, seed):
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast = DecisionTree(**params).fit(x, y, rng=fast_rng)
    slow = ScalarSplitTree(**params).fit(x, y, rng=slow_rng)
    assert node_tuples(fast) == node_tuples(slow)
    # Later trees of a forest draw from the same stream.
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class TestScalarOracleParity:
    @settings(max_examples=200, deadline=None)
    @given(training_sets(), tree_params, st.integers(0, 2**32 - 1))
    def test_matches_scalar_split_search(self, data, params, seed):
        x, y = data
        assert_same_tree(x, y, params, seed)

    @settings(max_examples=60, deadline=None)
    @given(training_sets(min_rows=2, max_rows=3), tree_params,
           st.integers(0, 2**32 - 1))
    def test_matches_on_two_and_three_rows(self, data, params, seed):
        x, y = data
        assert_same_tree(x, y, params, seed)

    def test_fitted_tree_keeps_no_scratch(self):
        x = np.array([[0.1, 1.0], [0.2, np.nan], [0.8, 0.0], [0.9, 1.0]])
        tree = fit_tree(x, [False, False, True, True])
        assert set(vars(tree)) == {
            "max_depth", "min_samples_split", "min_samples_leaf",
            "max_features", "nodes", "n_features_",
        }

    def test_forest_at_products_shape(self, monkeypatch):
        """400 x 21 with a NaN-bearing column, m = 5 features per split."""
        rng = np.random.default_rng(17)
        x = np.round(rng.random((400, 21)), 2)
        x[rng.random(400) < 0.3, 4] = np.nan
        y = (x[:, 0] + x[:, 7] > 1.1) ^ (rng.random(400) < 0.1)
        config = ForestConfig(min_samples_leaf=2)
        assert config.features_per_split(21) == 5
        fast_rng = np.random.default_rng(5)
        fast = train_forest(x, y, config, fast_rng)
        monkeypatch.setattr(forest_module, "DecisionTree", ScalarSplitTree)
        slow_rng = np.random.default_rng(5)
        slow = train_forest(x, y, config, slow_rng)
        assert [node_tuples(t) for t in fast.trees] == [
            node_tuples(t) for t in slow.trees]
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
