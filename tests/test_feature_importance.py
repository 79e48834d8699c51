"""Gini feature importances on the random forest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ForestConfig
from repro.forest.forest import RandomForest, train_forest
from repro.forest.tree import DecisionTree


class TestFeatureImportances:
    def test_identifies_the_signal_feature(self, rng):
        x = rng.random((400, 5))
        y = x[:, 2] > 0.5
        forest = train_forest(x, y, ForestConfig(), rng)
        importances = forest.feature_importances()
        assert importances.argmax() == 2
        assert importances[2] > 0.7

    def test_normalized(self, rng):
        x = rng.random((300, 4))
        y = (x[:, 0] + x[:, 1]) > 1.0
        forest = train_forest(x, y, ForestConfig(), rng)
        assert forest.feature_importances().sum() == pytest.approx(1.0)
        assert (forest.feature_importances() >= 0).all()

    def test_split_between_two_signals(self, rng):
        x = rng.random((500, 4))
        y = (x[:, 0] > 0.5) & (x[:, 3] > 0.5)
        forest = train_forest(x, y, ForestConfig(), rng)
        importances = forest.feature_importances()
        assert importances[0] + importances[3] > 0.8

    def test_unsplit_forest_all_zero(self, rng):
        x = rng.random((30, 3))
        forest = train_forest(x, np.ones(30, dtype=bool),
                              ForestConfig(n_trees=3), rng)
        np.testing.assert_array_equal(
            forest.feature_importances(), np.zeros(3)
        )

    def test_noise_features_near_zero(self, rng):
        x = rng.random((600, 6))
        y = x[:, 1] > 0.5
        forest = train_forest(x, y, ForestConfig(), rng)
        importances = forest.feature_importances()
        noise = np.delete(importances, 1)
        assert noise.max() < 0.15

    def test_pinned_values(self):
        """Exact importances of one seeded forest (a NaN-bearing column
        included), as recorded before the split search was vectorized."""
        rng = np.random.default_rng(2024)
        x = rng.random((300, 6))
        x[::7, 4] = np.nan
        y = (x[:, 0] + np.nan_to_num(x[:, 4])) > 0.9
        forest = train_forest(x, y, ForestConfig(), rng)
        np.testing.assert_array_equal(forest.feature_importances(), [
            0.42392964588272614, 0.04931587465670807, 0.03159619172164374,
            0.03483643138834188, 0.43412146001044505, 0.026200396340135147,
        ])
