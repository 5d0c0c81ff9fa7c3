"""Surrogate differential suite: whole-array fit/predict vs the oracle.

``repro.surrogate.model`` searches every feature of a tree node in one
numpy pass and predicts from trees compiled into flat arrays. The
reference in :mod:`tests.differential.surrogate_oracle` scores one
feature and walks one tree at a time. Both must agree **bit for bit**:
the same saved-model JSON text for the same inputs, and the same
prediction floats for the same rows.

Run just this suite with::

    PYTHONPATH=src python -m pytest tests/differential -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.d9_surrogate import mini_settings
from repro.surrogate.model import (
    SurrogateConfig,
    SurrogateModel,
    _fit_boosted,
    fit_surrogate,
)

from tests.differential import surrogate_oracle as oracle

#: The library default and the lighter fit D9 uses per knob.
CONFIGS = {
    "default": SurrogateConfig(),
    "d9": mini_settings().model_config,
}


def _json(model: SurrogateModel) -> str:
    """The saved-model text (what ``SurrogateModel.save`` writes)."""
    return json.dumps(model.to_json_dict(), sort_keys=True, indent=1)


def _training_set(seed: int, rows: int, width: int, levels: int, constant: int):
    """Random (X, y) with tied values, constant columns and heavy tails.

    ``levels`` > 0 rounds the features onto that many distinct values
    (ties); 0 keeps them continuous, so every column has more distinct
    boundaries than ``max_thresholds``. The first ``constant`` columns
    hold one value.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, width))
    if levels:
        X = np.round(X * levels / 4.0)
    X[:, :constant] = 3.0
    p99 = np.exp(rng.normal(4.0, 1.5, size=rows)) + 40.0 * np.abs(X[:, -1])
    bandwidth = np.abs(rng.normal(200.0, 80.0, size=rows))
    util = rng.uniform(0.0, 1.0, size=rows)
    return X, np.stack([p99, bandwidth, util], axis=1)


def _assert_same_predictions(first, second) -> None:
    """Both ``(means, stds)`` pairs are equal to the last bit."""
    np.testing.assert_array_equal(first[0], second[0])
    np.testing.assert_array_equal(first[1], second[1])


class TestFit:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(2, 48),
        width=st.integers(1, 6),
        levels=st.sampled_from([0, 2, 5]),
        constant=st.integers(0, 2),
    )
    @settings(max_examples=8, deadline=None)
    def test_model_json_matches_oracle(self, name, seed, rows, width, levels, constant):
        config = CONFIGS[name]
        X, y = _training_set(seed, rows, width, levels, min(constant, width))
        names = tuple(f"f{i}" for i in range(width))
        fast = fit_surrogate(X, y, names, seed=seed, config=config)
        slow = oracle.fit_surrogate(X, y, names, seed=seed, config=config)
        assert _json(fast) == _json(slow)

    @given(
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 80),
        width=st.integers(1, 8),
        levels=st.sampled_from([0, 1, 3, 8]),
        constant=st.integers(0, 3),
        leaf=st.integers(1, 12),
        max_thresholds=st.integers(1, 20),
        depth=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_boosted_member_matches_oracle(
        self, seed, rows, width, levels, constant, leaf, max_thresholds, depth
    ):
        config = SurrogateConfig(
            n_rounds=6,
            max_depth=depth,
            min_samples_leaf=leaf,
            max_thresholds=max_thresholds,
        )
        X, y = _training_set(seed, rows, width, levels, min(constant, width))
        residual = np.log1p(y[:, 0]) - np.log1p(y[:, 0]).mean()
        assert _fit_boosted(X, residual, config) == oracle.fit_boosted(
            X, residual, config
        )

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize(
        "case",
        [
            # n exactly 2 * min_samples_leaf, and one row short of it.
            {"rows": 16, "width": 4, "levels": 0, "constant": 0},
            {"rows": 15, "width": 4, "levels": 0, "constant": 0},
            {"rows": 6, "width": 3, "levels": 0, "constant": 0},
            {"rows": 7, "width": 3, "levels": 2, "constant": 1},
            # Every column constant: no split anywhere.
            {"rows": 30, "width": 3, "levels": 0, "constant": 3},
            # Heavy ties: two distinct values per column.
            {"rows": 64, "width": 6, "levels": 1, "constant": 0},
            # Continuous columns with far more than max_thresholds boundaries.
            {"rows": 96, "width": 5, "levels": 0, "constant": 1},
        ],
    )
    def test_fixed_shapes(self, name, case):
        config = CONFIGS[name]
        X, y = _training_set(11, **case)
        names = tuple(f"f{i}" for i in range(case["width"]))
        fast = fit_surrogate(X, y, names, seed=3, config=config)
        slow = oracle.fit_surrogate(X, y, names, seed=3, config=config)
        assert _json(fast) == _json(slow)

    def test_identical_columns_tie_to_the_lowest_feature(self):
        X, y = _training_set(5, rows=40, width=3, levels=0, constant=0)
        X[:, 2] = X[:, 1]
        X[:, 0] = X[:, 1]
        config = SurrogateConfig(n_rounds=4)
        member = _fit_boosted(X, np.log1p(y[:, 0]), config)
        assert member == oracle.fit_boosted(X, np.log1p(y[:, 0]), config)
        assert member["trees"][0]["feature"] == 0


@pytest.fixture(scope="module")
def model():
    """A D9-config model on a wide, tied training set."""
    X, y = _training_set(21, rows=64, width=7, levels=3, constant=1)
    names = tuple(f"f{i}" for i in range(7))
    return fit_surrogate(X, y, names, seed=9, config=CONFIGS["d9"])


def _rows(seed: int, count: int) -> np.ndarray:
    """Query rows around the training distribution, with exact ties."""
    X, _ = _training_set(seed, rows=count, width=7, levels=3, constant=1)
    return X + np.random.default_rng(seed).choice([0.0, 0.25], size=X.shape)


class TestPredict:
    @given(seed=st.integers(0, 2**16), count=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_single_block_matches_oracle(self, model, seed, count):
        X = _rows(seed, count)
        _assert_same_predictions(model.predict(X), oracle.predict(model, X))

    @given(
        seed=st.integers(0, 2**16),
        blocks=st.integers(1, 40),
        block_rows=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_blocks_match_separate_calls(self, model, seed, blocks, block_rows):
        X = _rows(seed, blocks * block_rows)
        means, stds = model.predict(X, block_rows=block_rows)
        for k in range(blocks):
            block = slice(k * block_rows, (k + 1) * block_rows)
            _assert_same_predictions(
                (means[block], stds[block]), model.predict(X[block])
            )
            _assert_same_predictions(
                (means[block], stds[block]), oracle.predict(model, X[block])
            )

    def test_block_rows_must_divide_the_rows(self, model):
        X = _rows(1, 6)
        with pytest.raises(ValueError):
            model.predict(X, block_rows=4)
        with pytest.raises(ValueError):
            model.predict(X, block_rows=0)

    def test_reloaded_model_rebuilds_the_compiled_trees(self, model):
        X = _rows(2, 30)
        expected = model.predict(X)
        assert "_forests" in vars(model)
        doc = json.loads(_json(model))
        assert "_forests" not in json.dumps(doc)
        loaded = SurrogateModel.from_json_dict(doc)
        assert "_forests" not in vars(loaded)
        assert loaded == model
        _assert_same_predictions(loaded.predict(X), expected)
        _assert_same_predictions(
            loaded.predict(X, block_rows=2), model.predict(X, block_rows=2)
        )

    def test_members_without_trees(self):
        X = np.tile(np.arange(12.0)[:, None], (1, 2))
        y = np.ones((12, 3))
        flat = fit_surrogate(X, y, ("a", "b"), config=CONFIGS["d9"])
        assert all(
            not member["trees"]
            for spec in flat.targets
            for member in spec["members"]
        )
        _assert_same_predictions(flat.predict(X), oracle.predict(flat, X))
