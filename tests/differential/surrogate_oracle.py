"""Reference surrogate fit and predict: one feature and one tree at a time.

The test-only oracle for ``repro.surrogate.model``. It keeps the
straightforward forms the library replaced with whole-array numpy:

* the split search scores one feature column per call, and a node
  loops over the columns in feature order;
* boosting re-walks each new tree over the training rows;
* prediction recurses through each tree and computes the ridge term
  with one matrix product over all rows.

The library must match it bit for bit: identical saved-model JSON for
identical inputs, identical predictions for identical rows.
"""

from __future__ import annotations

import numpy as np

from repro.surrogate import model as surrogate_model
from repro.surrogate.model import SurrogateConfig, SurrogateModel


def best_split_for_feature(
    column: np.ndarray, y: np.ndarray, config: SurrogateConfig
) -> tuple[float, float] | None:
    """Best (gain, threshold) of one feature via sorted prefix sums."""
    n = y.size
    order = np.argsort(column, kind="stable")
    xs, ys = column[order], y[order]
    # Candidate positions i split into left = [0, i), right = [i, n).
    boundaries = np.nonzero(xs[1:] > xs[:-1])[0] + 1
    leaf = config.min_samples_leaf
    boundaries = boundaries[(boundaries >= leaf) & (boundaries <= n - leaf)]
    if boundaries.size == 0:
        return None
    if boundaries.size > config.max_thresholds:
        idx = np.linspace(0, boundaries.size - 1, config.max_thresholds)
        boundaries = boundaries[np.unique(idx.round().astype(int))]
    prefix = np.concatenate([[0.0], np.cumsum(ys)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(ys * ys)])
    total, total_sq = prefix[-1], prefix_sq[-1]
    left_n = boundaries.astype(float)
    left_sum = prefix[boundaries]
    left_sq = prefix_sq[boundaries]
    sse = (
        left_sq
        - left_sum**2 / left_n
        + (total_sq - left_sq)
        - (total - left_sum) ** 2 / (n - left_n)
    )
    base_sse = total_sq - total**2 / n
    gains = base_sse - sse
    pick = int(np.argmax(gains))  # first max: lowest threshold wins ties
    if gains[pick] <= 1e-12:
        return None
    i = boundaries[pick]
    return float(gains[pick]), float((xs[i - 1] + xs[i]) / 2.0)


def fit_node(X: np.ndarray, y: np.ndarray, depth: int, config: SurrogateConfig) -> dict:
    """Greedy variance-reduction split, one feature column at a time."""
    node_value = float(y.mean()) if y.size else 0.0
    if depth >= config.max_depth or y.size < 2 * config.min_samples_leaf:
        return {"value": node_value}
    if float(((y - y.mean()) ** 2).sum()) <= 1e-12:
        return {"value": node_value}

    best = None  # (gain, feature, threshold)
    for feature in range(X.shape[1]):
        found = best_split_for_feature(X[:, feature], y, config)
        # Strictly-greater keeps the lowest feature index on gain ties.
        if found is not None and (best is None or found[0] > best[0] + 1e-12):
            best = (found[0], feature, found[1])

    if best is None:
        return {"value": node_value}
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    return {
        "feature": feature,
        "threshold": threshold,
        "left": fit_node(X[mask], y[mask], depth + 1, config),
        "right": fit_node(X[~mask], y[~mask], depth + 1, config),
    }


def predict_node(node: dict, X: np.ndarray) -> np.ndarray:
    """Recursive prediction for one tree."""
    if "value" in node:
        return np.full(X.shape[0], node["value"])
    out = np.empty(X.shape[0])
    mask = X[:, node["feature"]] <= node["threshold"]
    out[mask] = predict_node(node["left"], X[mask])
    out[~mask] = predict_node(node["right"], X[~mask])
    return out


def fit_boosted(X: np.ndarray, y: np.ndarray, config: SurrogateConfig) -> dict:
    """One gradient-boosted member; re-walks each tree over its rows."""
    base = float(y.mean()) if y.size else 0.0
    prediction = np.full(y.shape, base)
    trees: list[dict] = []
    for _ in range(config.n_rounds):
        residual = y - prediction
        tree = fit_node(X, residual, 0, config)
        if "value" in tree and abs(tree["value"]) < 1e-12:
            break
        trees.append(tree)
        prediction = prediction + config.learning_rate * predict_node(tree, X)
    return {"base": base, "trees": trees}


def predict_boosted(member: dict, X: np.ndarray, learning_rate: float) -> np.ndarray:
    """Prediction for one boosted member, tree by tree."""
    out = np.full(X.shape[0], member["base"])
    for tree in member["trees"]:
        out = out + learning_rate * predict_node(tree, X)
    return out


def fit_surrogate(X, y, feature_names, seed=42, config=None) -> SurrogateModel:
    """``repro.surrogate.model.fit_surrogate`` with the oracle's boosting.

    The ridge stage, bootstraps and model assembly are the library's
    own; only the per-member tree fit is swapped for :func:`fit_boosted`.
    """
    library_fit_boosted = surrogate_model._fit_boosted
    surrogate_model._fit_boosted = fit_boosted
    try:
        return surrogate_model.fit_surrogate(
            X, y, feature_names, seed=seed, config=config
        )
    finally:
        surrogate_model._fit_boosted = library_fit_boosted


def predict(model: SurrogateModel, X) -> tuple[np.ndarray, np.ndarray]:
    """``SurrogateModel.predict`` by recursion over every tree."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    Z = (X - np.asarray(model.scaler_mean)) / np.asarray(model.scaler_std)
    Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])
    means = np.empty((X.shape[0], len(model.targets)))
    stds = np.empty_like(means)
    for column, spec in enumerate(model.targets):
        ridge = Z1 @ np.asarray(spec["ridge"])
        member_preds = np.stack(
            [
                ridge + predict_boosted(member, Z, model.config.learning_rate)
                for member in spec["members"]
            ]
        )
        mu = member_preds.mean(axis=0)
        sigma = member_preds.std(axis=0)
        raw_mu = surrogate_model._inverse(spec["transform"], mu)
        raw_hi = surrogate_model._inverse(spec["transform"], mu + sigma)
        means[:, column] = raw_mu
        stds[:, column] = np.maximum(0.0, raw_hi - raw_mu)
    return means, stds
