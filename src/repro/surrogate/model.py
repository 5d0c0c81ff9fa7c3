"""Seeded ridge + gradient-boosted ensemble over numpy (no sklearn).

One :class:`SurrogateModel` predicts the three
:data:`~repro.surrogate.features.TARGET_NAMES` (per-group p99,
bandwidth, utilization) from one feature row. The estimator is:

* a closed-form **ridge** regression on standardized features (the
  global trend), fit on every training row;
* an **ensemble** of :data:`~SurrogateConfig.n_members`
  gradient-boosted shallow regression trees, each member fit on a
  seeded bootstrap of the ridge *residuals* -- the trees learn the
  non-linear structure (throttle cliffs, starvation regimes) ridge
  cannot express;
* **quantile-style uncertainty** from the ensemble spread: the
  member-prediction standard deviation, mapped back through the
  target transform so it is always non-negative and in target units.

Heavy-tailed targets (p99, bandwidth) are fit in ``log1p`` space and
inverted on prediction, so a starved group's 1e9-microsecond sentinel
cannot dominate the loss.

Everything is deterministic: fitting draws only from
``numpy.random.default_rng`` seeded by ``(seed, target, member)``,
trees pick splits by exact argmax with index tie-breaks, and
:meth:`SurrogateModel.to_json_dict` round-trips losslessly (Python's
``repr``-based float serialization), so identical corpora produce
bit-identical saved models -- property-pinned in
``tests/property/test_surrogate_properties.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from repro.surrogate.features import FEATURE_SCHEMA_VERSION, TARGET_NAMES

#: Schema version of the saved-model JSON document.
MODEL_SCHEMA_VERSION = 1

#: Per-target transform applied before fitting (inverted on predict).
TARGET_TRANSFORMS = {"p99_us": "log1p", "bandwidth_mib_s": "log1p", "util": "identity"}


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters of the ridge + boosted-ensemble estimator."""

    #: L2 penalty of the ridge stage (on standardized features).
    ridge_alpha: float = 1.0
    #: Bootstrap ensemble size (the uncertainty resolution; averaging
    #: more members also smooths spurious per-tree spread).
    n_members: int = 6
    #: Boosting rounds (trees) per member.
    n_rounds: int = 60
    #: Tree depth; 2 keeps members fast and hard to overfit.
    max_depth: int = 2
    #: Shrinkage applied to every tree's contribution. Deliberately
    #: conservative: cache corpora are small, and an under-regularized
    #: fit invents latency spread where the simulator measures none,
    #: scrambling the prefilter's ranking exactly where it matters.
    learning_rate: float = 0.1
    #: Minimum rows on each side of a split.
    min_samples_leaf: int = 8
    #: Max candidate thresholds evaluated per feature per split.
    max_thresholds: int = 16

    def __post_init__(self) -> None:
        if self.n_members < 1 or self.n_rounds < 1 or self.max_depth < 1:
            raise ValueError("n_members, n_rounds and max_depth must be >= 1")
        if not 0 < self.learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1 or self.max_thresholds < 1:
            raise ValueError("min_samples_leaf and max_thresholds must be >= 1")
        if not self.ridge_alpha >= 0:
            raise ValueError("ridge_alpha must be >= 0")


def _transform(name: str, values: np.ndarray) -> np.ndarray:
    """Apply one named target transform."""
    if name == "log1p":
        return np.log1p(np.maximum(0.0, values))
    return np.asarray(values, dtype=float)


def _inverse(name: str, values: np.ndarray) -> np.ndarray:
    """Invert one named target transform."""
    if name == "log1p":
        return np.expm1(np.minimum(values, 60.0))
    return values


@lru_cache(maxsize=None)
def _strided_keep(count: int, max_thresholds: int) -> np.ndarray:
    """Which of ``count`` valid boundaries the evenly strided subset keeps.

    Returns a read-only boolean mask over the boundaries' ranks. It
    depends only on the count, so every column and node with the same
    count shares one cached mask.
    """
    keep = np.zeros(count, dtype=bool)
    idx = np.linspace(0, count - 1, max_thresholds)
    keep[np.unique(idx.round().astype(int))] = True
    keep.flags.writeable = False
    return keep


def _best_split(
    X: np.ndarray, y: np.ndarray, config: SurrogateConfig
) -> tuple[int, float] | None:
    """Best ``(feature, threshold)`` of one node, all features at once.

    Each column is sorted and scored via prefix sums in one pass over
    the whole matrix. Row ``i - 1`` of the boundary arrays is the split
    left = ``[0, i)``, right = ``[i, n)`` of that column's sort order.
    When a column has more than ``max_thresholds`` distinct boundaries
    an evenly strided subset is kept (deterministic). Each column's
    totals come from its own sorted prefix sums, so every gain is
    bit-identical to scoring the column alone. Within a column the
    first maximum (lowest threshold) wins; across columns a gain must
    beat the best so far by more than 1e-12, so the lowest feature
    index wins ties. Returns None when no split satisfies
    ``min_samples_leaf`` with a positive gain.
    """
    n = y.size
    order = np.argsort(X, axis=0, kind="stable")
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    prefix = np.cumsum(ys, axis=0)
    prefix_sq = np.cumsum(ys * ys, axis=0)
    total, total_sq = prefix[-1], prefix_sq[-1]

    leaf = config.min_samples_leaf
    valid = xs[1:] > xs[:-1]
    valid[: leaf - 1] = False
    valid[n - leaf :] = False
    counts = valid.sum(axis=0)
    for count in set(counts[counts > config.max_thresholds].tolist()):
        columns = np.nonzero(counts == count)[0]
        ranks = np.cumsum(valid[:, columns], axis=0) - 1
        keep = _strided_keep(count, config.max_thresholds)
        valid[:, columns] &= keep[np.maximum(ranks, 0)]

    left_n = np.arange(1, n, dtype=float)[:, None]
    left_sum = prefix[:-1]
    left_sq = prefix_sq[:-1]
    sse = (
        left_sq
        - left_sum**2 / left_n
        + (total_sq - left_sq)
        - (total - left_sum) ** 2 / (n - left_n)
    )
    base_sse = total_sq - total**2 / n
    gains = base_sse - sse
    gains[~valid] = -np.inf
    picks = gains.argmax(axis=0)  # first max: lowest threshold wins ties
    best = None  # (gain, feature)
    for feature, gain in enumerate(gains[picks, np.arange(X.shape[1])].tolist()):
        if gain > 1e-12 and (best is None or gain > best[0] + 1e-12):
            best = (gain, feature)
    if best is None:
        return None
    feature = best[1]
    i = picks[feature]
    return feature, float((xs[i, feature] + xs[i + 1, feature]) / 2.0)


def _fit_node(
    X: np.ndarray, y: np.ndarray, depth: int, config: SurrogateConfig
) -> tuple[dict, np.ndarray]:
    """Greedy variance-reduction tree; exact argmax, index tie-breaks.

    Returns the node and every training row's fitted leaf value, so
    boosting never has to walk the new tree over its own rows.
    """
    node_value = float(y.mean()) if y.size else 0.0
    leaf = {"value": node_value}, np.full(y.size, node_value)
    if depth >= config.max_depth or y.size < 2 * config.min_samples_leaf:
        return leaf
    if float(((y - y.mean()) ** 2).sum()) <= 1e-12:
        return leaf
    split = _best_split(X, y, config)
    if split is None:
        return leaf
    feature, threshold = split
    mask = X[:, feature] <= threshold
    left, left_fitted = _fit_node(X[mask], y[mask], depth + 1, config)
    right, right_fitted = _fit_node(X[~mask], y[~mask], depth + 1, config)
    fitted = np.empty(y.size)
    fitted[mask] = left_fitted
    fitted[~mask] = right_fitted
    node = {"feature": feature, "threshold": threshold, "left": left, "right": right}
    return node, fitted


def _fit_boosted(
    X: np.ndarray, y: np.ndarray, config: SurrogateConfig
) -> dict:
    """One gradient-boosted member (squared loss -> residual fitting)."""
    base = float(y.mean()) if y.size else 0.0
    prediction = np.full(y.shape, base)
    trees: list[dict] = []
    for _ in range(config.n_rounds):
        residual = y - prediction
        tree, fitted = _fit_node(X, residual, 0, config)
        if "value" in tree and abs(tree["value"]) < 1e-12:
            break  # residuals exhausted; further rounds are no-ops
        trees.append(tree)
        prediction = prediction + config.learning_rate * fitted
    return {"base": base, "trees": trees}


@dataclass(frozen=True)
class _Forest:
    """Every tree of one target's members, compiled into flat arrays.

    Node ``k`` splits on ``feature[k] <= threshold[k]`` into ``left[k]``
    / ``right[k]``. A leaf holds ``value[k]``, has an infinite threshold
    and points at itself on both sides, so walking a fixed number of
    levels always ends on a leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    #: Root node of every tree, member by member, in tree order.
    roots: np.ndarray
    #: Per member: its base value and how many trees it has.
    bases: tuple[float, ...]
    tree_counts: tuple[int, ...]
    #: Levels from a root to the deepest leaf.
    depth: int

    @classmethod
    def compile(cls, members: list[dict]) -> "_Forest":
        """Flatten the boosted members of one target spec."""
        nodes: list[tuple] = []  # (feature, threshold, left, right, value)
        depth = 0

        def add(node: dict, level: int) -> int:
            """Append ``node`` and its subtree; return the node's index."""
            nonlocal depth
            k = len(nodes)
            nodes.append((0, math.inf, k, k, node.get("value", 0.0)))
            if "value" in node:
                depth = max(depth, level)
            else:
                left = add(node["left"], level + 1)
                right = add(node["right"], level + 1)
                nodes[k] = (node["feature"], node["threshold"], left, right, 0.0)
            return k

        roots = [add(tree, 0) for member in members for tree in member["trees"]]
        feature, threshold, left, right, value = (
            np.array(nodes, dtype=float).reshape(-1, 5).T
        )
        return cls(
            feature=feature.astype(np.intp),
            threshold=threshold,
            left=left.astype(np.intp),
            right=right.astype(np.intp),
            value=value,
            roots=np.array(roots, dtype=np.intp),
            bases=tuple(member["base"] for member in members),
            tree_counts=tuple(len(member["trees"]) for member in members),
            depth=depth,
        )

    def member_predictions(
        self, Z: np.ndarray, learning_rate: float
    ) -> list[np.ndarray]:
        """Each member's boosted prediction for every row of ``Z``.

        All rows walk all trees together, one level at a time. Each
        member then adds its trees' shrunken leaf values one tree at a
        time, in tree order, so every sum is rounded exactly as a
        tree-by-tree walk would round it.
        """
        rows = np.arange(Z.shape[0])
        node = np.repeat(self.roots[:, None], Z.shape[0], axis=1)
        for _ in range(self.depth):
            go_left = Z[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        contributions = learning_rate * self.value[node]
        predictions = []
        start = 0
        for base, count in zip(self.bases, self.tree_counts):
            out = np.full(Z.shape[0], base)
            for tree in contributions[start : start + count]:
                out = out + tree
            predictions.append(out)
            start += count
        return predictions


def _ridge_term(Z1: np.ndarray, weights, block_rows: int | None) -> np.ndarray:
    """Ridge predictions ``Z1 @ weights``, one matrix product per block.

    BLAS rounds a matrix-vector product differently depending on how
    many rows it gets, so the rows are split into equal blocks of
    ``block_rows`` (all rows when None). One stacked product over the
    blocks gives every block exactly the numbers a separate call on
    that block would give.
    """
    weights = np.asarray(weights)
    if block_rows is None:
        return Z1 @ weights
    if block_rows < 1 or Z1.shape[0] % block_rows:
        raise ValueError(
            f"block_rows={block_rows} does not divide {Z1.shape[0]} rows"
        )
    blocks = Z1.reshape(-1, block_rows, Z1.shape[1])
    return (blocks @ weights).reshape(-1)


@dataclass
class SurrogateModel:
    """A fitted per-group performance predictor with save/load."""

    #: Feature column names the model was fit on (alignment contract).
    feature_names: tuple[str, ...]
    #: Feature-encoding version the rows must match.
    feature_schema_version: int
    #: Target names, in prediction-column order.
    target_names: tuple[str, ...]
    #: The hyperparameters used to fit.
    config: SurrogateConfig
    #: Fit seed (bit-identity provenance).
    seed: int
    #: Number of training rows.
    n_rows: int
    #: Standardization: per-column means and (non-zero) stds.
    scaler_mean: list[float]
    scaler_std: list[float]
    #: Per-target estimator: transform name, ridge weights (+ intercept
    #: as the last element), and the boosted ensemble members.
    targets: list[dict]

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        """Apply the training-time feature standardization."""
        mean = np.asarray(self.scaler_mean)
        std = np.asarray(self.scaler_std)
        return (X - mean) / std

    @cached_property
    def _forests(self) -> list[_Forest]:
        """Per-target compiled ensembles (built on first predict).

        Not a dataclass field: it stays out of equality and of
        :meth:`to_json_dict`, and a loaded model rebuilds it.
        """
        return [_Forest.compile(spec["members"]) for spec in self.targets]

    def predict(
        self, X, block_rows: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict ``(means, stds)`` in raw target units, shape (n, 3).

        The mean is the ensemble average mapped through the inverse
        target transform; the std is the quantile-style upper spread
        ``inv(mu + sigma) - inv(mu)`` -- non-negative by monotonicity of
        the transforms.

        ``block_rows`` splits the rows into equal consecutive blocks
        (for example one block per scenario) and makes each block's
        numbers bit-identical to a separate ``predict`` call on that
        block alone. The default treats all rows as one block.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"feature width mismatch: rows have {X.shape[1]} columns, "
                f"model expects {len(self.feature_names)}"
            )
        Z = self._standardize(X)
        Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])
        means = np.empty((X.shape[0], len(self.targets)))
        stds = np.empty_like(means)
        for column, (spec, forest) in enumerate(zip(self.targets, self._forests)):
            ridge = _ridge_term(Z1, spec["ridge"], block_rows)
            member_preds = np.stack(
                [
                    ridge + boosted
                    for boosted in forest.member_predictions(
                        Z, self.config.learning_rate
                    )
                ]
            )
            mu = member_preds.mean(axis=0)
            sigma = member_preds.std(axis=0)
            raw_mu = _inverse(spec["transform"], mu)
            raw_hi = _inverse(spec["transform"], mu + sigma)
            means[:, column] = raw_mu
            stds[:, column] = np.maximum(0.0, raw_hi - raw_mu)
        return means, stds

    def predict_one(self, row) -> tuple[dict, dict]:
        """Predict one row; returns ``(mean_by_target, std_by_target)``."""
        means, stds = self.predict(np.asarray(row).reshape(1, -1))
        return (
            dict(zip(self.target_names, means[0].tolist())),
            dict(zip(self.target_names, stds[0].tolist())),
        )

    def to_json_dict(self) -> dict:
        """Lossless plain-dict form (floats round-trip via ``repr``)."""
        return {
            "model_schema_version": MODEL_SCHEMA_VERSION,
            "feature_schema_version": self.feature_schema_version,
            "feature_names": list(self.feature_names),
            "target_names": list(self.target_names),
            "config": asdict(self.config),
            "seed": self.seed,
            "n_rows": self.n_rows,
            "scaler_mean": self.scaler_mean,
            "scaler_std": self.scaler_std,
            "targets": self.targets,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SurrogateModel":
        """Rebuild from a :meth:`to_json_dict` document."""
        if doc.get("model_schema_version") != MODEL_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported model schema {doc.get('model_schema_version')!r} "
                f"(expected {MODEL_SCHEMA_VERSION})"
            )
        return cls(
            feature_names=tuple(doc["feature_names"]),
            feature_schema_version=doc["feature_schema_version"],
            target_names=tuple(doc["target_names"]),
            config=SurrogateConfig(**doc["config"]),
            seed=doc["seed"],
            n_rows=doc["n_rows"],
            scaler_mean=doc["scaler_mean"],
            scaler_std=doc["scaler_std"],
            targets=doc["targets"],
        )

    def save(self, path) -> None:
        """Write the model as sorted-key JSON (bit-stable on disk)."""
        Path(path).write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"
        )

    @classmethod
    def load(cls, path) -> "SurrogateModel":
        """Read a model written by :meth:`save`."""
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def fit_surrogate(
    X,
    y,
    feature_names: tuple[str, ...],
    seed: int = 42,
    config: SurrogateConfig | None = None,
) -> SurrogateModel:
    """Fit the ridge + boosted ensemble on an (X, y) training set.

    ``X`` is (rows, features), ``y`` is (rows, 3) in
    :data:`~repro.surrogate.features.TARGET_NAMES` order, both in raw
    units. Deterministic for fixed inputs and seed.
    """
    config = config or SurrogateConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 2 or y.shape[1] != len(TARGET_NAMES):
        raise ValueError("need X of shape (n, f) and y of shape (n, 3)")
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise ValueError("need matching X/y with at least 2 rows")
    if X.shape[1] != len(feature_names):
        raise ValueError("X width must match feature_names")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    Z = (X - mean) / std
    Z1 = np.hstack([Z, np.ones((Z.shape[0], 1))])

    targets: list[dict] = []
    for column, target in enumerate(TARGET_NAMES):
        transform = TARGET_TRANSFORMS[target]
        yt = _transform(transform, y[:, column])
        # Closed-form ridge on [Z | 1]; the intercept is unpenalized.
        penalty = config.ridge_alpha * np.eye(Z1.shape[1])
        penalty[-1, -1] = 0.0
        weights = np.linalg.solve(Z1.T @ Z1 + penalty, Z1.T @ yt)
        residual = yt - Z1 @ weights
        members = []
        for member in range(config.n_members):
            rng = np.random.default_rng([seed, column, member])
            idx = np.sort(rng.integers(0, Z.shape[0], Z.shape[0]))
            members.append(_fit_boosted(Z[idx], residual[idx], config))
        targets.append(
            {
                "target": target,
                "transform": transform,
                "ridge": weights.tolist(),
                "members": members,
            }
        )

    return SurrogateModel(
        feature_names=tuple(feature_names),
        feature_schema_version=FEATURE_SCHEMA_VERSION,
        target_names=TARGET_NAMES,
        config=config,
        seed=seed,
        n_rows=int(X.shape[0]),
        scaler_mean=mean.tolist(),
        scaler_std=std.tolist(),
        targets=targets,
    )


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (ties share the mean rank), deterministic."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size)
    sorted_values = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation; 0.0 when either side is constant."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size or a.size < 2:
        return 0.0
    ra, rb = _ranks(a), _ranks(b)
    sa, sb = ra.std(), rb.std()
    if sa < 1e-12 or sb < 1e-12:
        return 0.0
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


def mean_absolute_error(a, b) -> float:
    """Plain MAE between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - b).mean())


def evaluate_model(model: SurrogateModel, X, y) -> dict:
    """Per-target MAE + Spearman of the model on an (X, y) set."""
    means, _ = model.predict(X)
    y = np.asarray(y, dtype=float)
    report = {}
    for column, target in enumerate(model.target_names):
        report[target] = {
            "mae": mean_absolute_error(means[:, column], y[:, column]),
            "spearman": spearman(means[:, column], y[:, column]),
        }
    return report


def uncertainty_mean(model: SurrogateModel, X) -> dict:
    """Mean ensemble-spread uncertainty per target over a row set."""
    _, stds = model.predict(X)
    return {
        target: float(stds[:, column].mean())
        for column, target in enumerate(model.target_names)
    }


def _self_check() -> None:
    """Quick deterministic smoke used by ``python -m`` debugging."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(64, 4))
    y = np.stack(
        [
            np.abs(100 + 40 * X[:, 0] + 10 * X[:, 1] ** 2),
            np.abs(50 + 5 * X[:, 2]),
            np.abs(0.5 + 0.1 * X[:, 3]),
        ],
        axis=1,
    )
    model = fit_surrogate(X, y, ("a", "b", "c", "d"), seed=1)
    print(json.dumps(evaluate_model(model, X, y), indent=2))


if __name__ == "__main__":  # pragma: no cover
    _self_check()
