"""The surrogate prefilter: score thousands, simulate only the top-k.

:class:`SurrogatePrefilter` sits between a search strategy and the real
:class:`~repro.tune.evaluator.TuneEvaluator`: the strategy hands it a
wide candidate pool, the prefilter renders each candidate's scenario,
featurizes every cgroup, predicts per-group p99 / bandwidth / util with
the :class:`~repro.surrogate.model.SurrogateModel`, scores the
*predicted* delivery against the SLO with the exact
:func:`~repro.tune.slo.score_cgroup_stats` formulas, and returns the
candidates ranked by predicted violation. Only the top-k ever reach the
``SweepExecutor``-backed evaluator.

Trust is measured, not assumed: every candidate the simulator verifies
is logged as a ``(predicted, measured)`` pair, and the filter reports
``scored= verified= mae_p99= spearman=`` in tune stats lines and the
decision-trace JSONL (:meth:`SurrogatePrefilter.stats_line` /
:meth:`~SurrogatePrefilter.to_json_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ssd.model import SsdModel
from repro.surrogate.features import (
    TARGET_P99_CAP_US,
    featurize,
    scenario_cgroups,
)
from repro.surrogate.model import SurrogateModel, mean_absolute_error, spearman
from repro.tune.evaluator import Evaluation
from repro.tune.slo import SloSpec, score_cgroup_stats

#: Default width multiplier: candidates scored per simulator run the
#: verification budget buys (the "search 100x wider" dial).
DEFAULT_POOL_FACTOR = 64


class _PredictedLatency:
    """Duck-typed ``LatencySummary`` carrying only the p99."""

    def __init__(self, p99_us: float):
        self.p99_us = p99_us


class _PredictedStats:
    """Duck-typed ``AppWindowStats`` built from surrogate predictions."""

    def __init__(self, p99_us: float, bandwidth_mib_s: float):
        self.latency = (
            _PredictedLatency(p99_us) if p99_us < TARGET_P99_CAP_US else None
        )
        self.bandwidth_mib_s = max(0.0, bandwidth_mib_s)


@dataclass(frozen=True)
class RankedCandidate:
    """One pool candidate with its predicted SLO delivery."""

    #: Normalized assignment (the evaluator's input).
    values: dict
    #: The space's deterministic label for the assignment.
    label: str
    #: Predicted SLO-violation total (the ranking key).
    predicted_total: float
    #: Predicted p99 of the SLO's primary latency group, full-speed us.
    predicted_p99_us: float
    #: Ensemble-spread uncertainty on that p99, full-speed us.
    uncertainty_p99_us: float


@dataclass(frozen=True)
class VerifiedRecord:
    """One surrogate-vs-simulator comparison on a verified candidate."""

    label: str
    predicted_total: float
    measured_total: float
    predicted_p99_us: float
    measured_p99_us: float

    def to_json_dict(self) -> dict:
        """Plain-dict form for traces and reports."""
        return {
            "label": self.label,
            "predicted_total": self.predicted_total,
            "measured_total": self.measured_total,
            "predicted_p99_us": self.predicted_p99_us,
            "measured_p99_us": self.measured_p99_us,
        }


@dataclass
class SurrogatePrefilter:
    """Scores candidate pools with a surrogate; logs verification error."""

    #: The fitted per-group performance model.
    model: SurrogateModel
    #: The SLO predicted deliveries are scored against.
    slo: SloSpec
    #: The unscaled device model (utilization reference derivation).
    ssd: SsdModel
    #: Candidates scored per simulator run the budget buys.
    pool_factor: int = DEFAULT_POOL_FACTOR
    #: Candidates the pool ranks ever scored (across rank calls).
    scored: int = 0
    #: Verified ``(predicted, measured)`` pairs, in verification order.
    verified: list[VerifiedRecord] = field(default_factory=list)

    def _primary_p99_group(self) -> str:
        """The cgroup whose p99 the error metrics track."""
        for group in self.slo.groups:
            if group.p99_latency_us is not None:
                return group.cgroup
        return self.slo.groups[0].cgroup

    def predict_scenario(self, scenario) -> tuple[float, dict]:
        """Predicted SLO total + per-cgroup means for one scenario.

        Returns ``(predicted_total, predictions)`` where predictions
        maps each cgroup to its ``{p99_us, bandwidth_mib_s, util}``
        means plus ``p99_std_us`` spread.
        """
        cgroups = scenario_cgroups(scenario)
        means, stds = self.model.predict(
            np.asarray([featurize(scenario, cgroup) for cgroup in cgroups])
        )
        return self._score(cgroups, means, stds)

    def _score(self, cgroups: list[str], means, stds) -> tuple[float, dict]:
        """Score one scenario's per-cgroup prediction rows against the SLO."""
        predictions: dict[str, dict] = {}
        shims: dict[str, _PredictedStats] = {}
        aggregate = 0.0
        for i, cgroup in enumerate(cgroups):
            by_target = dict(zip(self.model.target_names, means[i].tolist()))
            by_target["p99_std_us"] = float(stds[i][0])
            predictions[cgroup] = by_target
            p99 = min(TARGET_P99_CAP_US, max(0.0, by_target["p99_us"]))
            bandwidth = max(0.0, by_target["bandwidth_mib_s"])
            shims[cgroup] = _PredictedStats(p99, bandwidth)
            aggregate += bandwidth
        score = score_cgroup_stats(
            self.slo,
            shims,
            device_scale=1.0,
            aggregate_bandwidth_mib_s=aggregate,
            ssd=self.ssd,
        )
        return score.total, predictions

    def rank(self, evaluator, candidates: list[dict]) -> list[RankedCandidate]:
        """Rank a candidate pool by predicted SLO violation, best first.

        ``evaluator`` renders each assignment into the exact scenario
        the simulator would run (same workload, seed, fidelity), so the
        surrogate scores precisely what verification would measure.
        The whole pool is featurized first and predicted in one call per
        cgroup count (one call when, as usual, every candidate has the
        same cgroups), with one prediction block per scenario, so every
        score equals :meth:`predict_scenario`'s. Deterministic: ties
        break on the assignment label.
        """
        primary = self._primary_p99_group()
        by_width: dict[int, list[tuple]] = {}
        for values in candidates:
            normalized = evaluator.space.normalize(values)
            label = evaluator.space.label(normalized)
            scenario = evaluator.scenario_for(normalized, label)
            cgroups = scenario_cgroups(scenario)
            rows = [featurize(scenario, cgroup) for cgroup in cgroups]
            by_width.setdefault(len(cgroups), []).append(
                (normalized, label, cgroups, rows)
            )
        ranked: list[RankedCandidate] = []
        for width, pool in by_width.items():
            means, stds = self.model.predict(
                np.asarray([row for *_, rows in pool for row in rows]),
                block_rows=width,
            )
            for k, (normalized, label, cgroups, _) in enumerate(pool):
                block = slice(k * width, (k + 1) * width)
                total, predictions = self._score(cgroups, means[block], stds[block])
                primary_prediction = predictions.get(
                    primary, {"p99_us": TARGET_P99_CAP_US, "p99_std_us": 0.0}
                )
                ranked.append(
                    RankedCandidate(
                        values=normalized,
                        label=label,
                        predicted_total=total,
                        predicted_p99_us=primary_prediction["p99_us"],
                        uncertainty_p99_us=primary_prediction["p99_std_us"],
                    )
                )
        self.scored += len(ranked)
        return sorted(ranked, key=lambda c: (c.predicted_total, c.label))

    def observe(self, candidate: RankedCandidate, evaluation: Evaluation) -> None:
        """Log one verified candidate's surrogate-vs-simulator error."""
        measured_p99 = TARGET_P99_CAP_US
        primary = self._primary_p99_group()
        for term in evaluation.score.terms:
            if term.kind == "p99" and term.cgroup == primary:
                measured_p99 = min(TARGET_P99_CAP_US, term.measured)
                break
        self.verified.append(
            VerifiedRecord(
                label=candidate.label,
                predicted_total=candidate.predicted_total,
                measured_total=evaluation.score.total,
                predicted_p99_us=candidate.predicted_p99_us,
                measured_p99_us=measured_p99,
            )
        )

    # -- error reporting -----------------------------------------------
    def mae_p99_us(self) -> float:
        """MAE between predicted and measured p99 on the verified set."""
        return mean_absolute_error(
            [record.predicted_p99_us for record in self.verified],
            [record.measured_p99_us for record in self.verified],
        )

    def spearman_p99(self) -> float:
        """Rank correlation of predicted vs measured p99 (verified set)."""
        return spearman(
            [record.predicted_p99_us for record in self.verified],
            [record.measured_p99_us for record in self.verified],
        )

    def stats_line(self) -> str:
        """The one-line trust report for tune progress/stats output."""
        return (
            f"surrogate: scored={self.scored} verified={len(self.verified)} "
            f"mae_p99={self.mae_p99_us():.1f}us spearman={self.spearman_p99():.2f}"
        )

    def to_json_dict(self) -> dict:
        """Machine-readable trust report (decision-trace payload)."""
        return {
            "scored": self.scored,
            "verified": len(self.verified),
            "mae_p99_us": self.mae_p99_us(),
            "spearman_p99": self.spearman_p99(),
            "model_rows": self.model.n_rows,
            "records": [record.to_json_dict() for record in self.verified],
        }


def fit_from_corpus(corpus, seed: int = 42, config=None) -> SurrogateModel:
    """Fit a :class:`SurrogateModel` from a corpus (thin convenience)."""
    from repro.surrogate.model import fit_surrogate

    X, y = corpus.matrices()
    return fit_surrogate(X, y, corpus.feature_names, seed=seed, config=config)
