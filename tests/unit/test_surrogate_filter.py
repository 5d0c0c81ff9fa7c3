"""Unit tests for the surrogate prefilter and the surrogate strategy.

Driven by a fake evaluator (a pure objective over ``bps_fraction``-style
dimensions) and a real model fitted on a tiny synthetic corpus built
from the space's own rendered scenarios, so ranking, verification
accounting, and the trust-report format are all exercised without long
simulator runs.
"""

import dataclasses

import pytest

from repro.core.d6_autotune import default_slo, mini_settings
from repro.core.scenarios import BE_GROUP, PRIORITY_GROUP, robustness_specs
from repro.exec.summary import run_scenario_summary
from repro.ssd.presets import samsung_980pro_like
from repro.surrogate.corpus import corpus_from_pairs
from repro.surrogate.filter import SurrogatePrefilter, fit_from_corpus
from repro.surrogate.model import SurrogateConfig
from repro.tune.evaluator import TuneEvaluator
from repro.tune.search import search, surrogate_pool, surrogate_search
from repro.tune.space import build_space

FAST = SurrogateConfig(n_members=2, n_rounds=8)


@pytest.fixture(scope="module")
def setup():
    """A real io.max evaluator + a model fitted on its own grid."""
    ssd = samsung_980pro_like()
    space = build_space(
        "io.max",
        ssd,
        device_scale=16.0,
        priority_group=PRIORITY_GROUP,
        be_group=BE_GROUP,
    )
    evaluator = TuneEvaluator(
        space=space,
        slo=default_slo(),
        apps=robustness_specs(be_queue_depth=16, n_be_apps=1),
        ssd=ssd,
        device_scale=16.0,
        duration_s=0.05,
        warmup_s=0.01,
    )
    values = surrogate_pool(space, 12, seed=1)
    pairs = []
    for assignment in values:
        scenario = evaluator.scenario_for(assignment)
        pairs.append((scenario, run_scenario_summary(scenario)))
    corpus = corpus_from_pairs(pairs)
    model = fit_from_corpus(corpus, config=FAST)
    return space, evaluator, model


def make_prefilter(setup, pool_factor=8):
    space, evaluator, model = setup
    return SurrogatePrefilter(
        model=model,
        slo=default_slo(),
        ssd=samsung_980pro_like(),
        pool_factor=pool_factor,
    )


class TestPool:
    def test_pool_is_wide_deduped_and_deterministic(self, setup):
        space, _, _ = setup
        pool = surrogate_pool(space, 64, seed=42)
        labels = [space.label(v) for v in pool]
        assert len(labels) == len(set(labels))
        assert len(pool) == 64
        assert pool == surrogate_pool(space, 64, seed=42)
        # The default anchor is always in the pool, first.
        assert pool[0] == space.normalize(space.default_values())

    def test_small_discrete_space_exhausts_early(self):
        space = build_space(
            "mq-deadline",
            samsung_980pro_like(),
            device_scale=16.0,
            priority_group=PRIORITY_GROUP,
            be_group=BE_GROUP,
        )
        pool = surrogate_pool(space, 1000, seed=42)
        assert len(pool) < 1000  # 3x3 priority classes minus overlaps

    def test_pool_size_validation(self, setup):
        space, _, _ = setup
        with pytest.raises(ValueError):
            surrogate_pool(space, 0)


class _MixedWidthEvaluator:
    """Renders every third candidate with its priority group only."""

    def __init__(self, evaluator):
        self.space = evaluator.space
        self._evaluator = evaluator
        self._count = 0

    def scenario_for(self, values, label=None):
        scenario = self._evaluator.scenario_for(values, label)
        self._count += 1
        if self._count % 3:
            return scenario
        apps = [app for app in scenario.apps if app.cgroup_path == PRIORITY_GROUP]
        return dataclasses.replace(scenario, apps=apps)


class TestRank:
    def _expected(self, prefilter, evaluator, pool):
        """Per-candidate ``predict_scenario`` totals and primary p99s."""
        expected = {}
        for values in pool:
            normalized = evaluator.space.normalize(values)
            label = evaluator.space.label(normalized)
            total, predictions = prefilter.predict_scenario(
                evaluator.scenario_for(normalized, label)
            )
            expected[label] = (total, predictions[PRIORITY_GROUP]["p99_us"])
        return expected

    def test_one_predict_call_matches_per_scenario_scores(self, setup, monkeypatch):
        space, evaluator, model = setup
        prefilter = make_prefilter(setup)
        pool = surrogate_pool(space, 24, seed=5)
        expected = self._expected(prefilter, evaluator, pool)
        calls = []
        predict = model.predict
        monkeypatch.setattr(
            model, "predict", lambda X, **kw: calls.append(len(X)) or predict(X, **kw)
        )
        ranked = prefilter.rank(evaluator, pool)
        assert calls == [2 * len(pool)]
        scores = {c.label: (c.predicted_total, c.predicted_p99_us) for c in ranked}
        assert scores == expected
        assert [c.predicted_total for c in ranked] == sorted(
            c.predicted_total for c in ranked
        )

    def test_mixed_cgroup_counts(self, setup, monkeypatch):
        space, evaluator, model = setup
        prefilter = make_prefilter(setup)
        pool = surrogate_pool(space, 12, seed=6)
        expected = self._expected(prefilter, _MixedWidthEvaluator(evaluator), pool)
        calls = []
        predict = model.predict
        monkeypatch.setattr(
            model,
            "predict",
            lambda X, **kw: calls.append(kw["block_rows"]) or predict(X, **kw),
        )
        ranked = prefilter.rank(_MixedWidthEvaluator(evaluator), pool)
        assert sorted(calls) == [1, 2]
        scores = {c.label: (c.predicted_total, c.predicted_p99_us) for c in ranked}
        assert scores == expected


class TestSurrogateSearch:
    def test_spends_the_exact_verification_budget(self, setup):
        space, evaluator, _ = setup
        prefilter = make_prefilter(setup)
        outcome = surrogate_search(space, evaluator, 5, prefilter, seed=42)
        assert len(outcome.evaluations) == 5
        assert len(prefilter.verified) == 5
        assert prefilter.scored >= 5 * prefilter.pool_factor
        labels = [e.label for e in outcome.evaluations]
        assert len(labels) == len(set(labels))

    def test_deterministic(self, setup):
        space, evaluator, _ = setup
        first = surrogate_search(space, evaluator, 4, make_prefilter(setup), seed=42)
        second = surrogate_search(space, evaluator, 4, make_prefilter(setup), seed=42)
        assert [e.label for e in first.evaluations] == [
            e.label for e in second.evaluations
        ]
        assert first.best.label == second.best.label

    def test_anchor_default_is_always_verified(self, setup):
        space, evaluator, _ = setup
        outcome = surrogate_search(space, evaluator, 4, make_prefilter(setup), seed=42)
        anchor = space.label(space.normalize(space.default_values()))
        assert anchor in [e.label for e in outcome.evaluations]

    def test_search_entry_point_layering(self, setup):
        space, evaluator, _ = setup
        prefilter = make_prefilter(setup)
        outcome = search(
            space, evaluator, 4, strategy="auto", seed=42, prefilter=prefilter
        )
        assert outcome.strategy == "surrogate"
        with pytest.raises(ValueError):
            search(space, evaluator, 4, strategy="surrogate", seed=42)


class TestTrustReport:
    def test_stats_line_format(self, setup):
        space, evaluator, _ = setup
        prefilter = make_prefilter(setup)
        surrogate_search(space, evaluator, 4, prefilter, seed=42)
        line = prefilter.stats_line()
        assert line.startswith("surrogate: scored=")
        assert " verified=4 " in line
        assert "mae_p99=" in line and "us spearman=" in line

    def test_json_payload(self, setup):
        space, evaluator, _ = setup
        prefilter = make_prefilter(setup)
        surrogate_search(space, evaluator, 3, prefilter, seed=42)
        doc = prefilter.to_json_dict()
        assert doc["verified"] == 3
        assert doc["scored"] == prefilter.scored
        assert doc["model_rows"] > 0
        assert len(doc["records"]) == 3
        for record in doc["records"]:
            assert set(record) == {
                "label",
                "predicted_total",
                "measured_total",
                "predicted_p99_us",
                "measured_p99_us",
            }
