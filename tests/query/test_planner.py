"""Planner behaviour and the capability-registry coverage guard."""

from __future__ import annotations

import pytest

from repro.core.estimators import (QUERY_METRICS, default_kind_for,
                                   estimator_capabilities,
                                   registered_estimator_kinds)
from repro.errors import QueryError
from repro.query import Planner, QuerySpec, canonical_key, eps_class
from repro.query.planner import METRIC_BOUND_TYPES


class TestRegistryCoverage:
    """Every registered estimator kind must declare capabilities.

    The planner can only consider kinds the registry describes; a kind
    registered without a capability record is invisible to the query
    layer, which is a silent coverage hole.  This guard turns it into a
    loud test failure the moment someone registers a new estimator.
    """

    def test_every_kind_declares_capabilities(self):
        kinds = registered_estimator_kinds()
        assert kinds, "estimator registry is empty"
        for kind in kinds:
            caps = estimator_capabilities(kind)   # raises if undeclared
            assert caps.statistic

    def test_declared_metrics_are_known_query_metrics(self):
        for kind in registered_estimator_kinds():
            caps = estimator_capabilities(kind)
            assert set(caps.metrics) <= set(QUERY_METRICS), kind

    def test_every_query_metric_has_a_driver(self):
        served = set()
        for kind in registered_estimator_kinds():
            caps = estimator_capabilities(kind)
            if caps.driver is not None:
                served |= set(caps.metrics)
        assert served == set(QUERY_METRICS)


class TestPlanKinds:
    @pytest.fixture(scope="class")
    def planner(self):
        return Planner("cpu")

    @pytest.mark.parametrize("spec,kind", [
        (QuerySpec("quantile", phi=0.5, eps=0.01), "streaming-quantiles"),
        (QuerySpec("heavy_hitters", support=0.1, eps=0.05),
         "lossy-counting"),
        (QuerySpec("top_k", k=10, eps=0.05), "lossy-counting"),
        (QuerySpec("estimate", value=7.0, eps=0.05), "lossy-counting"),
        (QuerySpec("distinct", eps=0.02), "kmv"),
    ])
    def test_expected_driver_kind(self, planner, spec, kind):
        assert planner.plan(spec).kind == kind

    def test_building_blocks_never_candidates(self, planner):
        # gk-summary drives quantiles internally but registers with
        # driver=None; it must never be picked for a standing query.
        for metric, kwargs in [("quantile", {"phi": 0.5}),
                               ("distinct", {}),
                               ("top_k", {"k": 3})]:
            spec = QuerySpec(metric, eps=0.05, **kwargs)
            assert "gk-summary" not in planner.candidates(spec)

    def test_candidates_state_the_metric_bound_currency(self, planner):
        # DDSketch's bound is a relative *value* error: it cannot honour
        # a rank-eps quantile spec, however cheap it models.
        for metric, kwargs in [("quantile", {"phi": 0.5}),
                               ("heavy_hitters", {"support": 0.1}),
                               ("top_k", {"k": 3}),
                               ("estimate", {"value": 1.0}),
                               ("distinct", {})]:
            spec = QuerySpec(metric, eps=0.05, **kwargs)
            kinds = planner.candidates(spec)
            assert kinds
            for kind in kinds:
                assert estimator_capabilities(kind).bound_type in \
                    METRIC_BOUND_TYPES[metric], (metric, kind)
        assert "ddsketch" not in planner.candidates(
            QuerySpec("quantile", phi=0.5, eps=0.05))

    @pytest.mark.parametrize("spec", [
        QuerySpec("quantile", phi=0.5, eps=0.01, window=1_000),
        QuerySpec("heavy_hitters", support=0.1, eps=0.05, window=1_000),
        QuerySpec("estimate", value=1.0, eps=0.05, window=1_000),
    ])
    def test_windowed_specs_plan_the_default_kind(self, planner, spec):
        # The sliding builder constructs the default family only.
        assert planner.candidates(spec) == [default_kind_for(spec.statistic)]

    def test_plan_eps_is_class_of_required_eps(self, planner):
        spec = QuerySpec("top_k", k=50, eps=0.1)   # required 1/(2k)=0.01
        plan = planner.plan(spec)
        assert plan.eps == eps_class(spec.required_eps)
        assert plan.eps <= spec.eps
        assert plan.sketch_key == canonical_key(spec)
        assert not plan.shared

    def test_cost_positive_and_cached(self, planner):
        spec = QuerySpec("quantile", phi=0.9, eps=0.02)
        plan = planner.plan(spec)
        assert plan.cost_per_element > 0
        cache_key = (plan.kind, plan.eps)
        assert planner._cost_cache[cache_key] == plan.cost_per_element
        # Second plan at the same class hits the cache object.
        assert planner.plan(spec).cost_per_element == plan.cost_per_element

    def test_rewritten_plan_is_shared_and_tighter(self, planner):
        coarse = planner.plan(QuerySpec("distinct", eps=0.05))
        fine_key = canonical_key(QuerySpec("distinct", eps=0.01))
        rewritten = coarse.rewritten(fine_key)
        assert rewritten.shared
        assert rewritten.sketch_key == fine_key
        assert rewritten.eps == fine_key.eps_class <= coarse.eps

    def test_unanswerable_spec_raises(self, planner, monkeypatch):
        # With the registry hidden, no kind qualifies and planning must
        # fail loudly instead of silently defaulting to something.
        import repro.query.planner as planner_mod
        monkeypatch.setattr(planner_mod, "registered_capabilities",
                            lambda: {})
        with pytest.raises(QueryError):
            Planner("cpu").plan(QuerySpec("quantile", phi=0.5, eps=0.01))
