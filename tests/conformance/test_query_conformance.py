"""Every standing-query answer must satisfy its own reported bound.

The front-end's contract is per-answer: ``Answer.error_bound`` is the
eps grade of the physical sketch that served the query — possibly
*finer* than the spec requested, when sharing rewrote the plan onto a
tighter sketch.  This harness registers a mixed battery over every
adversarial workload, ingests once through the shared fan-out, and
checks each answer against the offline oracle using *the bound the
answer itself claims*, not the one the spec asked for.  If sharing ever
loosened a bound, or the eps/2 + eps/2 merge accounting regressed,
these assertions are where it surfaces.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.estimators import default_kind_for, estimator_capabilities
from repro.query import QueryFrontEnd, QuerySpec
from repro.query.planner import METRIC_BOUND_TYPES

from ..conftest import rank_error
from .conftest import exact_counts, make_workload, quantize

N = 4_096
CHUNK = 512
PHI_GRID = tuple(np.linspace(0.0, 1.0, 11))
SUPPORT = 0.2


def battery(workload_name: str) -> list[QuerySpec]:
    """The standing queries each workload is watched with.

    The raw stream feeds the quantile sketch; the quantized alphabet
    (the frequency oracle's domain) feeds frequency and distinct.  The
    eps spread forces sharing: the 0.05-grade quantile specs must ride
    the 0.02 sketch, so their answers are checked at the tighter bound.
    """
    specs = [QuerySpec("quantile", key="raw", eps=0.02, phi=float(phi))
             for phi in PHI_GRID]
    specs += [QuerySpec("quantile", key="raw", eps=0.05, phi=0.5),
              QuerySpec("heavy_hitters", key="quant", eps=0.05,
                        support=SUPPORT),
              QuerySpec("estimate", key="quant", eps=0.02, value=0.0),
              QuerySpec("distinct", key="quant", eps=0.02)]
    if workload_name == "zipf":
        # Only zipf's top items are well separated enough for an exact
        # top-k ordering check; elsewhere ties make the oracle fuzzy.
        specs.append(QuerySpec("top_k", key="quant", eps=0.1, k=3))
    return specs


def evaluate(workload_name: str):
    raw = make_workload(workload_name, N).astype(np.float32)
    quant = quantize(raw)
    specs = battery(workload_name)

    async def run():
        async with QueryFrontEnd(num_shards=2) as frontend:
            ids = [await frontend.register(spec) for spec in specs]
            for lo in range(0, N, CHUNK):
                await frontend.ingest(raw[lo:lo + CHUNK], "raw")
                await frontend.ingest(quant[lo:lo + CHUNK], "quant")
            answers = await frontend.answer_all(fresh=True)
            return [(frontend.get(query_id).spec, answers[query_id])
                    for query_id in ids]

    return raw, quant, asyncio.run(run())


class TestAnswersWithinReportedBound:
    @pytest.fixture(scope="class", params=("sorted", "reversed",
                                           "duplicate_heavy", "zipf",
                                           "sawtooth"))
    def evaluated(self, request):
        return request.param, *evaluate(request.param)

    def test_quantiles(self, evaluated):
        _, raw, _, results = evaluated
        reference = np.sort(raw)
        checked = 0
        for spec, answer in results:
            if spec.metric != "quantile":
                continue
            target = max(1, int(np.ceil(spec.phi * N)))
            err = rank_error(reference, answer.value, target)
            assert err <= max(1, answer.error_bound * N), \
                f"phi={spec.phi}: rank error {err} over bound"
            checked += 1
        assert checked == len(PHI_GRID) + 1

    def test_shared_coarse_query_honors_tighter_bound(self, evaluated):
        _, _, _, results = evaluated
        coarse = [a for spec, a in results
                  if spec.metric == "quantile" and spec.eps == 0.05]
        assert len(coarse) == 1
        # Rode the 0.02-grade sketch: shared, and the reported bound is
        # the sketch's, not the looser one the spec asked for.
        assert coarse[0].shared
        assert coarse[0].error_bound <= 0.02

    def test_heavy_hitters(self, evaluated):
        _, _, quant, results = evaluated
        truth = exact_counts(quant)
        for spec, answer in results:
            if spec.metric != "heavy_hitters":
                continue
            bound = answer.error_bound
            reported = dict(answer.value)
            for value, count in truth.items():
                if count >= SUPPORT * N:   # no false negatives
                    assert value in reported, \
                        f"missed heavy hitter {value} ({count})"
            for value, estimate in reported.items():
                true = truth.get(value, 0)
                # Threshold guarantee: nothing below (support - eps) N.
                assert true >= (SUPPORT - bound) * N - 1
                # Lossy counting never overcounts, undercounts <= eps N.
                assert estimate <= true
                assert true - estimate <= bound * N

    def test_estimate(self, evaluated):
        _, _, quant, results = evaluated
        truth = exact_counts(quant)
        for spec, answer in results:
            if spec.metric != "estimate":
                continue
            true = truth.get(spec.value, 0)
            assert answer.value <= true
            assert true - answer.value <= answer.error_bound * N

    def test_distinct(self, evaluated):
        _, _, quant, results = evaluated
        true = len(exact_counts(quant))
        for spec, answer in results:
            if spec.metric != "distinct":
                continue
            assert answer.randomized
            # KMV's bound is a 2-sigma relative error; allow 3 sigma
            # plus one count of slack before calling it broken.
            tolerance = 3.0 * answer.error_bound * true + 1
            assert abs(answer.value - true) <= tolerance, \
                f"distinct {answer.value} vs true {true}"

    def test_top_k_ordering(self, evaluated):
        workload, _, quant, results = evaluated
        top_k = [(spec, a) for spec, a in results
                 if spec.metric == "top_k"]
        if workload != "zipf":
            assert not top_k
            return
        (spec, answer), = top_k
        truth = exact_counts(quant)
        expected = [value for value, _ in
                    sorted(truth.items(), key=lambda kv: -kv[1])[:spec.k]]
        assert [value for value, _ in answer.value] == expected


class TestAnswerNamesItsEstimator:
    """An answer's ``kind`` is the estimator that served it, and that
    kind's bound is in the currency the spec's eps is measured in."""

    def test_kind_and_bound_type_match_the_serving_estimator(self):
        raw = make_workload("zipf", N).astype(np.float32)
        quant = quantize(raw)
        specs = battery("zipf") + [
            QuerySpec("quantile", key="raw", eps=0.05, phi=0.5,
                      window=1_024),
            QuerySpec("heavy_hitters", key="quant", eps=0.05,
                      support=SUPPORT, window=1_024)]

        async def run():
            async with QueryFrontEnd(num_shards=2) as frontend:
                ids = [await frontend.register(spec) for spec in specs]
                for lo in range(0, N, CHUNK):
                    await frontend.ingest(raw[lo:lo + CHUNK], "raw")
                    await frontend.ingest(quant[lo:lo + CHUNK], "quant")
                answers = await frontend.answer_all(fresh=True)
                return [(frontend.get(query_id), answers[query_id])
                        for query_id in ids]

        for query, answer in asyncio.run(run()):
            miner = query.handle.service.miner
            served = miner.kind or default_kind_for(miner.statistic)
            assert answer.kind == served, query.spec
            assert estimator_capabilities(served).bound_type in \
                METRIC_BOUND_TYPES[query.spec.metric], query.spec
            if query.spec.window is None:   # a sharded history pool
                for shard in miner._shards():
                    assert shard.estimator.to_state()["kind"] == served
