"""GK04 window summaries: sample / merge / prune error arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuantileSummary
from repro.core.quantiles import SensorNode, aggregate
from repro.errors import QueryError, SummaryError

from ..conftest import rank_error


def worst_error(summary, reference):
    n = reference.size
    worst = 0
    for phi in np.linspace(0, 1, 41):
        target = max(1, int(np.ceil(phi * n)))
        est = summary.query_rank(target)
        worst = max(worst, rank_error(reference, est, target))
    return worst


class TestFromSorted:
    def test_exact_ranks(self, rng):
        data = np.sort(rng.random(100))
        s = QuantileSummary.from_sorted(data, 0.1)
        assert np.array_equal(s.rmins, s.rmaxs)
        assert np.array_equal(data[s.rmins - 1], s.values)

    def test_includes_extremes(self, rng):
        data = np.sort(rng.random(1000))
        s = QuantileSummary.from_sorted(data, 0.05)
        assert s.values[0] == data[0]
        assert s.values[-1] == data[-1]

    def test_error_guarantee(self, rng):
        data = np.sort(rng.random(2000))
        for error in (0.1, 0.02):
            s = QuantileSummary.from_sorted(data, error)
            assert worst_error(s, data) <= error * 2000

    def test_size_scales_inverse_error(self, rng):
        data = np.sort(rng.random(10000))
        assert len(QuantileSummary.from_sorted(data, 0.01)) > \
            len(QuantileSummary.from_sorted(data, 0.1))

    def test_zero_error_keeps_everything(self, rng):
        data = np.sort(rng.random(50))
        s = QuantileSummary.from_sorted(data, 0.0)
        assert len(s) == 50

    def test_rejects_unsorted(self):
        with pytest.raises(SummaryError):
            QuantileSummary.from_sorted(np.array([2.0, 1.0]), 0.1)

    def test_empty(self):
        s = QuantileSummary.from_sorted(np.empty(0), 0.1)
        assert s.count == 0
        with pytest.raises(QueryError):
            s.quantile(0.5)


class TestMerge:
    def test_counts_add(self, rng):
        a = QuantileSummary.from_sorted(np.sort(rng.random(100)), 0.1)
        b = QuantileSummary.from_sorted(np.sort(rng.random(200)), 0.1)
        assert a.merge(b).count == 300

    def test_error_is_max(self, rng):
        a = QuantileSummary.from_sorted(np.sort(rng.random(100)), 0.1)
        b = QuantileSummary.from_sorted(np.sort(rng.random(100)), 0.02)
        assert a.merge(b).error == 0.1

    def test_merge_with_empty(self, rng):
        a = QuantileSummary.from_sorted(np.sort(rng.random(100)), 0.1)
        assert a.merge(QuantileSummary.empty()) is a
        assert QuantileSummary.empty().merge(a) is a

    def test_merged_accuracy(self, rng):
        parts = [np.sort(rng.random(500)) for _ in range(4)]
        merged = QuantileSummary.empty()
        for part in parts:
            merged = merged.merge(QuantileSummary.from_sorted(part, 0.02))
        reference = np.sort(np.concatenate(parts))
        assert worst_error(merged, reference) <= 0.02 * reference.size
        merged.check_invariant()

    def test_merge_disjoint_ranges(self, rng):
        low = np.sort(rng.random(300))
        high = np.sort(rng.random(300) + 10.0)
        merged = QuantileSummary.from_sorted(low, 0.05).merge(
            QuantileSummary.from_sorted(high, 0.05))
        reference = np.concatenate([low, high])
        assert worst_error(merged, reference) <= 0.05 * 600

    def test_merge_identical_values(self):
        a = QuantileSummary.from_sorted(np.full(100, 5.0), 0.1)
        b = QuantileSummary.from_sorted(np.full(100, 5.0), 0.1)
        merged = a.merge(b)
        assert merged.quantile(0.5) == 5.0


class TestPrune:
    def test_size_capped(self, rng):
        s = QuantileSummary.from_sorted(np.sort(rng.random(5000)), 0.001)
        pruned = s.prune(20)
        assert len(pruned) <= 21

    def test_error_grows_by_half_inverse_budget(self, rng):
        s = QuantileSummary.from_sorted(np.sort(rng.random(1000)), 0.01)
        pruned = s.prune(25)
        assert pruned.error == pytest.approx(0.01 + 1.0 / 50)

    def test_pruned_accuracy(self, rng):
        data = np.sort(rng.random(4000))
        s = QuantileSummary.from_sorted(data, 0.005)
        pruned = s.prune(50)
        assert worst_error(pruned, data) <= pruned.error * 4000

    def test_invalid_budget(self, rng):
        s = QuantileSummary.from_sorted(np.sort(rng.random(10)), 0.1)
        with pytest.raises(SummaryError):
            s.prune(0)

    def test_small_summary_unchanged(self, rng):
        s = QuantileSummary.from_sorted(np.sort(rng.random(10)), 0.0)
        pruned = s.prune(50)
        assert len(pruned) == len(s)


class TestRankedValue:
    def test_invalid_bounds(self):
        with pytest.raises(SummaryError):
            QuantileSummary([1.0], [5], [3], 5, 0.0)
        with pytest.raises(SummaryError):
            QuantileSummary([1.0], [0], [3], 5, 0.0)


def _state(rmins, rmaxs):
    return {"version": 1, "kind": "quantile-summary", "count": 9,
            "error": 0.0, "values": [1.0, 2.0, 3.0][:len(rmins)],
            "rmins": rmins, "rmaxs": rmaxs}


class TestArrayValidation:
    @pytest.mark.parametrize("rmins,rmaxs", [
        ([1, 0], [2, 3]),         # rmin < 1
        ([1, 4], [2, 3]),         # rmin > rmax
        ([1, 3, 2], [3, 4, 5]),   # rmins decrease
        ([1, 2, 3], [4, 3, 5]),   # rmaxs decrease
    ])
    def test_constructor_and_from_state_reject(self, rmins, rmaxs):
        values = [1.0, 2.0, 3.0][:len(rmins)]
        with pytest.raises(SummaryError):
            QuantileSummary(values, rmins, rmaxs, 9, 0.0)
        with pytest.raises(SummaryError):
            QuantileSummary.from_state(_state(rmins, rmaxs))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(SummaryError):
            QuantileSummary([1.0, 2.0], [1], [1], 2, 0.0)

    def test_arrays_are_read_only(self, rng):
        s = QuantileSummary.from_sorted(np.sort(rng.random(50)), 0.1)
        for array in (s.values, s.rmins, s.rmaxs):
            with pytest.raises(ValueError):
                array[0] = 0


def argmin_lookup(summary, rank):
    """Reference: the first entry minimising max(rank - rmin, rmax - rank)."""
    scores = np.maximum(rank - summary.rmins, summary.rmaxs - rank)
    return int(np.argmin(scores))


def reference_prune(summary, budget):
    kept = []
    for i in range(budget + 1):
        rank = max(1, min(summary.count,
                          math.ceil(i * summary.count / budget)))
        index = argmin_lookup(summary, rank)
        if not kept or index != kept[-1]:
            kept.append(index)
    return kept


@st.composite
def monotone_summaries(draw):
    """Arbitrary nondecreasing rank bounds, tie-heavy by construction."""
    size = draw(st.integers(1, 40))
    steps = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    widths = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    rmins = 1 + np.cumsum(steps) - steps[0]
    rmaxs = np.maximum.accumulate(rmins + np.array(widths))
    count = int(rmaxs[-1]) + draw(st.integers(0, 3))
    return QuantileSummary(np.arange(size, dtype=np.float64), rmins, rmaxs,
                           count, 0.0)


@st.composite
def merged_summaries(draw):
    """Real merges of duplicate-heavy windows."""
    parts = draw(st.lists(st.lists(st.integers(0, 6), min_size=1,
                                   max_size=60), min_size=2, max_size=4))
    error = draw(st.sampled_from([0.0, 0.05, 0.2]))
    return QuantileSummary.merge_all([
        QuantileSummary.from_sorted(np.sort(np.array(p, dtype=np.float64)),
                                    error) for p in parts])


class TestLookupMatchesArgmin:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(monotone_summaries(), merged_summaries()),
           st.integers(1, 50))
    def test_prune_and_query_rank(self, summary, budget):
        for rank in range(1, summary.count + 1):
            assert summary.query_rank(rank) == \
                summary.values[argmin_lookup(summary, rank)]
        kept = reference_prune(summary, budget)
        pruned = summary.prune(budget)
        if len(summary) > budget + 1:
            assert np.array_equal(pruned.values, summary.values[kept])
            assert np.array_equal(pruned.rmins, summary.rmins[kept])
            assert np.array_equal(pruned.rmaxs, summary.rmaxs[kept])
        else:
            assert np.array_equal(pruned.rmins, summary.rmins)

    def test_prune_guards_inexact_target_ranks(self):
        s = QuantileSummary([1.0, 2.0, 3.0], [1, 2, 2 ** 53],
                            [1, 2, 2 ** 53], 2 ** 53, 0.0)
        with pytest.raises(SummaryError):
            s.prune(1)


def lexsort_merge(a, b):
    """Reference merge: concatenate both inputs' entries with their
    merged bounds, then ``lexsort`` by (value, rmin)."""
    pieces = []
    for source, against, side in ((a, b, "left"), (b, a, "right")):
        idx = np.searchsorted(against.values, source.values, side=side)
        pred_rmin = np.concatenate(([0], against.rmins))
        succ_rmax = np.append(against.rmaxs - 1, against.rmaxs[-1])
        rmin = source.rmins + pred_rmin[idx]
        rmax = source.rmaxs + succ_rmax[idx]
        pieces.append((source.values, rmin, np.maximum(rmin, rmax)))
    values, rmins, rmaxs = (np.concatenate(p) for p in zip(*pieces))
    order = np.lexsort((rmins, values))
    return values[order], rmins[order], rmaxs[order]


@st.composite
def merge_operands(draw):
    """Sampled, merged or pruned summaries of duplicate-heavy windows."""
    values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=60))
    error = draw(st.sampled_from([0.0, 0.05, 0.2]))
    sampled = QuantileSummary.from_sorted(
        np.sort(np.array(values, dtype=np.float64)), error)
    summary = draw(st.sampled_from([sampled]) | merged_summaries())
    if draw(st.booleans()):
        summary = summary.prune(draw(st.integers(1, 20)))
    return summary


class TestMergeMatchesLexsort:
    @settings(max_examples=300, deadline=None)
    @given(merge_operands(), merge_operands())
    def test_placed_entries_equal_the_sorted_concatenation(self, a, b):
        merged = a.merge(b)
        values, rmins, rmaxs = lexsort_merge(a, b)
        assert np.array_equal(merged.values, values)
        assert np.array_equal(merged.rmins, rmins)
        assert np.array_equal(merged.rmaxs, rmaxs)
        assert merged.count == a.count + b.count
        assert merged.error == max(a.error, b.error)


class TestSensorTree:
    def test_flat_tree(self, rng):
        leaves = [SensorNode(rng.random(200)) for _ in range(5)]
        root = SensorNode([], leaves)
        summary = aggregate(root, eps=0.1)
        assert summary.count == 1000
        assert summary.error <= 0.1

    def test_deep_tree_error_budget(self, rng):
        node = SensorNode(rng.random(100))
        for _ in range(4):
            node = SensorNode(rng.random(100), [node])
        summary = aggregate(node, eps=0.05)
        assert summary.error <= 0.05 + 1e-9
        assert summary.count == 500

    def test_accuracy_against_pooled_data(self, rng):
        observations = [rng.random(300) for _ in range(4)]
        leaves = [SensorNode(obs) for obs in observations]
        root = SensorNode([], [SensorNode([], leaves[:2]),
                               SensorNode([], leaves[2:])])
        summary = aggregate(root, eps=0.1)
        reference = np.sort(np.concatenate(observations))
        assert worst_error(summary, reference) <= 0.1 * reference.size

    def test_height_and_totals(self, rng):
        leaf = SensorNode(rng.random(10))
        mid = SensorNode(rng.random(5), [leaf])
        root = SensorNode([], [mid])
        assert root.height == 2
        assert root.total_observations == 15

    def test_invalid_eps(self):
        with pytest.raises(SummaryError):
            aggregate(SensorNode([1.0]), eps=0.0)
