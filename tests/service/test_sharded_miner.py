"""ShardedMiner: merge-on-query correctness and error accounting."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import QueryError, ServiceError
from repro.obs import collecting
from repro.service import ShardedMiner
from repro.streams import uniform_stream, zipf_stream

from ..conftest import worst_quantile_error


class TestConstruction:
    def test_rejects_bad_config(self):
        with pytest.raises(ServiceError):
            ShardedMiner("quantile", num_shards=0)
        with pytest.raises(ServiceError):
            ShardedMiner("sliding-something")
        with pytest.raises(ServiceError):
            ShardedMiner("quantile", eps=0.0)

    def test_wrong_statistic_queries_rejected(self):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                             window_size=256)
        with pytest.raises(QueryError):
            miner.frequent_items(0.1)
        with pytest.raises(QueryError):
            miner.distinct()

    def test_empty_query_rejected(self):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                             window_size=256)
        with pytest.raises(QueryError):
            miner.quantile(0.5)


class TestQuantiles:
    @pytest.fixture(scope="class")
    def drained(self):
        miner = ShardedMiner("quantile", eps=0.02, num_shards=4,
                             backend="cpu", window_size=1024,
                             stream_length_hint=80_000)
        data = uniform_stream(80_000, seed=11)
        for start in range(0, data.size, 3000):
            miner.ingest(data[start:start + 3000])
        miner.drain()
        return miner, data

    def test_quantiles_within_eps_of_full_stream(self, drained):
        miner, data = drained
        reference = np.sort(data)
        worst = worst_quantile_error(reference, miner.quantile)
        assert worst <= max(1, 0.02 * data.size)

    def test_combined_summary_error_accounting(self, drained):
        miner, data = drained
        # unpruned: lossless merge of eps/2 shard buckets
        merged = miner.combined_summary(prune_budget=None)
        assert merged.error <= 0.01 + 1e-12
        assert merged.count == data.size
        # default: prune to ceil(1/eps) entries adds at most eps/2
        served = miner.combined_summary()
        assert len(served) <= math.ceil(1 / 0.02) + 1
        assert served.error <= 0.02 + 1e-12
        served.check_invariant()

    def test_processed_and_buffered_ledger(self):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=4,
                             window_size=1024)
        miner.ingest(uniform_stream(5000, seed=0))
        # less than a full 4-window texture batch per shard: all buffered
        assert miner.processed + miner.buffered == 5000
        miner.drain()
        assert miner.processed == 5000 and miner.buffered == 0

    def test_single_shard_matches_sharded_guarantee(self):
        data = uniform_stream(20_000, seed=5)
        single = ShardedMiner("quantile", eps=0.05, num_shards=1,
                              window_size=1024, stream_length_hint=20_000)
        single.ingest(data)
        single.drain()
        worst = worst_quantile_error(np.sort(data), single.quantile)
        assert worst <= max(1, 0.05 * data.size)


class TestFrequencies:
    @pytest.fixture(scope="class")
    def drained(self):
        miner = ShardedMiner("frequency", eps=0.002, num_shards=4,
                             backend="cpu")
        data = zipf_stream(60_000, seed=3)
        for start in range(0, data.size, 7000):
            miner.ingest(data[start:start + 7000])
        miner.drain()
        return miner, data

    def test_no_false_negatives_and_no_overcount(self, drained):
        miner, data = drained
        n = data.size
        true = Counter(data.tolist())
        support = 0.02
        reported = dict(miner.frequent_items(support))
        heavy = {v for v, c in true.items() if c >= support * n}
        assert heavy <= set(reported)
        for value, est in reported.items():
            assert est <= true[value]
            assert est >= (support - 0.002) * n

    def test_point_estimates_undercount_at_most_eps(self, drained):
        miner, data = drained
        n = data.size
        true = Counter(data.tolist())
        for value, count in true.most_common(20):
            est = miner.estimate(value)
            assert est <= count
            # eps * N_shard <= eps * N, plus one short drain window
            assert count - est <= 0.002 * n + 4

    def test_threshold_below_eps_rejected(self, drained):
        miner, _ = drained
        with pytest.raises(QueryError):
            miner.frequent_items(0.001)


class TestDistinct:
    def test_union_sketch_estimate(self):
        miner = ShardedMiner("distinct", eps=0.05, num_shards=4,
                             backend="cpu", window_size=1024)
        rng = np.random.default_rng(9)
        data = rng.integers(0, 8000, 50_000).astype(np.float32)
        miner.ingest(data)
        miner.drain()
        exact = len(np.unique(data))
        estimate = miner.distinct()
        assert abs(estimate - exact) <= 3 * 0.05 * exact


class TestMetrics:
    def test_shard_metrics_populate(self):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=4,
                             window_size=512)
        miner.ingest(uniform_stream(30_000, seed=1))
        miner.drain()
        miner.quantile(0.5)
        metrics = miner.metrics.snapshot()
        assert metrics.ingested == 30_000
        assert metrics.queries == 1
        assert sum(s.elements for s in metrics.shards) == 30_000
        assert all(s.batches > 0 for s in metrics.shards)
        assert all(s.update_seconds > 0 for s in metrics.shards)
        assert metrics.ingest_rate > 0
        reports = miner.shard_reports()
        assert len(reports) == 4
        assert all(r.wall["sort"] >= 0 for r in reports)
        assert all(r.elements == 7500 for r in reports)


class TestMergeSpans:
    def test_one_merge_span_per_merge_built(self):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                             window_size=512)
        miner.ingest(uniform_stream(20_000, seed=2))
        miner.drain()
        with collecting() as col:
            first = miner.quantile(0.5)
        merges = [s for s in col.snapshot()
                  if s.name == "service.merge_on_query"]
        assert [s.attrs for s in merges] == [{"op": "summary", "shards": 2}]
        # A repeat is served from the state-version memo: no new merge.
        with collecting() as col:
            assert miner.quantile(0.5) == first
        assert not [s for s in col.snapshot()
                    if s.name == "service.merge_on_query"]
