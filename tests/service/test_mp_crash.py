"""Worker-crash supervision: SIGKILL mid-stream, replay, budgets.

The mp executor's fault contract mirrors the in-process ShardGuard's:
an *acked* batch is durable (it is inside the worker's estimator and
covered by the periodic worker snapshot), an unacked batch is replayed
verbatim to the restarted worker, and answers after a crash must be
**bit-identical** to an uninterrupted run — restart is invisible to
queries.  A worker that keeps dying exhausts its restart budget and
fails the shard loudly instead of looping forever.
"""

import os
import signal

import numpy as np
import pytest

from repro.errors import ShardFailedError
from repro.service import MpShardedMiner, ServicePolicies, ShardedMiner
from repro.streams import uniform_stream

pytestmark = pytest.mark.slow

N = 40_000
CHUNK = 2_048


def _kwargs(**extra):
    kwargs = dict(eps=0.05, num_shards=2, backend="cpu", window_size=256,
                  stream_length_hint=N)
    kwargs.update(extra)
    return kwargs


def _chunks():
    data = uniform_stream(N, seed=3)
    return [data[i:i + CHUNK] for i in range(0, data.size, CHUNK)]


class TestCrashReplay:
    def test_sigkill_mid_stream_is_invisible_to_queries(self):
        baseline = ShardedMiner("quantile", **_kwargs())
        miner = MpShardedMiner("quantile", **_kwargs(
            policies=ServicePolicies(snapshot_every=4)))
        try:
            chunks = _chunks()
            for index, chunk in enumerate(chunks):
                baseline.ingest(chunk)
                miner.ingest(chunk)
                if index == len(chunks) // 2:
                    os.kill(miner._links[0].proc.pid, signal.SIGKILL)
            baseline.drain()
            miner.drain()

            phis = (0.25, 0.5, 0.75)
            assert ([miner.quantile(phi) for phi in phis]
                    == [baseline.quantile(phi) for phi in phis])

            shard0 = miner.metrics.shards[0]
            assert shard0.failures >= 1
            assert shard0.restarts >= 1
            assert shard0.replayed_batches > 0
            assert miner.metrics.lost_elements == 0
            assert miner.metrics.failed_shards == []
            assert all(s.healthy for s in miner.metrics.shards)
            assert miner.processed == N
        finally:
            miner.close()

    def test_repeated_kills_within_budget(self):
        baseline = ShardedMiner("quantile", **_kwargs())
        miner = MpShardedMiner("quantile", **_kwargs(
            policies=ServicePolicies(snapshot_every=4, max_restarts=2)))
        try:
            chunks = _chunks()
            kill_at = {len(chunks) // 3, 2 * len(chunks) // 3}
            for index, chunk in enumerate(chunks):
                baseline.ingest(chunk)
                miner.ingest(chunk)
                if index in kill_at:
                    os.kill(miner._links[1].proc.pid, signal.SIGKILL)
            baseline.drain()
            miner.drain()
            assert miner.quantile(0.5) == baseline.quantile(0.5)
            assert miner.metrics.shards[1].restarts == 2
            assert miner.metrics.lost_elements == 0
        finally:
            miner.close()

    def test_restart_budget_exhaustion_fails_shard_loudly(self):
        miner = MpShardedMiner("quantile", **_kwargs(
            policies=ServicePolicies(max_restarts=0)))
        try:
            chunks = _chunks()
            with pytest.raises(ShardFailedError):
                for chunk in chunks:
                    miner.ingest(chunk)
                    os.kill(miner._links[0].proc.pid, signal.SIGKILL)
                miner.drain()

            metrics = miner.metrics
            assert 0 in metrics.failed_shards
            assert not metrics.shards[0].healthy
            assert metrics.shards[0].restarts == 0
            assert metrics.lost_elements > 0
            # a failed shard stays failed: dispatching to it re-raises
            with pytest.raises(ShardFailedError):
                miner.dispatch(0, np.ones(8, dtype=np.float32))
            # The surviving shard stays healthy, but the pool is
            # fail-stop: answering from the survivor alone would drop
            # the failed shard's elements from an eps*N bound that
            # counts them, so queries and snapshots raise instead.
            assert miner.metrics.shards[1].healthy
            with pytest.raises(ShardFailedError):
                miner.quantile(0.5)
            with pytest.raises(ShardFailedError):
                miner.processed
            with pytest.raises(ShardFailedError):
                miner.snapshot()
        finally:
            miner.close()

    def test_close_after_crash_is_clean(self):
        miner = MpShardedMiner("quantile", **_kwargs())
        os.kill(miner._links[0].proc.pid, signal.SIGKILL)
        miner._links[0].proc.join(timeout=10)
        miner.close()
        miner.close()  # idempotent
        assert all(link.proc is None or not link.proc.is_alive()
                   for link in miner._links)
