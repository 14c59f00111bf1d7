"""Soak: sustained wall-clock-bounded ingest through async and mp.

Not a throughput benchmark — a *stability* test.  Each case runs a
fixed wall-clock window of continuous ingest and then checks the
properties that only show up under sustained load:

* **bounded queues** — the async queue depth never exceeds its
  configured bound, and the mp replay log and in-flight window stay
  bounded (the periodic worker snapshot truncates replay; dispatch
  waits on acks once ``max_inflight_batches`` are unacknowledged);
* **conservation** — every acked element is in the pool afterwards:
  ``processed == accepted`` after a drain, nothing shed, nothing lost;
* **stable memory** — parent RSS growth over the run stays small
  (leaked batch buffers or an unbounded replay log would show here);
* **clean shutdown** — worker processes exit 0 with nothing left
  unacknowledged.

``REPRO_BENCH_SMOKE`` (same knob as the benchmark suite) shrinks the
soak window for constrained CI lanes.
"""

import asyncio
import os
import time

import pytest

from repro.service import (MpShardedMiner, ServicePolicies, ShardedMiner,
                           StreamService)
from repro.streams import uniform_stream

pytestmark = pytest.mark.slow

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") not in ("", "0")
#: Wall-clock ingest window per executor case.
SOAK_SECONDS = 1.0 if _SMOKE else 4.0
CHUNK = 2_048
SHARDS = 2
#: Parent RSS is allowed this much growth over the soak (generous: the
#: pool's summaries are a few hundred KB; a per-batch leak would blow
#: straight through it).
RSS_BUDGET_BYTES = 192 * 1024 * 1024


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _chunk_stream():
    """An endless deterministic chunk generator (recycles one buffer)."""
    data = uniform_stream(64 * CHUNK, seed=17)
    index = 0
    while True:
        start = (index * CHUNK) % (data.size - CHUNK + 1)
        yield data[start:start + CHUNK]
        index += 1


class TestSoakMp:
    def test_sustained_ingest(self):
        miner = MpShardedMiner("quantile", eps=0.05, num_shards=SHARDS,
                               backend="cpu", window_size=1024,
                               policies=ServicePolicies(snapshot_every=16))
        try:
            chunks = _chunk_stream()
            rss_before = _rss_bytes()
            sent = 0
            deadline = time.monotonic() + SOAK_SECONDS
            while time.monotonic() < deadline:
                chunk = next(chunks)
                miner.ingest(chunk)
                sent += chunk.size
                for link in miner._links:
                    # The replay log is bounded by the snapshot cadence
                    # plus the in-flight window (itself capped by
                    # max_inflight_batches); without the periodic
                    # truncation it would grow with the stream.
                    assert (len(link.replay)
                            <= miner.policies.snapshot_every
                            + len(link.pending) + 8)
                    assert (len(link.pending)
                            <= miner.policies.max_inflight_batches)
            miner.drain()
            rss_after = _rss_bytes()
            for link in miner._links:
                assert not link.pending

            metrics = miner.metrics
            assert metrics.ingested == sent
            assert miner.processed == sent
            assert miner.buffered == 0
            assert metrics.lost_elements == 0
            assert sum(s.shed for s in metrics.shards) == 0
            assert all(s.healthy for s in metrics.shards)
            assert sum(s.failures for s in metrics.shards) == 0
            assert rss_after - rss_before < RSS_BUDGET_BYTES
            # every batch was pickled onto its worker's pipe
            batches = sum(s.batches for s in metrics.shards)
            assert batches > 0
            assert sum(s.pickle_batches for s in metrics.shards) == batches
            assert sum(s.shm_batches for s in metrics.shards) == 0

            links = list(miner._links)
            miner.close()
            for link in links:
                assert link.proc is None or link.proc.exitcode == 0
        finally:
            miner.close()

    def test_queries_interleave_with_sustained_ingest(self):
        """Merge-on-query under load: answers stay live and sane."""
        miner = MpShardedMiner("quantile", eps=0.05, num_shards=SHARDS,
                               backend="cpu", window_size=1024)
        try:
            chunks = _chunk_stream()
            deadline = time.monotonic() + SOAK_SECONDS / 2
            tick = 0
            while time.monotonic() < deadline:
                miner.ingest(next(chunks))
                tick += 1
                if tick % 8 == 0 and miner.processed:
                    median = miner.quantile(0.5)
                    assert 0.0 <= median <= 1000.0
            miner.drain()
            assert miner.processed == miner.metrics.ingested
        finally:
            miner.close()


class TestSoakAsync:
    def test_sustained_ingest(self):
        async def drive():
            miner = ShardedMiner("quantile", eps=0.05, num_shards=SHARDS,
                                 backend="cpu", window_size=1024)
            queue_chunks = 8
            rss_before = _rss_bytes()
            sent = 0
            async with StreamService(miner,
                                     queue_chunks=queue_chunks) as service:
                chunks = _chunk_stream()
                deadline = time.monotonic() + SOAK_SECONDS
                while time.monotonic() < deadline:
                    chunk = next(chunks)
                    sent += await service.ingest(chunk)
                    for shard in service.metrics.shards:
                        assert shard.queue_depth <= queue_chunks
                await service.drain()
                metrics = service.metrics
                assert metrics.ingested == sent
                assert miner.processed == sent
                assert sum(s.shed for s in metrics.shards) == 0
                high_water = max(s.queue_high_water
                                 for s in metrics.shards)
                assert high_water <= queue_chunks
            assert _rss_bytes() - rss_before < RSS_BUDGET_BYTES
            return miner
        miner = asyncio.run(drive())
        assert miner.buffered == 0
