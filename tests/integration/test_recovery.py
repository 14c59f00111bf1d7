"""End-to-end fault tolerance: faulty GPU ingest, supervision,
checkpoint/kill/restore, and spilling under the async service."""

from __future__ import annotations

import asyncio
import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import ShardFailedError
from repro.gpu.faults import FaultPlan
from repro.service import (CheckpointStore, RetryPolicy, ServicePolicies,
                           ShardedMiner, StreamService)
from repro.streams import uniform_stream, zipf_stream

from ..conftest import rank_error

FAST_RETRY = ServicePolicies(retry=RetryPolicy(
    max_attempts=3, base_delay=1e-5, max_delay=1e-4))


def _quantile_ok(estimate, seen, phi, eps):
    reference = np.sort(seen)
    target = max(1, math.ceil(phi * seen.size))
    return rank_error(reference, estimate, target) <= max(1, eps * seen.size)


class TestFaultyGpuEndToEnd:
    """ISSUE acceptance: 5% transient fault rate, >= 100k tuples, zero
    data loss, answers within eps, metrics reporting the recovery."""

    def test_five_percent_transfer_faults_lose_nothing(self):
        n, eps = 120_000, 0.02
        data = uniform_stream(n, seed=9)

        async def scenario():
            miner = ShardedMiner(
                "quantile", eps=eps, num_shards=2, backend="gpu",
                window_size=512, stream_length_hint=n,
                fault_plan=FaultPlan.transfers(0.05, seed=17),
                policies=FAST_RETRY)
            async with StreamService(miner) as service:
                for start in range(0, n, 3000):
                    await service.ingest(data[start:start + 3000])
                answers = {phi: await service.quantile(phi, fresh=True)
                           for phi in (0.1, 0.5, 0.9, 0.99)}
                return answers, service.metrics, miner

        answers, metrics, miner = asyncio.run(scenario())
        # zero data loss: every delivered tuple is inside a summary
        assert miner.processed == n
        assert miner.buffered == 0
        assert metrics.lost_elements == 0
        assert metrics.failed_shards == []
        # the fault storm actually happened and was absorbed
        assert metrics.faults > 0
        assert metrics.retries > 0
        assert sum(inj.total_injected
                   for inj in miner.fault_injectors) == metrics.faults
        # answers still honour the configured epsilon
        for phi, estimate in answers.items():
            assert _quantile_ok(estimate, data, phi, eps), phi

    def test_faulty_run_answers_equal_clean_run(self):
        # Retries and degradation must be invisible in the answers: the
        # same stream through a clean pool gives identical quantiles.
        n = 32_768
        data = uniform_stream(n, seed=4)

        def run(fault_plan):
            pool = ShardedMiner("quantile", eps=0.02, num_shards=2,
                                backend="gpu", window_size=512,
                                fault_plan=fault_plan, policies=FAST_RETRY)
            pool.ingest(data)
            pool.drain()
            return pool

        faulty = run(FaultPlan.transfers(0.3, seed=23))
        clean = run(None)
        assert faulty.metrics.faults > 0
        for phi in (0.05, 0.5, 0.95):
            assert faulty.quantile(phi) == clean.quantile(phi)


class TestCheckpointKillRestore:
    """ISSUE acceptance: checkpoint -> kill -> restore answers exactly
    like an uninterrupted run over the same delivered prefix."""

    def test_round_trip_identity(self, tmp_path):
        n = 60_000
        data = uniform_stream(n, seed=31)
        cut = 36_000  # checkpoint after this prefix

        async def interrupted():
            store = CheckpointStore(tmp_path / "svc")
            miner = ShardedMiner("quantile", eps=0.02, num_shards=3,
                                 backend="cpu", window_size=512,
                                 stream_length_hint=n)
            async with StreamService(miner,
                                     checkpoint_store=store) as service:
                for start in range(0, cut, 2000):
                    await service.ingest(data[start:start + 2000])
                await service.checkpoint()
                await service.stop(drain=False)  # kill: nothing flushed
            return store

        store = asyncio.run(interrupted())

        async def resumed(store):
            miner = ShardedMiner.from_snapshot(store.load_latest())
            # the restart lost at most the post-checkpoint in-flight
            # batch; here the checkpoint settled the queues so the loss
            # is exactly zero:
            assert miner.processed + miner.buffered == cut
            async with StreamService(miner) as service:
                for start in range(cut, n, 2000):
                    await service.ingest(data[start:start + 2000])
                await service.drain()
                return {phi: await service.quantile(phi)
                        for phi in (0.1, 0.5, 0.9)}

        async def uninterrupted():
            miner = ShardedMiner("quantile", eps=0.02, num_shards=3,
                                 backend="cpu", window_size=512,
                                 stream_length_hint=n)
            async with StreamService(miner) as service:
                for start in range(0, n, 2000):
                    await service.ingest(data[start:start + 2000])
                await service.drain()
                return {phi: await service.quantile(phi)
                        for phi in (0.1, 0.5, 0.9)}

        assert asyncio.run(resumed(store)) == asyncio.run(uninterrupted())

    def test_periodic_and_final_checkpoints(self, tmp_path):
        data = uniform_stream(30_000, seed=2)

        async def scenario():
            store = CheckpointStore(tmp_path / "periodic")
            miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                                 backend="cpu", window_size=512)
            async with StreamService(miner, checkpoint_store=store,
                                     checkpoint_interval=0.02) as service:
                for start in range(0, data.size, 1000):
                    await service.ingest(data[start:start + 1000])
                    await asyncio.sleep(0.005)
                # wait (bounded) for the periodic loop to fire at least
                # once — wall-clock scheduling is not deterministic
                deadline = asyncio.get_running_loop().time() + 10.0
                while (service.metrics.checkpoints == 0
                       and asyncio.get_running_loop().time() < deadline):
                    await asyncio.sleep(0.01)
                checkpoints_before_stop = service.metrics.checkpoints
            # __aexit__ drained and wrote the final checkpoint
            return store, checkpoints_before_stop, miner

        store, before_stop, miner = asyncio.run(scenario())
        assert before_stop >= 1  # the periodic loop fired
        assert miner.metrics.checkpoints > before_stop  # plus the final
        # graceful stop drained first, so the last checkpoint holds the
        # complete stream
        restored = ShardedMiner.from_snapshot(store.load_latest())
        assert restored.processed == data.size
        assert restored.buffered == 0

    def test_checkpoint_needs_a_store(self):
        async def scenario():
            miner = ShardedMiner("quantile", eps=0.05, num_shards=1,
                                 backend="cpu", window_size=256)
            async with StreamService(miner) as service:
                from repro.errors import ServiceError
                with pytest.raises(ServiceError):
                    await service.checkpoint()

        asyncio.run(scenario())


class TestSupervision:
    """Worker crashes are bounded-restarted, then fail fast — never a
    silent hang (the ISSUE's drain() regression)."""

    def _crashing_miner(self, crashes: int):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=1,
                             backend="cpu", window_size=256)
        real = miner.dispatch
        state = {"left": crashes}

        def flaky(shard_id, values):
            if state["left"] > 0:
                state["left"] -= 1
                raise RuntimeError("simulated worker crash")
            real(shard_id, values)

        miner.dispatch = flaky
        return miner

    def test_bounded_restarts_recover_transient_crashes(self, rng):
        data = rng.random(8192).astype(np.float32)

        async def scenario():
            miner = self._crashing_miner(crashes=2)
            async with StreamService(miner, max_restarts=3) as service:
                for start in range(0, data.size, 512):
                    await service.ingest(data[start:start + 512])
                value = await service.quantile(0.5, fresh=True)
            return value, miner.metrics

        value, metrics = asyncio.run(scenario())
        assert 0.4 < value < 0.6
        shard = metrics.shards[0]
        assert shard.failures == 2
        assert shard.restarts == 2
        assert shard.healthy

    def test_permanent_crash_fails_fast_instead_of_hanging(self, rng):
        data = rng.random(4096).astype(np.float32)

        async def scenario():
            miner = self._crashing_miner(crashes=10_000)
            async with StreamService(miner, max_restarts=1) as service:
                failed_ingest = None
                for start in range(0, data.size, 256):
                    try:
                        await service.ingest(data[start:start + 256])
                    except ShardFailedError as exc:
                        failed_ingest = exc
                        break
                    await asyncio.sleep(0.002)
                assert failed_ingest is not None
                assert failed_ingest.shard_id == 0
                # the regression: drain() must complete, not hang
                await asyncio.wait_for(service.drain(flush=False),
                                       timeout=10)
                with pytest.raises(ShardFailedError):
                    await service.quantile(0.5)
                await service.stop(drain=False)
                return miner.metrics

        metrics = asyncio.run(scenario())
        assert metrics.failed_shards == [0]
        assert not metrics.shards[0].healthy
        assert metrics.shards[0].restarts == 1

    def test_reaper_accounts_lost_elements(self, rng):
        data = rng.random(2048).astype(np.float32)

        async def scenario():
            miner = self._crashing_miner(crashes=10_000)
            async with StreamService(miner, max_restarts=0,
                                     queue_chunks=64) as service:
                lost_target = 0
                for start in range(0, data.size, 128):
                    try:
                        await service.ingest(data[start:start + 128])
                    except ShardFailedError:
                        lost_target += 128  # queued after failure: lost
                # let the reaper drain the queue
                await asyncio.wait_for(service.drain(flush=False),
                                       timeout=10)
                await service.stop(drain=False)
            return miner.metrics

        metrics = asyncio.run(scenario())
        # everything the reaper discarded is accounted, nothing hidden
        assert metrics.lost_elements + metrics.shards[0].elements \
            <= data.size
        assert metrics.failed_shards == [0]


class TestSpillUnderAsyncService:
    """Satellite: the "spill" shedding policy driven by the service."""

    def test_spill_queue_releases_on_drain_with_no_loss(self):
        n = 40_000
        data = uniform_stream(n, seed=5)

        async def scenario():
            miner = ShardedMiner("quantile", eps=0.02, num_shards=2,
                                 backend="cpu", window_size=512)
            service = StreamService(miner, shed_capacity=400,
                                    shed_policy="spill",
                                    shed_queue_limit=None)
            async with service:
                for start in range(0, n, 4000):  # bursty: 2000/shard/tick
                    await service.ingest(data[start:start + 4000])
                await service.drain()
                for shedder in service._shedders:
                    shedder.check_conservation()
                    assert shedder.stats.shed == 0
                    assert shedder.queued == 0
                return miner, service.metrics

        miner, metrics = asyncio.run(scenario())
        # unbounded spill: every element eventually processed
        assert miner.processed == n
        assert metrics.ingested == n
        assert metrics.shed == 0

    def test_bounded_spill_queue_overflow_is_shed_and_accounted(self):
        n = 60_000
        data = uniform_stream(n, seed=6)

        async def scenario():
            miner = ShardedMiner("quantile", eps=0.02, num_shards=2,
                                 backend="cpu", window_size=512)
            service = StreamService(miner, shed_capacity=200,
                                    shed_policy="spill",
                                    shed_queue_limit=1000)
            async with service:
                for start in range(0, n, 6000):
                    await service.ingest(data[start:start + 6000])
                await service.drain()
                stats = [s.stats for s in service._shedders]
                for shedder in service._shedders:
                    shedder.check_conservation()
                return miner, service.metrics, stats

        miner, metrics, stats = asyncio.run(scenario())
        total_shed = sum(s.shed for s in stats)
        total_processed = sum(s.processed for s in stats)
        assert total_shed > 0  # the bounded queue really overflowed
        assert total_processed + total_shed == n  # conservation ledger
        assert miner.processed == total_processed
        assert metrics.shed == total_shed

    def test_keep_rate_adjusts_frequency_estimates(self):
        # Within-tick shedding keeps a uniform sample, so relative
        # frequencies survive and absolute counts scale by keep_rate:
        # estimate / keep_rate approximates the true count.
        n = 100_000
        data = zipf_stream(n, seed=12)

        async def scenario():
            miner = ShardedMiner("frequency", eps=0.002, num_shards=2,
                                 backend="cpu")
            service = StreamService(miner, shed_capacity=500,
                                    shed_policy="spill",
                                    shed_queue_limit=2000)
            async with service:
                for start in range(0, n, 5000):
                    await service.ingest(data[start:start + 5000])
                await service.drain()
                keep_rates = [s.stats.keep_rate for s in service._shedders]
                reported = await service.frequent_items(0.05)
            return miner, keep_rates, dict(reported)

        miner, keep_rates, reported = asyncio.run(scenario())
        assert min(keep_rates) < 1.0  # overload actually shed something
        true = Counter(data.tolist())
        heavy = {v for v, c in true.items() if c >= 0.08 * n}
        assert heavy <= set(reported), "shedding hid a heavy hitter"
        for value in heavy:
            # counts of a value scale by its *home shard's* keep rate
            keep = keep_rates[miner.partitioner.shard_of(value)]
            scaled = reported[value] / keep
            assert scaled == pytest.approx(true[value], rel=0.15), \
                f"keep-rate adjustment off for value {value}"
