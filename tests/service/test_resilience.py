"""Retry policy, circuit breaker, and the fault-tolerant dispatch path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BusError, ServiceError, ShardFailedError
from repro.gpu.faults import FaultPlan
from repro.service import ShardedMiner
from repro.service.resilience import CircuitBreaker, RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ServiceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)

    def test_delay_grows_exponentially_up_to_the_cap(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=2.0,
                             max_delay=0.05, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [policy.delay(k, rng) for k in range(1, 6)]
        assert delays == pytest.approx([0.01, 0.02, 0.04, 0.05, 0.05])

    def test_jitter_stays_within_the_configured_band(self):
        policy = RetryPolicy(base_delay=0.01, multiplier=1.0, jitter=0.5)
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = policy.delay(1, rng)
            assert 0.005 <= d <= 0.01

    def test_attempt_must_be_positive(self):
        with pytest.raises(ServiceError):
            RetryPolicy().delay(0, np.random.default_rng(0))


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow_primary()
        assert breaker.opens == 1

    def test_primary_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success(primary=True)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_cooldown_of_fallback_successes_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=3)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        for _ in range(2):
            breaker.record_success(primary=False)
            assert breaker.state == CircuitBreaker.OPEN
        breaker.record_success(primary=False)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow_primary()

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_batches=1)
        breaker.record_failure()
        breaker.record_success(primary=False)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(primary=True)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_batches=1)
        for _ in range(3):
            breaker.record_failure()
        breaker.record_success(primary=False)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # the probe faults again
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_validation(self):
        with pytest.raises(ServiceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ServiceError):
            CircuitBreaker(cooldown_batches=0)


def _pool(fault_plan, **kwargs):
    defaults = dict(statistic="quantile", eps=0.05, num_shards=1,
                    backend="gpu", window_size=256,
                    retry=RetryPolicy(max_attempts=3, base_delay=1e-5,
                                      max_delay=1e-4))
    defaults.update(kwargs)
    return ShardedMiner(fault_plan=fault_plan, **defaults)


class TestDispatchRetry:
    def test_transient_fault_is_retried_with_no_data_loss(self, rng):
        # Exactly one upload fault, then clean: one retry absorbs it.
        pool = _pool(FaultPlan(at={"upload": (0,)}))
        data = rng.random(4096).astype(np.float32)
        pool.ingest(data)
        pool.drain()
        shard = pool.metrics.shards[0]
        assert shard.faults == 1
        assert shard.retries == 1
        assert shard.degraded_batches == 0
        assert pool.processed == data.size
        assert pool.metrics.shards[0].breaker_state == "closed"

    def test_exhausted_retries_degrade_the_batch_to_cpu(self, rng):
        # Every upload faults: retries can never succeed, so each batch
        # falls back to the CPU sorter and still completes.
        pool = _pool(FaultPlan(upload_rate=0.99, seed=5))
        data = rng.random(4096).astype(np.float32)
        pool.ingest(data)
        pool.drain()
        shard = pool.metrics.shards[0]
        assert shard.degraded_batches > 0
        assert pool.processed == data.size

    def test_breaker_opens_and_shard_runs_degraded(self, rng):
        pool = _pool(FaultPlan(upload_rate=0.99, seed=5),
                     breaker_failure_threshold=2,
                     breaker_cooldown_batches=1000)
        for _ in range(8):
            pool.ingest(rng.random(1024).astype(np.float32))
        pool.drain()
        shard = pool.metrics.shards[0]
        assert shard.breaker_state == "open"
        assert pool._breakers[0].opens >= 1
        # Once open, batches skip the primary entirely: fault count
        # stops growing while degraded batches keep accumulating.
        faults_when_open = shard.faults
        pool.ingest(rng.random(2048).astype(np.float32))
        pool.drain()
        assert shard.faults == faults_when_open
        assert pool.processed == 8 * 1024 + 2048

    def test_half_open_probe_recovers_after_burst_clears(self, rng):
        # A max_faults burst: after it clears, the cooldown's fallback
        # batches half-open the breaker and the probe closes it.
        pool = _pool(FaultPlan(upload_rate=0.99, seed=5, max_faults=6),
                     breaker_failure_threshold=1,
                     breaker_cooldown_batches=2)
        for _ in range(30):
            pool.ingest(rng.random(1024).astype(np.float32))
        pool.drain()
        shard = pool.metrics.shards[0]
        assert shard.breaker_state == "closed"
        assert pool._breakers[0].opens >= 1
        assert pool.processed == 30 * 1024

    def test_degraded_answers_identical_to_clean_run(self, rng):
        # Sorting is a pure function of the window, so a run that
        # degrades to the CPU fallback must answer *identically* to a
        # clean run over the same stream.
        data = rng.random(20_000).astype(np.float32)
        faulty = _pool(FaultPlan(upload_rate=0.5, seed=11), num_shards=2)
        clean = ShardedMiner("quantile", eps=0.05, num_shards=2,
                             backend="gpu", window_size=256)
        for pool in (faulty, clean):
            pool.ingest(data)
            pool.drain()
        assert faulty.metrics.faults > 0
        for phi in (0.01, 0.25, 0.5, 0.75, 0.99):
            assert faulty.quantile(phi) == clean.quantile(phi)

    def test_cpu_backend_rejects_fault_plan(self):
        with pytest.raises(ServiceError):
            ShardedMiner("quantile", eps=0.05, backend="cpu",
                         fault_plan=FaultPlan.transfers(0.1))

    def test_shards_fault_independently_but_deterministically(self, rng):
        data = rng.random(30_000).astype(np.float32)
        runs = []
        for _ in range(2):
            pool = _pool(FaultPlan.transfers(0.1, seed=3), num_shards=3,
                         eps=0.02)
            pool.ingest(data)
            pool.drain()
            runs.append([s.faults for s in pool.metrics.shards])
        assert runs[0] == runs[1]
        assert sum(runs[0]) > 0

    def test_no_fallback_escalates_to_shard_failed_error(self, rng):
        # A custom sorter (not a GpuSorter) gets no CPU fallback; if it
        # keeps raising transient errors the dispatch must escalate.
        pool = ShardedMiner("quantile", eps=0.05, num_shards=1,
                            backend="cpu", window_size=256,
                            retry=RetryPolicy(max_attempts=2,
                                              base_delay=1e-5))

        class AlwaysFaulting:
            name = "flaky"

            def sort_batch(self, windows):
                raise BusError("injected")

        pool._miners[0].swap_sorter(AlwaysFaulting())
        pool._guards[0].primary = pool._miners[0].sorter
        with pytest.raises(ShardFailedError) as exc_info:
            pool.ingest(np.arange(4096, dtype=np.float32))
        assert exc_info.value.shard_id == 0
        assert isinstance(exc_info.value.__cause__, BusError)
        # Nothing was lost: the chunk still sits buffered in the engine.
        assert pool.buffered == 4096
