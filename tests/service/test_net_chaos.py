"""Network chaos: kills, faults, partitions, and keyspace takeover.

The net executor's failure contract, exercised for real:

* a SIGKILLed worker comes back through the supervised restart and the
  seq-numbered replay log — zero acknowledged elements lost, answers
  bit-identical to an undisturbed run;
* injected transport faults (drops, delays, reorders, a listener
  partition) are absorbed by the deadline/heartbeat/reconnect
  protocol — same guarantee;
* a shard that exhausts its restart budget is *taken over*: its
  keyspace re-routes to the survivors, seeded from its last snapshot +
  replay log, and the degradation is observable in both
  :class:`~repro.service.metrics.ServiceMetrics` and the Prometheus
  export — and ``drain()`` completes instead of hanging.

Fault schedules are seeded (one RNG draw per rated op), so every run
injects the identical chaos.
"""

import os
import signal

import numpy as np
import pytest

from repro.obs import to_prometheus
from repro.obs.sources import service_metrics_samples
from repro.service import (NetFaultPlan, NetShardedMiner, ServicePolicies,
                           ShardedMiner)
from repro.streams import uniform_stream

N = 40_000
CHUNK = 2_000
EPS = 0.02
PHIS = (0.1, 0.5, 0.9)

#: Tight chaos policies: short replay logs, fast reconnect windows.
FAST = ServicePolicies(snapshot_every=4, reconnect_deadline=2.0)


def _data():
    return uniform_stream(N, seed=17)


def _inline_answers(data, num_shards=4):
    pool = ShardedMiner("quantile", eps=EPS, num_shards=num_shards,
                        backend="cpu", window_size=512,
                        stream_length_hint=N)
    for start in range(0, data.size, CHUNK):
        pool.ingest(data[start:start + CHUNK])
    pool.drain()
    return [pool.quantile(phi) for phi in PHIS]


def _kill_worker(pool, shard_id):
    os.kill(pool._links[shard_id].proc.pid, signal.SIGKILL)


def _replay_holds_batch(pool, shard_id):
    return any(kind == "batch"
               for _, kind, _ in pool._links[shard_id].replay)


def _rank_within_eps(data, estimate, phi, eps):
    ordered = np.sort(data)
    target = phi * data.size
    lo = int(np.searchsorted(ordered, estimate, "left")) + 1
    hi = int(np.searchsorted(ordered, estimate, "right"))
    return (lo - eps * data.size) <= target <= (hi + eps * data.size)


@pytest.mark.slow
class TestSigkillReplay:
    def test_killed_worker_restarts_and_loses_nothing(self):
        data = _data()
        expected = _inline_answers(data)
        pool = NetShardedMiner("quantile", eps=EPS, num_shards=4,
                               backend="cpu", window_size=512,
                               stream_length_hint=N, policies=FAST)
        try:
            # Each victim dies once its replay log holds a batch: a
            # periodic snapshot covering every batch sent so far would
            # leave the restart nothing to replay.
            kills = [(data.size // 4, 1), (data.size // 2, 3)]
            for start in range(0, data.size, CHUNK):
                if kills and start >= kills[0][0] and \
                        _replay_holds_batch(pool, kills[0][1]):
                    _kill_worker(pool, kills.pop(0)[1])
                pool.ingest(data[start:start + CHUNK])
            pool.drain()
            assert not kills
            metrics = pool.metrics
            assert sum(s.restarts for s in metrics.shards) >= 2
            assert metrics.replayed_batches >= 1
            assert metrics.lost_elements == 0
            assert pool.processed == N
            assert [pool.quantile(phi) for phi in PHIS] == expected
        finally:
            pool.close()


@pytest.mark.slow
class TestInjectedFaults:
    def test_rated_chaos_is_absorbed_without_loss(self):
        data = _data()
        expected = _inline_answers(data)
        plan = NetFaultPlan(drop_rate=0.01, delay_rate=0.01,
                            reorder_rate=0.01, delay_seconds=0.002,
                            seed=29, max_faults=24)
        pool = NetShardedMiner("quantile", eps=EPS, num_shards=4,
                               backend="cpu", window_size=512,
                               stream_length_hint=N, policies=FAST,
                               net_fault_plan=plan)
        try:
            for start in range(0, data.size, CHUNK):
                pool.ingest(data[start:start + CHUNK])
            pool.drain()
            assert pool._injector.total_injected > 0
            metrics = pool.metrics
            if pool._injector.injected["drop"]:
                assert metrics.reconnects >= 1
            assert metrics.lost_elements == 0
            assert pool.processed == N
            assert [pool.quantile(phi) for phi in PHIS] == expected
        finally:
            pool.close()

    def test_partition_refuses_redials_then_recovers(self):
        data = _data()
        expected = _inline_answers(data)
        plan = NetFaultPlan(at={"send": {10: "partition"}},
                            partition_attempts=2, seed=5)
        pool = NetShardedMiner("quantile", eps=EPS, num_shards=4,
                               backend="cpu", window_size=512,
                               stream_length_hint=N, policies=FAST,
                               net_fault_plan=plan)
        try:
            for start in range(0, data.size, CHUNK):
                pool.ingest(data[start:start + CHUNK])
            pool.drain()
            assert pool._injector.injected["partition"] == 1
            metrics = pool.metrics
            assert metrics.reconnects >= 1
            assert metrics.lost_elements == 0
            assert pool.processed == N
            assert [pool.quantile(phi) for phi in PHIS] == expected
        finally:
            pool.close()


@pytest.mark.slow
class TestTakeover:
    def test_exhausted_restart_budget_degrades_to_survivors(self):
        data = _data()
        policies = ServicePolicies(max_restarts=0, reconnect_deadline=0.5,
                                   snapshot_every=2)
        pool = NetShardedMiner("quantile", eps=EPS, num_shards=3,
                               backend="cpu", window_size=512,
                               stream_length_hint=N, policies=policies)
        try:
            for start in range(0, data.size, CHUNK):
                if start == data.size // 2:
                    _kill_worker(pool, 2)
                pool.ingest(data[start:start + CHUNK])
            pool.drain()  # must settle, not hang, with a shard gone

            metrics = pool.metrics
            assert metrics.taken_over_shards == [2]
            assert metrics.lost_elements == 0
            assert pool.processed == N
            for phi in PHIS:
                assert _rank_within_eps(data, pool.quantile(phi), phi, EPS)

            # The degradation is visible to scrapers, not just callers.
            text = to_prometheus(service_metrics_samples(metrics))
            assert "repro_service_taken_over_shards 1" in text
            assert 'repro_shard_taken_over{shard="2"} 1' in text

            # The dead shard's history rides on as a ghost: snapshots
            # taken after the takeover still restore everything.
            state = pool.snapshot()
            assert len(state["retired"]) >= 1
            restored = ShardedMiner.from_snapshot(state)
            assert restored.processed == N
        finally:
            pool.close()

    def test_takeover_disabled_fails_the_shard_instead(self):
        from repro.errors import ShardFailedError
        data = _data()
        policies = ServicePolicies(max_restarts=0, reconnect_deadline=0.5,
                                   takeover=False)
        pool = NetShardedMiner("quantile", eps=EPS, num_shards=2,
                               backend="cpu", window_size=512,
                               stream_length_hint=N, policies=policies)
        try:
            pool.ingest(data[:CHUNK])
            _kill_worker(pool, 1)
            with pytest.raises(ShardFailedError):
                for start in range(CHUNK, data.size, CHUNK):
                    pool.ingest(data[start:start + CHUNK])
                pool.drain()
            assert pool.metrics.failed_shards == [1]
            # Fail-stop, as under mp: queries and snapshots raise rather
            # than answer from the survivor alone.
            with pytest.raises(ShardFailedError):
                pool.quantile(0.5)
            with pytest.raises(ShardFailedError):
                pool.processed
            with pytest.raises(ShardFailedError):
                pool.snapshot()
        finally:
            pool.close()
