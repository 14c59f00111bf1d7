"""Service-level performance metrics.

Follows the counter idiom of :mod:`repro.gpu.counters` and the bench
harness: plain mutable dataclasses that are cheap to update on the hot
path, with ``snapshot()`` producing independent copies so a live service
can be observed without tearing.  Per-operation pipeline latencies
(sort / histogram / merge / compress) are not duplicated here — each
shard's :class:`~repro.core.engine.EngineReport` already measures them;
the service metrics add the layer above: queueing, batching, shedding,
and end-to-end ingest rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace


@dataclass
class ShardMetrics:
    """Counters for one miner shard."""

    shard_id: int
    #: elements dispatched into the shard's miner.
    elements: int = 0
    #: coalesced batches dispatched (each is one `miner.update` call).
    batches: int = 0
    #: total wall seconds spent inside `miner.update`.
    update_seconds: float = 0.0
    #: slowest single batch dispatch, wall seconds.
    max_batch_seconds: float = 0.0
    #: chunks currently waiting in the shard's ingest queue.
    queue_depth: int = 0
    #: deepest the ingest queue has ever been.
    queue_high_water: int = 0
    #: elements dropped by the shard's load shedder.
    shed: int = 0
    #: transient GPU faults observed while dispatching into this shard.
    faults: int = 0
    #: backoff retries performed after those faults.
    retries: int = 0
    #: batches that ran on the CPU fallback backend (circuit open or
    #: retries exhausted) — answers identical, cost model degraded.
    degraded_batches: int = 0
    #: circuit-breaker state at the last dispatch ("closed" means the
    #: primary backend is trusted).
    breaker_state: str = "closed"
    #: always 0: the mp executor's shared-memory batch ring was measured
    #: and removed (DESIGN.md §12); the field stays for readers of the
    #: series, such as perfbench's ladder.
    shm_batches: int = 0
    #: batches pickled onto a worker's pipe (mp executor only).
    pickle_batches: int = 0
    #: batches re-sent to a restarted worker from the replay log.
    replayed_batches: int = 0
    #: parent-side wall seconds spent framing/sending batches to the
    #: worker process, writes blocked on a busy worker included (mp and
    #: net executors).
    transport_seconds: float = 0.0
    #: batches shipped over a TCP channel (net executor only).
    net_batches: int = 0
    #: times the shard's worker re-dialed and resumed on a fresh
    #: connection (net executor only).
    reconnects: int = 0
    #: per-connection deadline/liveness expiries observed on the
    #: shard's channel (net executor only).
    deadline_timeouts: int = 0
    #: True once the shard's keyspace was reassigned to survivors
    #: (net executor degradation; implies ``healthy`` is False).
    taken_over: bool = False
    #: worker crashes (exceptions that escaped a dispatch).
    failures: int = 0
    #: supervised worker restarts consumed (bounded by the service).
    restarts: int = 0
    #: elements discarded because the shard failed permanently.
    lost_elements: int = 0
    #: False once the shard is permanently failed.
    healthy: bool = True
    #: repr() of the most recent dispatch error, "" if none.
    last_error: str = ""

    def record_batch(self, elements: int, seconds: float) -> None:
        """Account one dispatched batch."""
        self.elements += int(elements)
        self.batches += 1
        self.update_seconds += seconds
        self.max_batch_seconds = max(self.max_batch_seconds, seconds)

    @property
    def mean_batch_seconds(self) -> float:
        """Average wall seconds per dispatched batch."""
        return self.update_seconds / self.batches if self.batches else 0.0

    def snapshot(self) -> "ShardMetrics":
        """An independent copy of the current values."""
        return replace(self)


@dataclass
class ServiceMetrics:
    """Aggregate view over the whole service."""

    started_at: float = field(default_factory=time.perf_counter)
    #: elements accepted by ingest (after shedding, before queueing).
    ingested: int = 0
    #: queries answered.
    queries: int = 0
    #: checkpoints written by the service.
    checkpoints: int = 0
    shards: list[ShardMetrics] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        """Wall seconds since the service (metrics) started."""
        return max(1e-9, time.perf_counter() - self.started_at)

    @property
    def ingest_rate(self) -> float:
        """Accepted elements per wall second."""
        return self.ingested / self.elapsed_seconds

    @property
    def shed(self) -> int:
        """Total elements dropped across all shards."""
        return sum(s.shed for s in self.shards)

    @property
    def queue_depth(self) -> int:
        """Chunks currently queued across all shards."""
        return sum(s.queue_depth for s in self.shards)

    @property
    def faults(self) -> int:
        """Transient GPU faults observed across all shards."""
        return sum(s.faults for s in self.shards)

    @property
    def retries(self) -> int:
        """Backoff retries performed across all shards."""
        return sum(s.retries for s in self.shards)

    @property
    def degraded_batches(self) -> int:
        """Batches that ran on the CPU fallback across all shards."""
        return sum(s.degraded_batches for s in self.shards)

    @property
    def replayed_batches(self) -> int:
        """Batches re-sent to restarted workers across all shards."""
        return sum(s.replayed_batches for s in self.shards)

    @property
    def transport_seconds(self) -> float:
        """Parent-side batch transport seconds across all shards."""
        return sum(s.transport_seconds for s in self.shards)

    @property
    def lost_elements(self) -> int:
        """Elements discarded by permanently failed shards."""
        return sum(s.lost_elements for s in self.shards)

    @property
    def reconnects(self) -> int:
        """Worker reconnections absorbed across all shards."""
        return sum(s.reconnects for s in self.shards)

    @property
    def deadline_timeouts(self) -> int:
        """Connection deadline/liveness expiries across all shards."""
        return sum(s.deadline_timeouts for s in self.shards)

    @property
    def taken_over_shards(self) -> list[int]:
        """Shard ids whose keyspace was reassigned to survivors."""
        return [s.shard_id for s in self.shards if s.taken_over]

    @property
    def failed_shards(self) -> list[int]:
        """Shard ids that are permanently failed."""
        return [s.shard_id for s in self.shards if not s.healthy]

    def snapshot(self) -> "ServiceMetrics":
        """An independent copy (shard list deep-copied)."""
        copy = replace(self, shards=[s.snapshot() for s in self.shards])
        return copy
