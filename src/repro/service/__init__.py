"""Sharded streaming service: the production lift of the paper's loop.

The ROADMAP's north star is a system that serves heavy traffic, and the
repo's summaries are *mergeable* — the one property that makes
horizontal scaling free.  This package supplies the layer that uses it:

* :class:`ShardedMiner` — N independent miner pipelines behind one
  ingest/query facade, with merge-on-query and documented combined-error
  accounting (no error beyond the configured ``eps``).  Its base,
  :class:`~repro.service.sharded.ShardPool`, holds the validation,
  routing, merge-on-query surface, snapshot format and resharding that
  every executor's pool shares;
* :class:`StreamService` — the asyncio front-end: bounded per-shard
  queues (backpressure), optional load shedding, texture-batch
  coalescing, and parallel shard workers;
* :class:`ServiceMetrics` / :class:`ShardMetrics` — the observability
  surface (ingest rate, queue depth, per-shard latencies, shed count,
  fault/retry/degradation counters, shard health);
* the worker-pool engine (:mod:`~repro.service.worker_pool`) — one
  worker *process* per shard, the ack/replay protocol, one in-flight
  window of backpressure, supervised restart and merge-on-query over
  gathered estimator states, under two transports:
  :class:`MpShardedMiner` (pickled messages over a pipe; fail-stop) and
  :class:`NetShardedMiner` (framed TCP,
  :mod:`~repro.service.net_transport`, with per-connection deadlines,
  heartbeats, worker reconnect and keyspace takeover when a shard dies
  for good);
* elastic resharding (:func:`resharded_snapshot`) on every pool;
* the executor registry (:mod:`~repro.service.executors`) naming the
  four ways to run the pool — ``inline`` / ``async`` / ``mp`` /
  ``net`` — all answer-identical, differing only in throughput and
  failure-domain isolation;
* fault tolerance — :class:`RetryPolicy`, :class:`CircuitBreaker` and
  :class:`ShardGuard` (:mod:`~repro.service.resilience`) around the
  dispatch path, every setting of which comes from one
  :class:`ServicePolicies` bundle, and :class:`CheckpointStore`
  (:mod:`~repro.service.checkpoint`) for durable snapshot/restore of
  the whole pool under any executor;
* partitioners in :mod:`~repro.service.sharding` and the ``repro
  serve`` demo driver in :mod:`~repro.service.runner`.
"""

from .async_service import StreamService
from .checkpoint import CheckpointStore
from .executors import (InlineService, register_executor,
                        registered_executors, resolve_executor)
from .metrics import ServiceMetrics, ShardMetrics
from .mp_executor import MpShardedMiner
from .net_executor import NetShardedMiner
from .net_transport import NetFaultInjector, NetFaultPlan
from .policies import DEFAULT_POLICIES, ServicePolicies
from .reshard import resharded_snapshot
from .resilience import CircuitBreaker, RetryPolicy, ShardGuard
from .runner import ServeResult, format_result, run_service_demo
from .sharded import ShardedMiner
from .sharding import (ConsistentHashPartitioner, HashPartitioner,
                       RoundRobinPartitioner, default_partitioner,
                       partitioner_from_state)

__all__ = [
    "CheckpointStore",
    "CircuitBreaker",
    "ConsistentHashPartitioner",
    "DEFAULT_POLICIES",
    "HashPartitioner",
    "InlineService",
    "MpShardedMiner",
    "NetFaultInjector",
    "NetFaultPlan",
    "NetShardedMiner",
    "RetryPolicy",
    "RoundRobinPartitioner",
    "ServeResult",
    "ServiceMetrics",
    "ServicePolicies",
    "ShardGuard",
    "ShardMetrics",
    "ShardedMiner",
    "StreamService",
    "default_partitioner",
    "format_result",
    "partitioner_from_state",
    "register_executor",
    "registered_executors",
    "resolve_executor",
    "resharded_snapshot",
    "run_service_demo",
]
