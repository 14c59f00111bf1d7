"""Executor registry: where do the shards run?

Mirrors the sorting-backend registry (:mod:`repro.backends`): a small
name -> factory table that is the single construction point for the
service stack, so the runner, the CLI, benchmarks, and tests all build
services the same way and a new executor (NUMA-pinned pools, one GPU
per worker, remote shards) plugs in by registering a factory.

Built-in executors:

``inline``
    :class:`ShardedMiner` behind a synchronous adapter
    (:class:`InlineService`) that speaks the :class:`StreamService`
    coroutine surface — the zero-concurrency baseline every
    equivalence test compares against.
``async``
    :class:`StreamService` over an in-process :class:`ShardedMiner`:
    bounded queues, coalescing, thread-dispatched shards (the GIL still
    serialises compute).
``mp``
    :class:`StreamService` over :class:`MpShardedMiner`: one worker
    *process* per shard, batches pickled over a pipe — compute
    genuinely parallel across cores.
``net``
    :class:`StreamService` over :class:`NetShardedMiner`: the same
    worker-pool engine (:mod:`repro.service.worker_pool`) over framed
    TCP, adding deadlines, heartbeats, worker reconnect, and keyspace
    takeover when a shard dies for good
    (:mod:`repro.service.net_executor`).

Every executor produces **bit-identical answers** over the same stream
(``tests/service/test_mp_equivalence.py``); they differ only in where
the work happens and therefore in throughput.
"""

from __future__ import annotations

import numpy as np

from ..errors import ServiceError
from .async_service import StreamService
from .checkpoint import CheckpointStore
from .metrics import ServiceMetrics
from .mp_executor import MpShardedMiner
from .net_executor import NetShardedMiner
from .sharded import ShardedMiner

__all__ = [
    "InlineService",
    "register_executor",
    "registered_executors",
    "resolve_executor",
]


class InlineService:
    """Synchronous pool behind the :class:`StreamService` surface.

    Runs every ingest and query inline on the caller — no queues, no
    workers, no processes.  The coroutine signatures exist so the demo
    driver and the equivalence tests can swap executors without
    branching; each ``await`` completes immediately.

    Accepts (and ignores) ``queue_chunks``: a synchronous pool has no
    queue to bound and applies backpressure by blocking the caller.  It
    refuses ``shed_capacity`` and ``checkpoint_interval`` with a
    :class:`ServiceError` rather than drop them; the async, mp and net
    executors honour both.  A configured ``checkpoint_store`` is
    honoured — :meth:`checkpoint` on demand and one final snapshot on a
    draining :meth:`stop`.
    """

    def __init__(self, miner: ShardedMiner, *,
                 checkpoint_store: CheckpointStore | None = None,
                 queue_chunks: int | None = None,
                 shed_capacity: int | None = None,
                 checkpoint_interval: float | None = None):
        for name, value in (("shed_capacity", shed_capacity),
                            ("checkpoint_interval", checkpoint_interval)):
            if value is not None:
                raise ServiceError(
                    f"the inline executor does not support {name}; the "
                    "async, mp and net executors do")
        self.miner = miner
        self.checkpoint_store = checkpoint_store
        self._started = False

    @property
    def metrics(self) -> ServiceMetrics:
        """Live metrics snapshot of the wrapped pool."""
        return self.miner.metrics.snapshot()

    async def start(self) -> None:
        if self._started:
            raise ServiceError("service already started")
        self._started = True

    async def stop(self, drain: bool = True) -> None:
        if not self._started:
            return
        if drain:
            self.miner.drain()
            if self.checkpoint_store is not None:
                self.checkpoint_store.save(self.miner.snapshot())
                self.miner.metrics.checkpoints += 1
        self._started = False

    async def __aenter__(self) -> "InlineService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def ingest(self, chunk: np.ndarray | list[float]) -> int:
        if not self._started:
            raise ServiceError("service not started")
        before = self.miner.metrics.ingested
        self.miner.ingest(chunk)
        return int(self.miner.metrics.ingested - before)

    async def drain(self, flush: bool = True) -> None:
        if not self._started:
            raise ServiceError("service not started")
        if flush:
            self.miner.drain()

    async def checkpoint(self):
        if self.checkpoint_store is None:
            raise ServiceError("no checkpoint store configured")
        path = self.checkpoint_store.save(self.miner.snapshot())
        self.miner.metrics.checkpoints += 1
        return path

    async def quantile(self, phi: float, *, fresh: bool = False) -> float:
        if fresh:
            self.miner.drain()
        return self.miner.quantile(phi)

    async def frequent_items(self, support: float, *,
                             fresh: bool = False) -> list[tuple[float, int]]:
        if fresh:
            self.miner.drain()
        return self.miner.frequent_items(support)

    async def estimate(self, value: float) -> int:
        return self.miner.estimate(value)

    async def distinct(self, *, fresh: bool = False) -> float:
        if fresh:
            self.miner.drain()
        return self.miner.distinct()

    async def answer(self, metric: str, *, fresh: bool = False, **params):
        """Metric-keyed query routing (the continuous-query seam)."""
        if fresh:
            self.miner.drain()
        return self.miner.answer(metric, **params)


def _build_inline(miner_kwargs: dict, service_kwargs: dict) -> InlineService:
    return InlineService(ShardedMiner(**miner_kwargs), **service_kwargs)


def _build_async(miner_kwargs: dict, service_kwargs: dict) -> StreamService:
    return StreamService(ShardedMiner(**miner_kwargs), **service_kwargs)


def _build_mp(miner_kwargs: dict, service_kwargs: dict) -> StreamService:
    return StreamService(MpShardedMiner(**miner_kwargs), **service_kwargs)


def _build_net(miner_kwargs: dict, service_kwargs: dict) -> StreamService:
    return StreamService(NetShardedMiner(**miner_kwargs), **service_kwargs)


_EXECUTORS: dict[str, object] = {}


def register_executor(name: str, factory, *, replace: bool = False) -> None:
    """Register ``factory(miner_kwargs, service_kwargs) -> service``.

    The returned object must speak the :class:`StreamService` coroutine
    surface (``start/stop/ingest/drain`` + the query methods) and expose
    the pool as ``.miner``.
    """
    if name in _EXECUTORS and not replace:
        raise ServiceError(f"executor {name!r} already registered")
    _EXECUTORS[name] = factory


def registered_executors() -> tuple[str, ...]:
    """Sorted names the ``--executor`` flag accepts."""
    return tuple(sorted(_EXECUTORS))


def resolve_executor(name: str):
    """The factory registered under ``name``."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ServiceError(
            f"unknown executor {name!r}; registered executors: "
            f"{', '.join(registered_executors())}") from None


register_executor("inline", _build_inline)
register_executor("async", _build_async)
register_executor("mp", _build_mp)
register_executor("net", _build_net)
