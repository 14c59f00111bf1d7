"""Multiprocess shard executor: one worker process per shard.

:class:`ShardedMiner` fans shards out across *threads* of one process,
so all sorting and summarising still serialises on the GIL — the exact
serial bottleneck the paper escapes by moving comparator work onto
parallel hardware.  :class:`MpShardedMiner` is the process-parallel
sibling: each shard's :class:`~repro.core.engine.StreamMiner` lives in
its own worker process, and queries gather the per-shard estimator
states and merge them in the parent — the same merge-on-query algebra,
so every combined error bound carries over unchanged.

The pool surface, the ack/replay protocol, supervision and the worker
loop are the shared worker-pool engine
(:class:`~repro.service.worker_pool.WorkerPool`, DESIGN.md §12).  This
module keeps only the transport: a duplex pipe per worker plus a
shared-memory ring (:mod:`repro.service.shm_ring`) — a batch rides the
ring as an ``(offset, length)`` body on the pipe, a batch at or below
``policies.small_batch_elements`` (or larger than the ring) is pickled
onto the pipe — and the ring-full backpressure: with every slot live,
a dispatch blocks on acks until one frees.  A shard whose restart
budget runs out fails for good (fail-stop); queries and snapshots then
raise :class:`~repro.errors.ShardFailedError`.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ServiceError
from .shm_ring import ShmRing
from .worker_pool import ShardLink, ShardWorker, WorkerPool, _WorkerDied

__all__ = ["MpShardedMiner"]

#: Per-shard shared-memory arena, in float32 elements.
RING_CAPACITY = 1 << 20


def _worker_main(shard_id: int, conn, ring_name: str, config: dict) -> None:
    """One shard's process: build the miner, serve the pipe in order."""
    ring = None

    def decode(body) -> np.ndarray:
        if isinstance(body, tuple):
            # Copy out of the ring before touching the engine: the
            # windower *keeps* references, and the parent recycles the
            # slots as soon as this batch is acknowledged.
            return np.array(ring.view(*body))
        return np.asarray(body, dtype=np.float32).ravel()

    try:
        ring = ShmRing.attach(ring_name, RING_CAPACITY)
        worker = ShardWorker(shard_id, config)
        conn.send(("ready", int(worker.miner.window_size)))
        worker.serve(conn.recv, conn.send, decode)
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return
    except Exception as exc:  # pragma: no cover - supervised restart path
        try:
            conn.send(("fatal", repr(exc)))
        except OSError:
            pass
        raise
    finally:
        if ring is not None:
            ring.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class MpShardedMiner(WorkerPool):
    """Process-pool drop-in for :class:`ShardedMiner`.

    Parameters are :class:`~repro.service.worker_pool.WorkerPool`'s
    (``policies.small_batch_elements`` sets the pipe/ring cutover).
    """

    def _open_transport(self) -> None:
        for link in self._links:
            link.ring = ShmRing(RING_CAPACITY)

    def _resources(self) -> list:
        return [link.ring for link in self._links]

    def _spawn(self, link: ShardLink) -> None:
        link.ring.reset()  # a fresh worker starts on an empty ring
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(link.shard_id, child_conn, link.ring.name,
                  self._worker_config(link)),
            name=f"repro-shard-{link.shard_id}", daemon=True)
        proc.start()
        child_conn.close()
        link.proc, link.conn = proc, parent_conn

    def _await_ready(self, link: ShardLink) -> None:
        deadline = time.monotonic() + self.policies.ready_timeout
        while True:
            try:
                if link.conn.poll(0.1):
                    message = link.conn.recv()
                    if message[0] == "ready":
                        link.window_size = int(message[1])
                        return
                    if message[0] == "fatal":
                        raise ServiceError(
                            f"shard {link.shard_id} worker failed to "
                            f"start: {message[1]}")
                    continue  # pragma: no cover - unexpected preamble
            except (EOFError, OSError) as exc:
                raise ServiceError(
                    f"shard {link.shard_id} worker died during "
                    f"startup: {exc!r}") from exc
            if not link.proc.is_alive():
                raise ServiceError(
                    f"shard {link.shard_id} worker exited during startup "
                    f"with code {link.proc.exitcode}")
            if time.monotonic() > deadline:  # pragma: no cover
                raise ServiceError(
                    f"shard {link.shard_id} worker not ready after "
                    f"{self.policies.ready_timeout:.0f}s")

    def _send(self, link: ShardLink, message) -> None:
        try:
            link.conn.send(message)
        except (OSError, ValueError) as exc:
            raise _WorkerDied(exc) from exc

    def _receive(self, link: ShardLink, timeout: float):
        try:
            if link.conn.poll(timeout):
                return link.conn.recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(exc) from exc
        self._check_alive(link)
        return None

    def _frame(self, link: ShardLink, arr: np.ndarray):
        shard = self.metrics.shards[link.shard_id]
        segment = None
        if self.policies.small_batch_elements < arr.size \
                <= link.ring.capacity:
            segment = link.ring.try_write(arr)
            while segment is None and link.ring.live_segments:
                # Ring full: block on acks until slots free (this is the
                # executor's backpressure — the queue above it is bounded
                # and the replay log tracks the same entries).
                if link.failed is not None:
                    raise link.failed
                self._wait_one_message(link, self._POLL)
                segment = link.ring.try_write(arr)
        if segment is not None:
            shard.shm_batches += 1
            return segment, segment
        # Tiny batch, or one larger than the whole ring: pickle it.
        shard.pickle_batches += 1
        return arr, None

    def _release(self, link: ShardLink, segment: tuple[int, int]) -> None:
        link.ring.free(*segment)
