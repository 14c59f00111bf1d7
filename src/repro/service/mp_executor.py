"""Multiprocess shard executor: one worker process per shard.

:class:`ShardedMiner` fans shards out across *threads* of one process,
so all sorting and summarising still serialises on the GIL — the exact
serial bottleneck the paper escapes by moving comparator work onto
parallel hardware.  :class:`MpShardedMiner` is the process-parallel
sibling: each shard's :class:`~repro.core.engine.StreamMiner` lives in
its own worker process, and queries gather the per-shard estimator
states and merge them in the parent — the same merge-on-query algebra,
so every combined error bound carries over unchanged.

The pool surface, the ack/replay protocol, the in-flight window,
supervision and the worker loop are the shared worker-pool engine
(:class:`~repro.service.worker_pool.WorkerPool`, DESIGN.md §12).  This
module keeps only the transport: a duplex pipe per worker, onto which
every message, batches included, is pickled.  A shard whose restart
budget runs out fails for good (fail-stop); queries and snapshots then
raise :class:`~repro.errors.ShardFailedError`.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ServiceError
from .worker_pool import ShardLink, ShardWorker, WorkerPool, _WorkerDied

__all__ = ["MpShardedMiner"]


def _worker_main(shard_id: int, conn, config: dict) -> None:
    """One shard's process: build the miner, serve the pipe in order."""
    try:
        worker = ShardWorker(shard_id, config)
        conn.send(("ready", int(worker.miner.window_size)))
        worker.serve(conn.recv, conn.send)
    except (EOFError, OSError, KeyboardInterrupt):  # parent went away
        return
    except Exception as exc:  # pragma: no cover - supervised restart path
        try:
            conn.send(("fatal", repr(exc)))
        except OSError:
            pass
        raise
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class MpShardedMiner(WorkerPool):
    """Process-pool drop-in for :class:`ShardedMiner`.

    Parameters are :class:`~repro.service.worker_pool.WorkerPool`'s.
    """

    def _spawn(self, link: ShardLink) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(link.shard_id, child_conn, self._worker_config(link)),
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
        self.metrics.shards[link.shard_id].pickle_batches += 1
        return arr
