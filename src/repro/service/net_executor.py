"""Network shard executor: the worker-pool protocol over TCP.

:class:`NetShardedMiner` runs the shared worker-pool engine
(:class:`~repro.service.worker_pool.WorkerPool`: per-shard sequence
numbers, in-order acks, bounded replay log, supervised restarts —
DESIGN.md §12) over framed TCP channels
(:mod:`repro.service.net_transport`), which buys three things pipes
cannot give:

* **failure-domain isolation** — a worker and its parent share no OS
  resources beyond the socket, so the failure modes of a real
  deployment (connection loss, partition, reordering, silent peer
  death) all exist and are all handled explicitly;
* **a deadline/heartbeat/reconnect protocol** — every framed send and
  request round-trip carries a deadline; an idle worker heartbeats its
  ``applied`` watermark; a worker that loses its connection re-dials
  with jittered backoff, re-hellos, and the parent resumes it from the
  replay log.  The engine's two sequence spaces keep this safe: the
  worker re-acks replayed batches below its watermark, and a request
  frame lost to the network is re-issued under a fresh id after
  ``io_deadline`` instead of hanging behind a heartbeat-quiet worker;
* **elastic degradation** — when a shard exhausts reconnects *and* its
  restart budget, the pool can *take over* its keyspace instead of
  failing it: the last snapshot's estimator joins the ``retired`` ghost
  list (merge-on-query folds it in forever), the snapshot's buffered
  elements and the replay log's batches are re-routed to survivors, and
  the partitioner routes the dead shard's values elsewhere.  No
  acknowledged element is lost, and the served bounds degrade from
  "bit-identical" to the ordinary merge bounds (see
  :class:`~repro.service.sharded.ShardPool`).  With
  ``policies.takeover`` off the shard fails for good, as under mp.

Fault injection is parent-side only
(:class:`~repro.service.net_transport.NetFaultInjector`): workers
experience injected drops/partitions as disconnects — exactly what the
reconnect protocol must absorb.
"""

from __future__ import annotations

import time
import uuid

import numpy as np

from ..core.distinct.kmv import hash_values
from ..errors import ServiceError, ShardFailedError
from ..obs import collector
from .net_transport import (ChannelClosed, ChannelTimeout, FrameChannel,
                            Listener, NetFaultInjector, NetFaultPlan, connect)
from .worker_pool import ShardLink, ShardWorker, WorkerPool, _WorkerDied

__all__ = ["NetShardedMiner"]


def _decode(body) -> np.ndarray:
    return np.asarray(body, dtype=np.float32).ravel()


def _net_worker_main(shard_id: int, host: str, port: int, token: str,
                     config: dict) -> None:
    """One shard's process: dial the pool, serve commands, survive
    disconnects by re-dialing and resuming from ``applied``."""
    policies = config["policies"]
    worker = ShardWorker(shard_id, config)
    rng = np.random.default_rng((2005, shard_id, 101))
    attempt = 0
    chan = None

    def recv():
        while True:
            try:
                return chan.recv(timeout=policies.heartbeat_interval)
            except ChannelTimeout:
                # Nothing inbound: prove liveness with the watermark.
                send(("hb", worker.applied))

    def send(message) -> None:
        chan.send(message, timeout=policies.io_deadline)

    try:
        while True:
            try:
                chan = connect(host, port, policies.connect_timeout)
            except ChannelClosed:
                attempt += 1
                if attempt >= policies.reconnect.max_attempts:
                    return  # parent is gone for good
                time.sleep(policies.reconnect.delay(attempt, rng))
                continue
            attempt = 0
            worker.stash.clear()
            try:
                send(("hello", shard_id, token, worker.applied,
                      int(worker.miner.window_size)))
                worker.serve(recv, send, _decode)
                return  # clean stop
            except (ChannelClosed, ChannelTimeout):
                chan.close()
                continue  # re-dial; miner state is intact
    except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
        return
    except Exception as exc:  # pragma: no cover - supervised restart path
        try:
            chan.send(("fatal", repr(exc)), timeout=5.0)
        except (ChannelClosed, ChannelTimeout, AttributeError):
            pass
        raise


class NetShardedMiner(WorkerPool):
    """Network drop-in for :class:`~repro.service.sharded.ShardedMiner`.

    Parameters are :class:`~repro.service.worker_pool.WorkerPool`'s;
    the extras are:

    net_fault_plan:
        A :class:`~repro.service.net_transport.NetFaultPlan` injected on
        the parent side of every channel (deterministic network chaos:
        drops, delays, reorders, partitions).
    host:
        Listener bind address (default loopback — workers are local
        processes; the protocol itself is location-transparent).

    :class:`~repro.service.policies.ServicePolicies` also supplies the
    net-only settings: ``heartbeat_interval``, ``liveness_timeout``,
    ``io_deadline``, ``connect_timeout``, ``reconnect`` (worker re-dial
    backoff), ``reconnect_deadline`` (how long the parent waits for a
    re-dial before a supervised restart), ``max_inflight_batches``
    (backpressure window) and ``takeover`` (degrade to survivors
    instead of failing).
    """

    _POLL = 0.05

    def __init__(self, *args, net_fault_plan: NetFaultPlan | None = None,
                 host: str = "127.0.0.1", **kwargs):
        self.net_fault_plan = net_fault_plan
        self._host = host
        super().__init__(*args, **kwargs)

    def _open_transport(self) -> None:
        #: pool identity: hellos must present it, so a stray dialer (or
        #: a worker from a previous pool on a recycled port) is refused.
        self._token = uuid.uuid4().hex
        self._injector = (NetFaultInjector(self.net_fault_plan)
                          if self.net_fault_plan is not None else None)
        self._listener = Listener(self._host, 0, injector=self._injector)
        #: survivor rotation for non-value-routed takeover traffic.
        self._reroute_cursor = 0

    def _resources(self) -> list:
        return [self._listener]

    def _reshard_kwargs(self) -> dict:
        return {**super()._reshard_kwargs(),
                "net_fault_plan": self.net_fault_plan, "host": self._host}

    # ------------------------------------------------------------------
    # worker lifecycle: spawn, hello/attach
    # ------------------------------------------------------------------
    def _spawn(self, link: ShardLink) -> None:
        proc = self._ctx.Process(
            target=_net_worker_main,
            args=(link.shard_id, self._listener.address[0],
                  self._listener.address[1], self._token,
                  self._worker_config(link)),
            name=f"repro-net-shard-{link.shard_id}", daemon=True)
        proc.start()
        link.proc = proc
        link.proc_sessions = 0

    def _pump_listener(self) -> None:
        """Attach any pending worker (re)connections to their links."""
        while True:
            chan = self._listener.accept(0.0)
            if chan is None:
                return
            try:
                hello = chan.recv(timeout=self.policies.io_deadline)
            except (ChannelClosed, ChannelTimeout):
                chan.close()
                continue
            self._attach(chan, hello)

    def _attach(self, chan: FrameChannel, hello) -> None:
        if not (isinstance(hello, tuple) and len(hello) == 5
                and hello[0] == "hello"):
            chan.close()
            return
        _, shard_id, token, applied, window_size = hello
        if token != self._token or not 0 <= shard_id < self.num_shards:
            chan.close()
            return
        link = self._links[shard_id]
        if link.taken_over or link.failed is not None:
            chan.close()
            return
        self._disconnect(link)
        link.conn = chan
        link.window_size = int(window_size)
        link.proc_sessions += 1
        if link.proc_sessions > 1:
            self.metrics.shards[shard_id].reconnects += 1
        # Every fresh connection resumes from the replay log; for the
        # first connection of a fresh pool the log is simply empty.
        link.needs_replay = True
        link.last_recv = time.monotonic()

    def _await_ready(self, link: ShardLink) -> None:
        deadline = time.monotonic() + self.policies.ready_timeout
        while link.conn is None:
            self._pump_listener()
            if link.conn is not None:
                break
            if link.proc is None or not link.proc.is_alive():
                raise ServiceError(
                    f"shard {link.shard_id} worker exited during startup "
                    f"with code "
                    f"{link.proc.exitcode if link.proc else None}")
            if time.monotonic() > deadline:  # pragma: no cover
                raise ServiceError(
                    f"shard {link.shard_id} worker did not dial in within "
                    f"{self.policies.ready_timeout:.0f}s")
            time.sleep(0.005)

    # ------------------------------------------------------------------
    # framing, deadlines, liveness
    # ------------------------------------------------------------------
    def _send(self, link: ShardLink, message) -> None:
        if link.conn is None:
            raise _WorkerDied(RuntimeError(
                f"shard {link.shard_id} has no connection"))
        try:
            link.conn.send(message, timeout=self.policies.io_deadline)
        except ChannelTimeout as exc:
            self.metrics.shards[link.shard_id].deadline_timeouts += 1
            raise _WorkerDied(exc) from exc
        except ChannelClosed as exc:
            raise _WorkerDied(exc) from exc

    def _receive(self, link: ShardLink, timeout: float):
        self._pump_listener()
        if link.needs_replay and link.conn is not None:
            self._replay(link)
        if link.conn is None:
            raise _WorkerDied(RuntimeError(
                f"shard {link.shard_id} has no connection"))
        try:
            # A zero timeout polls: with nothing ready it is a timed-out
            # receive.  Once a frame has begun to arrive, the 2 ms floor
            # lets it drain (a zero deadline would expire before the
            # socket is read even once).
            if timeout <= 0 and not link.conn.ready():
                raise ChannelTimeout("nothing ready")
            message = link.conn.recv(timeout=max(timeout, 0.002))
        except ChannelTimeout:
            self._check_alive(link)
            idle = time.monotonic() - max(link.last_recv, link.wait_anchor)
            if idle > self.policies.liveness_timeout:
                self.metrics.shards[link.shard_id].deadline_timeouts += 1
                raise _WorkerDied(RuntimeError(
                    f"shard {link.shard_id} silent for {idle:.1f}s "
                    f"(liveness timeout "
                    f"{self.policies.liveness_timeout:.1f}s)"))
            return None
        except ChannelClosed as exc:
            raise _WorkerDied(exc) from exc
        link.last_recv = time.monotonic()
        return message

    def _frame(self, link: ShardLink, arr: np.ndarray):
        self.metrics.shards[link.shard_id].net_batches += 1
        return arr, None

    def _admit(self, link: ShardLink) -> None:
        # Backpressure: bound the unacknowledged window.
        while len(link.pending) >= self.policies.max_inflight_batches:
            self._wait_one_message(link, self._POLL)

    def _request_deadline(self) -> float:
        # The worker heartbeats, so liveness alone would never notice a
        # request frame swallowed by injected reordering.
        return time.monotonic() + self.policies.io_deadline

    # ------------------------------------------------------------------
    # re-dial and keyspace takeover
    # ------------------------------------------------------------------
    def _await_redial(self, link: ShardLink) -> bool:
        """Wait out ``reconnect_deadline`` for the live worker to re-dial
        (it keeps its miner, so resuming costs one replay of the unacked
        suffix).  False once nobody is left to re-dial."""
        self._disconnect(link)
        deadline = time.monotonic() + self.policies.reconnect_deadline
        while time.monotonic() < deadline:
            self._pump_listener()
            if link.conn is not None:
                try:
                    self._replay(link)
                    return True
                except _WorkerDied as died:
                    self.metrics.shards[link.shard_id].last_error = repr(
                        died.cause)
                    self._disconnect(link)
                    continue
            if link.proc is None or not link.proc.is_alive():
                break  # go supervise
            time.sleep(0.01)
        return False

    def _take_over(self, link: ShardLink, cause) -> bool:
        """Reassign a dead shard's keyspace to the survivors.

        The last snapshot's estimator becomes a ghost (its history joins
        every future merge); the snapshot's buffered elements plus the
        replay log's batches — everything accepted but not yet in that
        estimator — are re-routed to surviving shards.  No acknowledged
        element is lost; the bit-identical guarantee degrades to the
        ordinary merge bounds.  Declined (False) with ``takeover`` off
        or no survivor left.
        """
        survivors = [other for other in self._links
                     if other is not link and not other.taken_over
                     and other.failed is None]
        if not (self.policies.takeover and survivors):
            return False
        shard = self.metrics.shards[link.shard_id]
        link.taken_over = True
        link.failed = None
        shard.taken_over = True
        shard.healthy = False
        shard.last_error = repr(cause)
        self._cleanup_worker(link)
        carry: list[np.ndarray] = []
        if link.snap is not None:
            miner_state = link.snap["miner"]
            self.retired.append(dict(miner_state["estimator"]))
            buffered = list(miner_state.get("buffer", []))
            for window in miner_state.get("pending_windows", []):
                buffered.extend(window)
            if buffered:
                carry.append(np.asarray(buffered, dtype=np.float32))
        carry.extend(arr for _, kind, arr in link.replay if kind == "batch")
        link.replay = []
        link.pending.clear()
        link.results.clear()
        link.snap = None
        if hasattr(self.partitioner, "mark_dead"):
            self.partitioner.mark_dead(link.shard_id)
        col = collector()
        if col.enabled:
            col.record("service.takeover", 0.0, shard=link.shard_id,
                       carried=int(sum(arr.size for arr in carry)),
                       survivors=len(self._live_links()))
        for arr in carry:
            self._reroute(arr)
        return True

    def _reroute(self, values: np.ndarray) -> None:
        """Dispatch elements that belonged to a taken-over shard."""
        arr = np.ascontiguousarray(
            np.asarray(values, dtype=np.float32).ravel())
        if arr.size == 0:
            return
        alive = [other for other in self._links
                 if not other.taken_over and other.failed is None]
        if not alive:
            raise ShardFailedError(
                -1, "every shard is failed or taken over")
        if self.statistic == "frequency":
            if hasattr(self.partitioner, "mark_dead"):
                # The partitioner already routes around dead shards:
                # re-split and dispatch normally.
                parts = self.partitioner.split(arr)
                for shard_id, part in enumerate(parts):
                    if part.size == 0:
                        continue
                    target = self._links[shard_id]
                    if target.taken_over or target.failed is not None:
                        self._failover_dispatch(part, alive)
                    else:
                        self._dispatch_link(target, part)
            else:
                self._failover_dispatch(arr, alive)
        else:
            # Order-insensitive statistics: spread over survivors.
            target = alive[self._reroute_cursor % len(alive)]
            self._reroute_cursor += 1
            self._dispatch_link(target, arr)

    def _failover_dispatch(self, arr: np.ndarray, alive: list) -> None:
        """Value-affine routing over the survivor list (plain-hash
        partitioners cannot re-route internally, so the pool hashes the
        values onto the alive set itself — deterministically)."""
        seed = int(getattr(self.partitioner, "seed", 1)) + 7919
        slots = hash_values(arr, seed) * len(alive)
        idx = np.minimum(slots.astype(np.int64), len(alive) - 1)
        for i, target in enumerate(alive):
            part = arr[idx == i]
            if part.size:
                self._dispatch_link(target, part)
