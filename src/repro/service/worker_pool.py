"""The worker-pool engine shared by the ``mp`` and ``net`` executors.

Both executors run each shard's :class:`~repro.core.engine.StreamMiner`
in its own worker process and speak one protocol to it (DESIGN.md
§12–13); they differ only in the transport that carries the messages.
:class:`WorkerPool` owns everything but the transport:

* the parent-side link record (:class:`ShardLink`) and the ack/replay
  protocol.  Batches and flushes carry contiguous per-shard stream
  sequence numbers; the worker applies them strictly in order
  (stashing early arrivals, re-acking duplicates below its ``applied``
  watermark) and acknowledges each with its element count, busy
  seconds, resilience-counter deltas and (when tracing) aggregated
  spans.  Acks fold into the metrics once each, behind a contiguous
  ``counted`` watermark, so replayed work is never double-counted.
  State/snapshot/stop requests use a separate id space: they are only
  issued on a settled link and re-issued under a fresh id after a
  failure, so a lost request can never wedge the stream behind a gap;
* settle, request, the periodic worker snapshot (every
  ``policies.snapshot_every`` acks) that becomes the restart point and
  truncates the replay log, dispatch, drain, supervised
  restart-and-replay and close.  A worker death respawns the worker
  from the last snapshot and re-sends the replay log with the *same*
  sequence numbers; past ``policies.max_restarts`` the shard fails
  with :class:`~repro.errors.ShardFailedError` — or, where the
  transport takes over (net), its keyspace moves to the survivors;
* the worker side (:class:`ShardWorker`): one shard build, one guarded
  step under the same :class:`~repro.service.resilience.ShardGuard`
  policy as the in-process pool, and one state/snapshot/stop loop.

Backpressure is one window for both transports: a dispatch blocks on
acks while ``policies.max_inflight_batches`` batches are unacknowledged
on its link.  That also caps the acks a worker can queue behind a
parent blocked writing to it, so a full pipe or socket cannot deadlock
the two writers.

A transport subclass moves the messages: ``_spawn``, ``_await_ready``,
``_send``, ``_receive`` and ``_frame``, plus the optional
``_open_transport``, ``_resources``, ``_await_redial`` and
``_take_over`` steps.  :class:`~repro.service.mp_executor.MpShardedMiner`
pickles every message onto a pipe;
:class:`~repro.service.net_executor.NetShardedMiner` frames it over TCP.

Determinism: per-shard element sequences come from the same
partitioner code, workers process commands strictly in order, and
sorting/summarising are pure functions of the windows — so answers are
bit-identical to the inline pool over the same stream (asserted by
``tests/service/test_mp_equivalence.py``).
"""

from __future__ import annotations

import multiprocessing
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from threading import RLock

import numpy as np

from ..core.engine import EngineReport, StreamMiner
from ..core.estimators import estimator_from_state
from ..errors import ServiceError, ShardFailedError
from ..obs import collecting, collector
from .metrics import ShardMetrics
from .sharded import ShardPool, shard_device, shard_guard


class _WorkerDied(Exception):
    """Internal: the shard's worker (or its link) is gone; supervise it."""

    def __init__(self, cause):
        super().__init__(repr(cause))
        self.cause = cause


@dataclass
class ShardLink:
    """Parent-side bookkeeping for one worker."""

    shard_id: int
    lock: RLock = field(default_factory=RLock)
    proc: multiprocessing.Process | None = None
    #: the transport endpoint (a pipe connection or a TCP frame channel).
    conn: object | None = None
    window_size: int = 0
    next_seq: int = 0
    next_req: int = 0
    #: highest batch/flush sequence sent (requests have their own ids).
    sent: int = 0
    #: highest sequence acknowledged on the current worker connection.
    acked: int = 0
    #: contiguous metrics watermark (acks can arrive out of order over
    #: TCP with injected reordering; ``counted_extra`` holds counted
    #: sequences above the watermark until the gap closes).
    counted: int = 0
    counted_extra: set = field(default_factory=set)
    #: seq -> element count of unacknowledged work (the backpressure
    #: window and the loss accounting).
    pending: dict = field(default_factory=dict)
    #: (seq, kind, float32 array | None) entries since the last snapshot.
    replay: list = field(default_factory=list)
    #: last worker snapshot ({"miner": state}) — the restart point.
    snap: dict | None = None
    #: sequence watermark the snapshot covers.
    snap_seq: int = 0
    acks_since_snap: int = 0
    results: dict = field(default_factory=dict)
    failed: ShardFailedError | None = None
    #: True once this shard's keyspace was reassigned to survivors (net).
    taken_over: bool = False
    #: the next attached connection must be fed the replay log first.
    needs_replay: bool = False
    #: hellos seen from the *current* worker process (>1 == reconnect).
    proc_sessions: int = 0
    #: monotonic time of the last frame received (liveness input).
    last_recv: float = 0.0
    #: monotonic time the current parent-side wait began (so liveness
    #: measures silence *during a wait*, not since some old activity).
    wait_anchor: float = 0.0


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _report_state(report: EngineReport) -> dict:
    return {"backend": report.backend, "statistic": report.statistic,
            "elements": int(report.elements), "windows": int(report.windows),
            "wall": dict(report.wall), "modelled": dict(report.modelled)}


def _pack_spans(spans) -> list:
    """Aggregate leaf spans by name for the ack payload.

    Per-span shipping would dominate the link for GPU workloads (one
    span per rendering pass); the parent only needs totals, so this
    sums wall seconds, counts, and numeric attributes per name.
    """
    packed: dict[str, list] = {}
    for span in spans:
        slot = packed.setdefault(span.name, [0.0, 0, {}])
        slot[0] += span.wall
        slot[1] += 1
        for key, value in span.attrs.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                slot[2][key] = value
            else:
                slot[2][key] = slot[2].get(key, 0) + value
    return [(name, wall, count, attrs)
            for name, (wall, count, attrs) in packed.items()]


class ShardWorker:
    """One shard inside its worker process: a miner under its guard.

    ``config`` comes from :meth:`WorkerPool._worker_config`: the pool's
    miner spec, fault plan and policies, the restart point to boot from
    and the stream sequence that restart point covers.
    """

    def __init__(self, shard_id: int, config: dict):
        spec = config["spec"]
        device = shard_device(spec["backend"], config["fault_plan"],
                              shard_id)
        snap = config["snapshot"]
        if snap is not None:
            self.miner = StreamMiner.from_snapshot(
                snap["miner"], backend=spec["backend"], device=device)
        else:
            self.miner = StreamMiner(device=device, **spec)
        self.guard = shard_guard(shard_id, self.miner, config["policies"],
                                 ShardMetrics(shard_id))
        #: highest stream sequence applied.  It survives reconnects, so
        #: replayed work this miner already summarised is re-acked, not
        #: re-applied.
        self.applied = int(config["applied"])
        #: out-of-order stream messages waiting for their predecessors.
        self.stash: dict[int, tuple] = {}
        self._reported = {"faults": 0, "retries": 0, "degraded_batches": 0}

    def serve(self, recv, send) -> None:
        """Answer one connection's commands until the pool says stop.

        ``recv()`` / ``send(message)`` move one message; a batch's body
        is the float32 array the parent sent.
        """
        while True:
            message = recv()
            kind = message[0]
            if kind in ("batch", "flush"):
                seq = message[1]
                if seq <= self.applied:
                    # Replayed work whose ack was lost with an old
                    # connection: re-ack synthetically so the parent's
                    # watermark catches up.
                    elements = message[3].size if kind == "batch" else 0
                    send(("ack", seq, kind == "batch", elements, 0.0,
                          self._counter_delta(), []))
                    continue
                self.stash[seq] = message
                while self.applied + 1 in self.stash:
                    self.applied += 1
                    send(self._step(self.stash.pop(self.applied)))
            elif kind == "state":
                send(("result", message[1], {
                    "estimator": self.miner.estimator.to_state(),
                    "processed": self.miner.processed,
                    "buffered": int(self.miner.buffered),
                    "report": _report_state(self.miner.report)}))
            elif kind == "snapshot":
                send(("result", message[1], self.miner.snapshot()))
            elif kind == "stop":
                send(("result", message[1], None))
                return
            else:  # pragma: no cover - protocol error
                raise ServiceError(f"unknown command {kind!r}")

    def _step(self, message) -> tuple:
        """Apply one in-order batch/flush; returns its (negative) ack."""
        kind, seq, trace = message[0], message[1], message[2]
        arr = message[3] if kind == "batch" else None
        elements = int(arr.size) if arr is not None else 0
        # CPU time, not wall: the worker loop is single-threaded, so the
        # process_time delta is exactly the compute this step consumed.
        # Wall would also bill the time *other* workers held the core on
        # an oversubscribed box, inflating update_seconds with contention
        # and breaking the one-core-per-worker scaling model the
        # benchmark applies to these numbers.
        began = time.process_time()
        spans: list = []
        try:
            if trace:
                with collecting() as col:
                    self._run(arr)
                spans = _pack_spans(col.snapshot())
            else:
                self._run(arr)
        except ShardFailedError as exc:
            return ("error", seq, repr(exc))
        busy = time.process_time() - began
        if kind == "batch" and trace:
            spans.append(("service.dispatch", busy, 1, {"elements": elements}))
        return ("ack", seq, kind == "batch", elements, busy,
                self._counter_delta(), spans)

    def _run(self, arr) -> None:
        if arr is not None:
            # Same split as ShardedMiner.dispatch: buffering cannot
            # fault, the pump is transactional and retried by the guard.
            self.miner.buffer_chunk(arr)
            self.guard.run(self.miner.pump)
        else:
            self.guard.run(self.miner.flush)

    def _counter_delta(self) -> dict:
        """Resilience-counter movement since the previous ack."""
        metrics, delta = self.guard.metrics, {}
        for name in ("faults", "retries", "degraded_batches"):
            value = int(getattr(metrics, name))
            delta[name] = value - self._reported[name]
            self._reported[name] = value
        delta["breaker_state"] = metrics.breaker_state
        delta["last_error"] = metrics.last_error
        return delta


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _RemoteShard:
    """One worker's settled ``state`` payload, shaped like the
    in-process miner the pool's query surface reads."""

    def __init__(self, payload: dict):
        self._payload = payload
        self.processed = int(payload["processed"])
        self.buffered = int(payload["buffered"])

    @cached_property
    def estimator(self):
        return estimator_from_state(self._payload["estimator"])

    @property
    def report(self) -> EngineReport:
        raw = self._payload["report"]
        report = EngineReport(raw["backend"], raw["statistic"],
                              elements=int(raw["elements"]),
                              windows=int(raw["windows"]))
        report.wall.update(raw["wall"])
        report.modelled.update(raw["modelled"])
        return report


def _release_links(links, resources) -> None:
    """GC/exit safety net: reap workers, close the transport."""
    for link in links:
        proc = link.proc
        if proc is not None and proc.is_alive():
            proc.terminate()
        WorkerPool._disconnect(link)
    for resource in resources:
        resource.close()


class WorkerPool(ShardPool):
    """A :class:`~repro.service.sharded.ShardPool` whose shards live in
    worker processes, one per shard.

    Parameters are :class:`~repro.service.sharded.ShardPool`'s plus:

    mp_context:
        ``multiprocessing`` start method (default ``"spawn"`` — immune
        to inherited locks/threads; workers re-import the package).
    shard_states:
        Internal (used by :meth:`from_snapshot`): per-shard restore
        points the workers boot from.

    The backend must be a registered backend *name*: it is shipped to
    the worker processes.
    """

    #: seconds one receive waits before re-checking worker liveness.
    _POLL = 0.2

    def __init__(self, *args, mp_context: str = "spawn",
                 shard_states: list[dict] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self._miner_spec["backend"], str):
            raise ServiceError(
                "worker pools ship the backend name to worker processes; "
                "pass a registered backend name, not an object")
        self._ctx = multiprocessing.get_context(mp_context)
        self._closed = False
        self._links = [ShardLink(shard_id)
                       for shard_id in range(self.num_shards)]
        for link, state in zip(self._links, shard_states or ()):
            link.snap = state
        self._open_transport()
        self._rebind_finalizer()
        try:
            for link in self._links:
                self._spawn(link)
            for link in self._links:
                self._await_ready(link)
        except BaseException:
            self.close()
            raise

    def _worker_config(self, link: ShardLink) -> dict:
        return {"spec": self._miner_spec, "fault_plan": self.fault_plan,
                "policies": self.policies, "snapshot": link.snap,
                "applied": link.snap_seq}

    def _open_transport(self) -> None:
        """Transport step: set up what every link shares, before spawning."""

    def _resources(self) -> list:
        """Transport step: what :meth:`close` closes after the workers."""
        return []

    # ------------------------------------------------------------------
    # the shards a query reads
    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """The shard pipelines' window width (largest across shards)."""
        return max(link.window_size for link in self._links)

    def _live_links(self) -> list[ShardLink]:
        return [link for link in self._links if not link.taken_over]

    def _shards(self) -> list[_RemoteShard]:
        """Settled per-shard states (the merge-on-query feed)."""
        return [_RemoteShard(self._request(link, "state"))
                for link in self._live_links()]

    def _fresh_miner_state(self) -> dict:
        """An empty per-shard miner state (the snapshot slot of a shard
        whose history lives on in ``retired``)."""
        return StreamMiner(**{**self._miner_spec,
                              "backend": "cpu"}).snapshot()

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def _shard_snapshots(self) -> list[dict]:
        """Each shard's state from its settled worker (a fresh restart
        point too); a taken-over shard contributes an empty slot."""
        return [self._fresh_miner_state() if link.taken_over
                else self._checkpoint(link) for link in self._links]

    @classmethod
    def _from_shards(cls, shard_states: list[dict], *args, **kwargs):
        # Worker processes boot directly from their shard's restore point.
        return cls(*args, shard_states=shard_states, **kwargs)

    def _checkpoint(self, link: ShardLink) -> dict:
        """Cut a restart point: snapshot the worker, truncate the replay
        log.  Returns the worker's miner state."""
        with link.lock:
            state = self._request(link, "snapshot")
            if not link.taken_over:  # a racing takeover keeps its ghost
                link.snap = {"miner": state}
                link.snap_seq = link.sent
                link.replay = [entry for entry in link.replay
                               if entry[0] > link.snap_seq]
                link.acks_since_snap = 0
            return state

    def _maybe_snapshot(self, link: ShardLink) -> None:
        if (not link.taken_over
                and link.acks_since_snap >= self.policies.snapshot_every):
            self._checkpoint(link)

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    @staticmethod
    def _disconnect(link: ShardLink) -> None:
        if link.conn is not None:
            try:
                link.conn.close()
            except OSError:  # pragma: no cover
                pass
            link.conn = None

    def _cleanup_worker(self, link: ShardLink) -> None:
        self._disconnect(link)
        if link.proc is not None:
            if link.proc.is_alive():
                link.proc.terminate()
            link.proc.join(timeout=10.0)
        link.proc = None

    def _check_alive(self, link: ShardLink) -> None:
        if link.proc is None or not link.proc.is_alive():
            code = link.proc.exitcode if link.proc is not None else None
            raise _WorkerDied(RuntimeError(
                f"shard {link.shard_id} worker exited with code {code}"))

    def _restart(self, link: ShardLink, cause) -> None:
        """Supervised respawn from the last snapshot (no replay yet).

        Raises :class:`ShardFailedError` once the restart budget is
        exhausted — *without* touching loss accounting, so the caller
        can still choose takeover over permanent failure.
        """
        shard = self.metrics.shards[link.shard_id]
        self._cleanup_worker(link)
        if shard.restarts >= self.policies.max_restarts:
            exc = ShardFailedError(
                link.shard_id,
                f"shard {link.shard_id} worker died and the restart "
                f"budget ({self.policies.max_restarts}) is exhausted")
            if isinstance(cause, BaseException):
                exc.__cause__ = cause
            raise exc
        shard.restarts += 1
        link.results.clear()
        link.acked = link.snap_seq
        link.acks_since_snap = 0
        link.needs_replay = False
        self._spawn(link)
        self._await_ready(link)

    def _replay(self, link: ShardLink) -> None:
        """Re-send the replay log, with the same sequence numbers, to a
        fresh worker connection."""
        link.needs_replay = False
        link.pending.clear()
        link.acked = link.snap_seq
        shard = self.metrics.shards[link.shard_id]
        for seq, kind, arr in list(link.replay):
            if kind == "batch":
                shard.replayed_batches += 1
            self._transmit(link, seq, kind, arr, trace=False)

    def _restart_and_replay(self, link: ShardLink, cause) -> None:
        while True:
            self._restart(link, cause)
            try:
                self._replay(link)
                return
            except _WorkerDied as died:  # died again mid-replay
                cause = died.cause
                shard = self.metrics.shards[link.shard_id]
                shard.failures += 1
                shard.last_error = repr(cause)

    def _recover(self, link: ShardLink, cause) -> bool:
        """Bring the shard back after its worker or link failed.

        Escalation ladder: the transport's re-dial window
        (:meth:`_await_redial`) -> supervised restart from the last
        snapshot + replay -> the transport's keyspace takeover
        (:meth:`_take_over`) -> permanent failure.  Returns True if the
        shard is live again, False if it was taken over (the caller
        must not touch the link further); raises
        :class:`ShardFailedError` on permanent failure.
        """
        shard = self.metrics.shards[link.shard_id]
        shard.failures += 1
        shard.last_error = repr(cause)
        if self._await_redial(link):
            return True
        try:
            self._restart_and_replay(link, cause)
            return True
        except ShardFailedError as exc:
            if self._take_over(link, exc):
                return False
            shard.healthy = False
            shard.lost_elements += sum(link.pending.values())
            link.failed = exc
            raise

    def _await_redial(self, link: ShardLink) -> bool:
        """Transport step: True if the live worker resumed on its own."""
        return False

    def _take_over(self, link: ShardLink, cause) -> bool:
        """Transport step: True if the shard's keyspace moved to the
        survivors (dispatches to it then go through ``_reroute``)."""
        return False

    # ------------------------------------------------------------------
    # the ack/replay protocol
    # ------------------------------------------------------------------
    def _transmit(self, link: ShardLink, seq: int, kind: str,
                  arr, trace: bool) -> None:
        """Frame and send one stream entry, tracking it as pending."""
        if kind == "flush":
            link.pending[seq] = 0
            self._send(link, ("flush", seq, trace))
            return
        began = time.perf_counter()
        link.pending[seq] = int(arr.size)
        self._send(link, ("batch", seq, trace, self._frame(link, arr)))
        self.metrics.shards[link.shard_id].transport_seconds += (
            time.perf_counter() - began)

    def _wait_one_message(self, link: ShardLink, timeout: float) -> bool:
        """Receive and apply one worker message; False if none came."""
        message = self._receive(link, timeout)
        if message is None:
            return False
        kind = message[0]
        if kind == "ack":
            self._apply_ack(link, message)
        elif kind == "result":
            link.results[message[1]] = message[2]
        elif kind == "error":
            # The guard escalated (no fallback + persistent faults): the
            # worker is alive but the shard cannot make progress — a
            # negative ack that settles the sequence and fails the shard.
            _, seq, detail = message
            self._settled(link, seq)
            shard = self.metrics.shards[link.shard_id]
            shard.healthy = False
            shard.last_error = detail
            link.failed = ShardFailedError(
                link.shard_id, f"shard {link.shard_id}: {detail}")
        elif kind == "fatal":
            raise _WorkerDied(RuntimeError(message[1]))
        # anything else (a net heartbeat) proves liveness only
        return True

    def _settled(self, link: ShardLink, seq: int) -> None:
        link.pending.pop(seq, None)
        link.acked = max(link.acked, seq)

    def _apply_ack(self, link: ShardLink, message) -> None:
        _, seq, is_batch, elements, busy, delta, spans = message
        self._settled(link, seq)
        link.acks_since_snap += 1
        if seq <= link.counted or seq in link.counted_extra:
            return  # replayed work: already accounted before the loss
        if seq == link.counted + 1:
            link.counted = seq
            while link.counted + 1 in link.counted_extra:
                link.counted_extra.discard(link.counted + 1)
                link.counted += 1
        else:
            link.counted_extra.add(seq)
        shard = self.metrics.shards[link.shard_id]
        if is_batch:
            shard.record_batch(elements, busy)
        else:
            shard.update_seconds += busy
        shard.faults += delta["faults"]
        shard.retries += delta["retries"]
        shard.degraded_batches += delta["degraded_batches"]
        shard.breaker_state = delta["breaker_state"]
        if delta["last_error"]:
            shard.last_error = delta["last_error"]
        if spans:
            col = collector()
            if col.enabled:
                for name, wall, count, attrs in spans:
                    attrs = {k: v for k, v in attrs.items()
                             if k not in ("shard", "count")}
                    col.record(name, wall, shard=link.shard_id,
                               count=count, **attrs)

    def _pump_until(self, link: ShardLink, predicate,
                    deadline: float | None = None) -> bool:
        """Pump messages until ``predicate()``; False on deadline expiry."""
        while not predicate():
            if link.failed is not None:
                raise link.failed
            if deadline is not None and time.monotonic() > deadline:
                return False
            self._wait_one_message(link, self._POLL)
        return True

    def _settle(self, link: ShardLink) -> None:
        """Block until every sent batch/flush of this shard is acked
        (or the shard is taken over — then there is nothing to await)."""
        while not link.taken_over:
            try:
                self._pump_until(link, lambda: link.acked >= link.sent)
                return
            except _WorkerDied as died:
                if not self._recover(link, died.cause):
                    return  # taken over; pending was re-routed

    def _request(self, link: ShardLink, command: str):
        """Settled synchronous round-trip (state/snapshot gathers).

        Traced as one ``service.state_fetch`` span (after the settle).
        A request lost with a live worker past the transport's request
        deadline is re-issued under a fresh id.  If the shard is taken
        over mid-request, an empty state is returned — its history
        already moved to ``retired``.
        """
        with link.lock:
            if link.failed is not None:
                raise link.failed
            link.wait_anchor = time.monotonic()
            link.results.clear()
            self._settle(link)
            with collector().span("service.state_fetch",
                                  shard=link.shard_id, command=command):
                while not link.taken_over:
                    rid = link.next_req = link.next_req + 1
                    try:
                        self._send(link, (command, rid))
                        if self._pump_until(link, lambda: rid in link.results,
                                            self._request_deadline()):
                            return link.results.pop(rid)
                        self.metrics.shards[link.shard_id] \
                            .deadline_timeouts += 1
                    except _WorkerDied as died:
                        if not self._recover(link, died.cause):
                            break
                        self._settle(link)
            state = self._fresh_miner_state()
            if command == "snapshot":
                return state
            return {"estimator": state["estimator"], "processed": 0,
                    "buffered": 0,
                    "report": {"backend": self._backend_kind,
                               "statistic": self.statistic, "elements": 0,
                               "windows": 0, "wall": {}, "modelled": {}}}

    def _request_deadline(self) -> float | None:
        """Transport step: when an unanswered request counts as lost."""
        return None

    # ------------------------------------------------------------------
    # ingestion (the ShardedMiner surface)
    # ------------------------------------------------------------------
    def dispatch(self, shard_id: int, values) -> None:
        """Send one pre-routed batch to a shard's worker (pipelined).

        Returns as soon as the batch is framed and sent — the worker's
        ack arrives later and is folded into the metrics
        opportunistically.  Unlike the inline pool, consecutive
        dispatches to *different* shards genuinely overlap: each worker
        sorts its backlog while the parent keeps routing.
        """
        arr = np.ascontiguousarray(
            np.asarray(values, dtype=np.float32).ravel())
        if arr.size == 0:
            return
        self._dispatch_link(self._links[shard_id], arr)

    def _dispatch_link(self, link: ShardLink, arr) -> None:
        with link.lock:
            if link.failed is not None:
                raise link.failed
            if link.taken_over:
                self._reroute(arr)
                return
            link.wait_anchor = time.monotonic()
            try:
                while self._wait_one_message(link, 0.0):
                    pass  # fold in any ready acks
                # Backpressure: a full in-flight window waits on acks.
                self._pump_until(link, lambda: len(link.pending)
                                 < self.policies.max_inflight_batches)
            except _WorkerDied as died:
                if not self._recover(link, died.cause):
                    self._reroute(arr)
                    return
            link.next_seq += 1
            seq = link.sent = link.next_seq
            link.replay.append((seq, "batch", arr))
            try:
                self._transmit(link, seq, "batch", arr,
                               trace=collector().enabled)
            except _WorkerDied as died:
                # The batch is already in the replay log: a recovery
                # re-sends it, a takeover re-routes it — either way it
                # is owned downstream, so don't re-route it here too.
                self._recover(link, died.cause)
                return
            self._maybe_snapshot(link)

    def drain(self) -> None:
        """Flush every worker's partial batch and wait for the acks.

        Flushes go to *all* live shards first, then are awaited — the
        shards drain concurrently.  If a settle triggers a takeover,
        the re-routed elements landed on survivors *after* their flush,
        so the round is repeated until a full round completes with no
        new takeover.
        """
        while True:
            taken_before = sum(link.taken_over for link in self._links)
            for link in self._links:
                if link.taken_over:
                    continue
                with link.lock:
                    if link.failed is not None:
                        raise link.failed
                    link.wait_anchor = time.monotonic()
                    link.next_seq += 1
                    seq = link.sent = link.next_seq
                    link.replay.append((seq, "flush", None))
                    try:
                        self._transmit(link, seq, "flush", None,
                                       trace=collector().enabled)
                    except _WorkerDied as died:
                        self._recover(link, died.cause)
            for link in self._links:
                if link.taken_over:
                    continue
                with link.lock:
                    if link.failed is not None:
                        raise link.failed
                    link.wait_anchor = time.monotonic()
                    self._settle(link)
                    self._maybe_snapshot(link)
            if sum(link.taken_over for link in self._links) == taken_before:
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop the workers (gracefully where possible) and free the
        transport.

        Idempotent; also runs via a GC finalizer as a safety net, but
        call it explicitly (or use the context manager) — worker
        processes, pipes and sockets are real OS resources.
        """
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        for link in self._links:
            with link.lock:
                if (link.conn is not None and link.failed is None
                        and not link.taken_over):
                    link.next_req += 1
                    try:
                        self._send(link, ("stop", link.next_req))
                    except _WorkerDied:
                        pass
                if link.proc is not None:
                    link.proc.join(timeout=timeout)
                    if link.proc.is_alive():  # pragma: no cover - stuck
                        link.proc.terminate()
                        link.proc.join(timeout=timeout)
                self._disconnect(link)
                link.proc = None
        for resource in self._resources():
            resource.close()

    def _reshard_kwargs(self) -> dict:
        return {**super()._reshard_kwargs(),
                "mp_context": self._ctx.get_start_method()}

    def _adopt(self, fresh: "WorkerPool") -> None:
        # Its finalizer would reap the adopted workers when ``fresh`` is
        # collected, so detach it and re-bind one to self.
        self.close()
        fresh._finalizer.detach()
        super()._adopt(fresh)
        self._rebind_finalizer()

    def _rebind_finalizer(self) -> None:
        self._finalizer = weakref.finalize(
            self, _release_links, self._links, self._resources())

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
