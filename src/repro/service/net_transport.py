"""Framed TCP transport for the network shard executor.

The ``net`` executor speaks the same worker/ack/replay protocol as the
multiprocess one, but over sockets instead of pipes, so it needs three
things the ``multiprocessing`` connection gave us for free:

* **Framing** — :class:`FrameChannel` length-prefixes each pickled
  message (4-byte big-endian size) and reassembles frames across
  arbitrary TCP segmentation, with a per-call deadline on both send and
  receive.  A deadline miss raises :class:`ChannelTimeout` *without*
  losing the partially received frame; the next receive resumes where
  the last one stopped.
* **Connection lifecycle** — :class:`Listener` accepts redials from
  workers that lost their connection; dialing lives in
  :func:`connect`.  A peer hang-up surfaces as :class:`ChannelClosed`.
* **Fault injection** — :class:`NetFaultPlan` / :class:`NetFaultInjector`
  mirror the GPU layer's :mod:`repro.gpu.faults` idiom: seeded rates
  plus exact ``at`` schedules, one RNG draw per rated operation so the
  fault sequence is a pure function of the plan.  Faults model the
  network, not the peer: *drop* and *partition* sever the connection
  (TCP turns a lost frame into a dead link), *delay* stalls it, and
  *reorder* holds one outgoing frame back so it arrives after its
  successor.

Only the parent (pool) side injects faults — the worker experiences
them as the resulting disconnects and timeouts, which is exactly what
the reconnect protocol must absorb.
"""

from __future__ import annotations

import pickle
import select
import socket
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import ServiceError

_LEN = struct.Struct(">I")

#: Hard cap on a single frame (guards against a corrupt length prefix).
MAX_FRAME_BYTES = 1 << 30

#: Operations a fault plan may rate or schedule.
NET_FAULT_OPS = ("send", "recv")

#: Actions an ``at`` schedule may name.
NET_FAULT_ACTIONS = ("drop", "delay", "reorder", "partition")


class ChannelClosed(ConnectionError):
    """The peer hung up (or an injected fault severed the connection)."""


class ChannelTimeout(TimeoutError):
    """A framed send/recv missed its deadline; the channel is intact."""


@dataclass(frozen=True)
class NetFaultPlan:
    """Deterministic description of network misbehaviour to inject.

    ``drop_rate`` / ``delay_rate`` / ``reorder_rate`` fire independently
    per rated operation; ``at`` pins exact faults to the i-th occurrence
    of an op (``{"send": {3: "partition"}}`` severs the 4th send and
    makes the listener refuse the next ``partition_attempts`` redials).
    ``max_faults`` bounds the total so a high rate cannot starve the
    stream forever.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_seconds: float = 0.02
    at: dict = field(default_factory=dict)
    partition_attempts: int = 2
    seed: int = 0
    max_faults: int | None = None

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ServiceError(f"{name} must be in [0, 1), got {rate}")
        if self.drop_rate + self.delay_rate + self.reorder_rate >= 1.0:
            raise ServiceError("summed fault rates must stay below 1.0")
        if self.delay_seconds < 0:
            raise ServiceError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.partition_attempts < 0:
            raise ServiceError(
                "partition_attempts must be >= 0, got "
                f"{self.partition_attempts}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ServiceError(
                f"max_faults must be >= 0, got {self.max_faults}")
        for op, schedule in self.at.items():
            if op not in NET_FAULT_OPS:
                raise ServiceError(
                    f"unknown fault op {op!r}; expected one of "
                    f"{NET_FAULT_OPS}")
            for index, action in dict(schedule).items():
                if int(index) < 0:
                    raise ServiceError(
                        f"fault schedule index must be >= 0, got {index}")
                if action not in NET_FAULT_ACTIONS:
                    raise ServiceError(
                        f"unknown fault action {action!r}; expected one of "
                        f"{NET_FAULT_ACTIONS}")

    def reseeded(self, seed: int) -> "NetFaultPlan":
        """The same plan under a different random seed."""
        return replace(self, seed=int(seed))


class NetFaultInjector:
    """Stateful executor of a :class:`NetFaultPlan`.

    Always consumes exactly one RNG draw per rated operation, so the
    fault sequence is a pure function of the plan — independent of
    timing, retries elsewhere, or which faults actually fired.
    """

    def __init__(self, plan: NetFaultPlan):
        self.plan = plan
        self._rng = np.random.default_rng(plan.seed)
        self.op_counts: dict[str, int] = {op: 0 for op in NET_FAULT_OPS}
        self.injected: dict[str, int] = {a: 0 for a in NET_FAULT_ACTIONS}
        #: redials the listener must still refuse (armed by "partition")
        self.refusals_left = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _rated(self) -> bool:
        plan = self.plan
        return (plan.drop_rate > 0 or plan.delay_rate > 0
                or plan.reorder_rate > 0)

    def check(self, op: str) -> str | None:
        """The action to apply to this occurrence of ``op``, if any."""
        if op not in NET_FAULT_OPS:
            raise ServiceError(f"unknown fault op {op!r}")
        plan = self.plan
        index = self.op_counts[op]
        self.op_counts[op] = index + 1
        draw = self._rng.random() if self._rated() else None
        action = plan.at.get(op, {}).get(index)
        if action is None and draw is not None:
            if draw < plan.drop_rate:
                action = "drop"
            elif draw < plan.drop_rate + plan.delay_rate:
                action = "delay"
            elif draw < (plan.drop_rate + plan.delay_rate
                         + plan.reorder_rate):
                action = "reorder"
        if action is None:
            return None
        if plan.max_faults is not None and \
                self.total_injected >= plan.max_faults:
            return None
        self.injected[action] += 1
        if action == "partition":
            self.refusals_left = plan.partition_attempts
        return action

    def refuse_dial(self) -> bool:
        """Consume one pending dial refusal (listener accept path)."""
        if self.refusals_left > 0:
            self.refusals_left -= 1
            return True
        return False


def _deadline_left(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise ChannelTimeout("deadline exceeded")
    return left


class FrameChannel:
    """Length-prefixed pickle frames over one TCP socket."""

    def __init__(self, sock: socket.socket,
                 injector: NetFaultInjector | None = None):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(True)
        self._sock: socket.socket | None = sock
        self._injector = injector
        self._rbuf = bytearray()
        self._holdback: bytes | None = None
        self._holdin: bytes | None = None

    def fileno(self) -> int:
        if self._sock is None:
            raise ChannelClosed("channel is closed")
        return self._sock.fileno()

    @property
    def closed(self) -> bool:
        return self._sock is None

    def _fault(self, op: str) -> str | None:
        if self._injector is None:
            return None
        action = self._injector.check(op)
        if action == "delay":
            time.sleep(self._injector.plan.delay_seconds)
            return None
        if action in ("drop", "partition"):
            self.close()
            raise ChannelClosed(f"injected {action} on {op}")
        return action  # None or "reorder"

    def send(self, message: object, timeout: float | None = None) -> None:
        """Send one framed message (applies injected send faults)."""
        if self._sock is None:
            raise ChannelClosed("channel is closed")
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        action = self._fault("send")
        frames = []
        if action == "reorder" and self._holdback is None:
            # Hold this frame back; it rides behind the *next* send.
            self._holdback = payload
            return
        frames.append(payload)
        if self._holdback is not None:
            frames.append(self._holdback)
            self._holdback = None
        try:
            self._sock.settimeout(timeout)
            for frame in frames:
                self._sock.sendall(_LEN.pack(len(frame)) + frame)
        except socket.timeout as exc:
            raise ChannelTimeout("send deadline exceeded") from exc
        except BlockingIOError as exc:
            raise ChannelTimeout("send would block") from exc
        except OSError as exc:
            self.close()
            raise ChannelClosed(f"send failed: {exc}") from exc

    def _fill(self, needed: int, deadline: float | None) -> None:
        while len(self._rbuf) < needed:
            if self._sock is None:
                raise ChannelClosed("channel is closed")
            try:
                self._sock.settimeout(_deadline_left(deadline))
                chunk = self._sock.recv(1 << 16)
            except socket.timeout as exc:
                raise ChannelTimeout("recv deadline exceeded") from exc
            except BlockingIOError as exc:
                raise ChannelTimeout("recv would block") from exc
            except OSError as exc:
                self.close()
                raise ChannelClosed(f"recv failed: {exc}") from exc
            if not chunk:
                self.close()
                raise ChannelClosed("peer closed the connection")
            self._rbuf.extend(chunk)

    def _read_frame(self, deadline: float | None) -> bytes:
        self._fill(_LEN.size, deadline)
        (size,) = _LEN.unpack(bytes(self._rbuf[:_LEN.size]))
        if size > MAX_FRAME_BYTES:
            self.close()
            raise ChannelClosed(f"oversized frame ({size} bytes)")
        self._fill(_LEN.size + size, deadline)
        payload = bytes(self._rbuf[_LEN.size:_LEN.size + size])
        del self._rbuf[:_LEN.size + size]
        return payload

    def recv(self, timeout: float | None = None) -> object:
        """Receive one framed message (applies injected recv faults).

        On :class:`ChannelTimeout` any partial frame stays buffered and
        the next call resumes reassembly.  An injected inbound *reorder*
        holds the frame at the head of the buffer and delivers its
        successor first; the held frame is returned by the next call.
        """
        if self._sock is None and not self._rbuf and self._holdin is None:
            raise ChannelClosed("channel is closed")
        action = self._fault("recv")
        if self._holdin is not None:
            payload, self._holdin = self._holdin, None
            return pickle.loads(payload)
        deadline = None if timeout is None else time.monotonic() + timeout
        payload = self._read_frame(deadline)
        if action == "reorder":
            # Swap this frame with its successor; if the successor never
            # arrives in time the held frame is simply delayed one call.
            self._holdin = payload
            payload = self._read_frame(deadline)
        return pickle.loads(payload)

    def ready(self) -> bool:
        """Whether :meth:`recv` has something to act on without waiting:
        a held frame, buffered bytes, or a readable (or closed) socket."""
        if self._holdin is not None or self._rbuf or self._sock is None:
            return True
        readable, _, _ = select.select([self._sock], [], [], 0)
        return bool(readable)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class Listener:
    """Non-blocking accept loop for worker (re)connections."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 injector: NetFaultInjector | None = None):
        self._injector = injector
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        self._sock: socket.socket | None = sock
        self.address: tuple[str, int] = sock.getsockname()[:2]

    def accept(self, timeout: float = 0.0) -> FrameChannel | None:
        """One pending connection as a channel, or ``None``.

        While a partition refusal is armed, accepted redials are closed
        on sight — the worker sees a connection reset and backs off.
        """
        if self._sock is None:
            return None
        ready, _, _ = select.select([self._sock], [], [], timeout)
        if not ready:
            return None
        try:
            conn, _ = self._sock.accept()
        except OSError:
            return None
        if self._injector is not None and self._injector.refuse_dial():
            try:
                conn.close()
            except OSError:
                pass
            return None
        return FrameChannel(conn, injector=self._injector)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


def connect(host: str, port: int, timeout: float) -> FrameChannel:
    """Dial the pool's listener (worker side; no injector)."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ChannelClosed(f"dial {host}:{port} failed: {exc}") from exc
    return FrameChannel(sock)
