"""Shared-memory ring buffer for cross-process batch transport.

The multiprocess executor (:mod:`repro.service.mp_executor`) moves
float32 stream batches from the parent into shard worker processes.
Pickling every batch over a pipe would copy each element three times
(serialize, kernel buffer, deserialize); this ring gives the common
case a single copy instead: the parent writes the batch into a
:class:`multiprocessing.shared_memory.SharedMemory` block and sends
only a ``(offset, length)`` descriptor over the pipe, and the worker
maps the same physical pages as a numpy view.

Framing format
--------------
The block is a bare ``capacity * 4`` byte arena interpreted as float32
slots — there are no in-band headers.  All framing travels out-of-band
in the pipe message: a batch body ``(offset, length)`` means *length*
floats starting at slot *offset*.  Allocation is FIFO-circular:

* segments are carved off at ``head`` and appended to a live queue;
* the worker acknowledges batches **in send order**, and each ack frees
  the *oldest* live segment — so the free pointer (the first live
  segment's offset) chases ``head`` around the ring exactly like a
  classic SPSC ring buffer;
* a segment that does not fit in the tail gap wraps to slot 0 (the
  skipped gap is implicitly reclaimed when the wrapped segment's
  predecessors are freed).

Only the parent allocates and frees; the worker side is read-only
(:meth:`ShmRing.attach` + :meth:`view`).  The worker must **copy** the
view (``np.array(view)``) before handing it to the engine — the engine
buffers references, and the parent recycles the slots on ack.

Ownership: the creating side unlinks the block in :meth:`close`; an
attached side only detaches.  On Python < 3.13 the resource tracker of
an *attaching* process would unlink the block when that process exits
(even by SIGKILL — the tracker is a separate helper process), yanking
the memory out from under the parent; :meth:`attach` therefore keeps
the mapping out of the tracker entirely.
"""

from __future__ import annotations

from collections import deque
from multiprocessing import shared_memory

import numpy as np

from ..errors import ServiceError

__all__ = ["ShmRing"]

_FLOAT_BYTES = 4


class ShmRing:
    """FIFO-circular float32 arena in POSIX shared memory.

    Parameters
    ----------
    capacity:
        Arena size in float32 elements.
    name:
        Attach to an existing block instead of creating one (worker
        side; see :meth:`attach`).
    """

    def __init__(self, capacity: int, *, name: str | None = None):
        if capacity < 1:
            raise ServiceError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._owner = name is None
        if self._owner:
            self._shm = shared_memory.SharedMemory(
                create=True, size=self.capacity * _FLOAT_BYTES)
        else:
            self._shm = self._attach_untracked(name)
        #: live segments as (offset, length), oldest first (owner only).
        self._live: deque[tuple[int, int]] = deque()
        self._head = 0
        self._closed = False

    @staticmethod
    def _attach_untracked(name: str) -> shared_memory.SharedMemory:
        """Attach without registering with the resource tracker.

        The creator's tracker keeps the block registered (it owns the
        unlink); an attacher must not register it too, or its tracker
        destroys the shared block when the attacher dies — precisely
        the wrong thing during a worker crash the parent wants to
        survive.  Spawned workers share the parent's tracker process,
        so an unregister-after-attach would also erase the *creator's*
        entry; suppressing the registration at attach time is the only
        variant that leaves the creator's bookkeeping intact.
        (Python 3.13 exposes this as ``track=False``.)
        """
        try:  # pragma: no cover - tracker internals vary by version
            from multiprocessing import resource_tracker
            original = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        except Exception:
            return shared_memory.SharedMemory(name=name)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        """Map an existing ring read-only (worker side)."""
        return cls(capacity, name=name)

    @property
    def name(self) -> str:
        """The OS-level block name workers attach by."""
        return self._shm.name

    # ------------------------------------------------------------------
    # allocation (owner side)
    # ------------------------------------------------------------------
    @property
    def live_segments(self) -> int:
        """Segments currently allocated and not yet freed."""
        return len(self._live)

    def try_write(self, arr: np.ndarray) -> tuple[int, int] | None:
        """Copy ``arr`` into a fresh segment; ``None`` when full.

        Returns the ``(offset, length)`` descriptor to ship over the
        pipe.  Allocation keeps ``head`` strictly ahead of the oldest
        live offset while wrapped, so a full ring is always reported as
        ``None`` rather than silently overlapping live data.
        """
        n = int(arr.size)
        if n == 0 or n > self.capacity:
            return None
        if not self._live:
            self._head = 0
            segment = (0, n)
        else:
            tail = self._live[0][0]
            if self._head >= tail:  # live data sits in [tail, head)
                if self._head + n <= self.capacity:
                    segment = (self._head, n)
                elif n < tail:  # wrap; gap [head, capacity) reclaims later
                    segment = (0, n)
                else:
                    return None
            else:  # wrapped: free space is [head, tail)
                if self._head + n < tail:
                    segment = (self._head, n)
                else:
                    return None
        offset, length = segment
        self.view(offset, length)[:] = arr
        self._live.append(segment)
        self._head = offset + length
        return segment

    def free(self, offset: int, length: int) -> None:
        """Release the *oldest* live segment (FIFO ack order)."""
        if not self._live or self._live[0] != (offset, length):
            expected = self._live[0] if self._live else None
            raise ServiceError(
                f"out-of-order ring free: got ({offset}, {length}), "
                f"oldest live segment is {expected}")
        self._live.popleft()
        if not self._live:
            self._head = 0

    def reset(self) -> None:
        """Drop every live segment (after the consumer died)."""
        self._live.clear()
        self._head = 0

    # ------------------------------------------------------------------
    # access (both sides)
    # ------------------------------------------------------------------
    def view(self, offset: int, length: int) -> np.ndarray:
        """A zero-copy float32 view of one segment."""
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise ServiceError(
                f"segment ({offset}, {length}) outside ring of "
                f"{self.capacity} elements")
        return np.ndarray((length,), dtype=np.float32,
                          buffer=self._shm.buf,
                          offset=offset * _FLOAT_BYTES)

    def close(self) -> None:
        """Detach; the creating side also destroys the block."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
