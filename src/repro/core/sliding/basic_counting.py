"""DGIM exponential histograms for basic counting (the paper's ref [13]).

Section 5.2: "Exponential histograms have been widely used for other
statistic computations over sliding windows such as sums [13]".  This is
that substrate — Datar, Gionis, Indyk & Motwani's structure for counting
the 1s (or summing bounded values) among the last ``W`` stream elements
using ``O((1/eps) log^2 W)`` bits.

Buckets hold power-of-two counts with arrival timestamps; at most
``k/2 + 1`` buckets of each size are kept (``k = ceil(1/eps)``), merging
the two oldest of a size when the bound is exceeded.  A count query sums
all live buckets minus half the oldest, giving relative error at most
``eps``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from ...errors import InvariantViolation, QueryError, SummaryError


@dataclass
class _Bucket:
    timestamp: int  # arrival index of the bucket's most recent 1
    size: int       # number of 1s merged into this bucket (power of two)


class DgimCounter:
    """Approximate count of 1s in a count-based sliding window.

    Parameters
    ----------
    window:
        Window width ``W`` in stream positions.
    eps:
        Relative counting error.

    Examples
    --------
    >>> from repro.core.sliding import DgimCounter
    >>> c = DgimCounter(window=100, eps=0.1)
    >>> for i in range(200):
    ...     c.update(True)
    >>> abs(c.estimate() - 100) <= 10
    True
    """

    def __init__(self, window: int, eps: float = 0.5):
        if window <= 0:
            raise SummaryError(f"window must be positive, got {window}")
        if not 0.0 < eps <= 1.0:
            raise SummaryError(f"eps must be in (0, 1], got {eps}")
        self.window = int(window)
        self.eps = float(eps)
        #: max buckets allowed per size before a merge.
        self.max_per_size = max(2, math.ceil(1.0 / eps) // 2 + 1)
        self.time = 0
        self._buckets: deque[_Bucket] = deque()  # newest at the left

    def update(self, bit: bool | int) -> None:
        """Append one stream element (truthy = a 1)."""
        self.time += 1
        self._expire()
        if not bit:
            return
        self._append_one()

    def _expire(self) -> None:
        while self._buckets and \
                self._buckets[-1].timestamp <= self.time - self.window:
            self._buckets.pop()

    def _append_one(self) -> None:
        """Add a size-1 bucket at the current time and cascade merges."""
        self._buckets.appendleft(_Bucket(self.time, 1))
        self._cascade_merges()

    def _cascade_merges(self) -> None:
        """Merge oldest pairs whenever a size exceeds its bucket budget."""
        size = 1
        while True:
            indices = [i for i, b in enumerate(self._buckets)
                       if b.size == size]
            if len(indices) <= self.max_per_size:
                return
            # Merge the two oldest buckets of this size.
            second_oldest, oldest = indices[-2], indices[-1]
            merged = _Bucket(self._buckets[second_oldest].timestamp, size * 2)
            buckets = list(self._buckets)
            del buckets[oldest]
            buckets[second_oldest] = merged
            self._buckets = deque(buckets)
            size *= 2

    def estimate(self) -> int:
        """Approximate number of 1s among the last ``window`` elements."""
        self._expire()
        if not self._buckets:
            return 0
        total = sum(b.size for b in self._buckets)
        return total - self._buckets[-1].size // 2

    def exact_upper_bound(self) -> int:
        """A certain upper bound on the true count (all live buckets)."""
        self._expire()
        return sum(b.size for b in self._buckets)

    def error_bound(self) -> float:
        """Deterministic relative counting error."""
        return self.eps

    def __len__(self) -> int:
        """Number of buckets currently held."""
        return len(self._buckets)

    def check_invariant(self) -> None:
        """Validate bucket ordering, sizes, and per-size budgets."""
        previous_ts = math.inf
        for bucket in self._buckets:
            if bucket.size & (bucket.size - 1):
                raise InvariantViolation(
                    f"bucket size {bucket.size} not a power of two")
            if bucket.timestamp > previous_ts:
                raise InvariantViolation("buckets out of timestamp order")
            previous_ts = bucket.timestamp
        sizes: dict[int, int] = {}
        for bucket in self._buckets:
            sizes[bucket.size] = sizes.get(bucket.size, 0) + 1
        for size, count in sizes.items():
            if count > self.max_per_size + 1:
                raise InvariantViolation(
                    f"{count} buckets of size {size} exceeds budget "
                    f"{self.max_per_size}")


class DgimSum:
    """Approximate sum of bounded non-negative integers over a window.

    The standard reduction (DGIM Section 5): a value ``v`` in
    ``[0, max_value]`` is treated as ``v`` separate 1s arriving at the
    same position.
    """

    def __init__(self, window: int, max_value: int, eps: float = 0.5):
        if max_value <= 0:
            raise SummaryError(f"max_value must be positive, got {max_value}")
        self.max_value = int(max_value)
        self._counter = DgimCounter(window, eps)

    def update(self, value: int) -> None:
        """Append one value in ``[0, max_value]``."""
        value = int(value)
        if not 0 <= value <= self.max_value:
            raise QueryError(
                f"value {value} outside [0, {self.max_value}]")
        # All v ones share the arrival position: advance time once.
        self._counter.time += 1
        self._counter._expire()
        for _ in range(value):
            self._counter._append_one()

    def estimate(self) -> int:
        """Approximate sum over the last ``window`` positions."""
        return self._counter.estimate()
