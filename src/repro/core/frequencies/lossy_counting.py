"""Manku-Motwani lossy counting (Section 5.1's frequency algorithm).

The paper's frequency estimation follows Manku and Motwani [32]: the
stream is processed in windows ("buckets") of width ``w = ceil(1/eps)``.
For each window a **histogram** is computed (sort + run-length — the
GPU-accelerated step), then **merged** into the running summary, then the
summary is **compressed** by deleting entries whose count can no longer
reach the error threshold.

Each summary entry is ``(value, f, delta)`` where ``f`` is the counted
occurrences since the entry was (re)created and ``delta`` bounds the
occurrences that may have been missed before that.  After ``b`` windows,
an entry is deleted when ``f + delta <= b``.

Guarantees (Manku & Motwani 2002):

* estimated counts never overestimate: ``f <= true_f``;
* they underestimate by at most ``eps * N``: ``f >= true_f - eps * N``;
* :meth:`frequent_items` returns every value with true frequency above
  ``s * N`` (no false negatives) when called with threshold ``(s - eps) N``;
* the summary holds at most ``O((1/eps) * log(eps * N))`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...errors import InvariantViolation, QueryError, SummaryError
from ..estimators import EstimatorCapabilities, register_estimator
from ..histograms import WindowHistogram, histogram_from_sorted


@dataclass
class FrequencyEntry:
    """One summary entry: counted occurrences plus the missed-count bound."""

    count: int
    delta: int


class LossyCounting:
    """Deterministic epsilon-approximate frequency summary.

    Parameters
    ----------
    eps:
        Error fraction; estimates undercount by at most ``eps * N``.

    Examples
    --------
    >>> from repro.core.frequencies import LossyCounting
    >>> lc = LossyCounting(eps=0.1)
    >>> lc.update([1.0] * 60 + [2.0] * 5 + [3.0] * 35)
    >>> [v for v, f in lc.frequent_items(support=0.5)]
    [1.0]
    """

    def __init__(self, eps: float):
        if not 0.0 < eps < 1.0:
            raise SummaryError(f"eps must be in (0, 1), got {eps}")
        self.eps = float(eps)
        self.window_size = max(1, math.ceil(1.0 / eps))
        self.count = 0
        self.windows_processed = 0
        self._entries: dict[float, FrequencyEntry] = {}
        self._partial = np.empty(0, dtype=np.float32)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def update(self, values: np.ndarray | list[float]) -> None:
        """Feed stream elements; whole windows are processed immediately.

        A trailing partial window is buffered and processed on the next
        call (or counted in by queries via the pending buffer).
        """
        arr = np.asarray(values, dtype=np.float32).ravel()
        if arr.size == 0:
            return
        data = np.concatenate([self._partial, arr]) if self._partial.size else arr
        w = self.window_size
        full = (data.size // w) * w
        for start in range(0, full, w):
            self._process_window(data[start:start + w])
        self._partial = data[full:].copy()

    def update_histogram(self, histogram: WindowHistogram) -> None:
        """Merge + compress one pre-computed window histogram.

        This is the engine's entry point: the histogram comes from a
        window that was sorted on the GPU.  The histogram must cover
        exactly one window (``window_size`` elements), except for the
        final, possibly short window of a stream.
        """
        if histogram.total > self.window_size:
            raise SummaryError(
                f"histogram covers {histogram.total} elements, more than the "
                f"window size {self.window_size}")
        if self._partial.size:
            raise SummaryError(
                "cannot mix update_histogram with a pending partial window")
        self._merge(histogram)
        self._compress()

    def _process_window(self, window: np.ndarray) -> None:
        self._merge(histogram_from_sorted(np.sort(window)))
        self._compress()

    def merge(self, other: "LossyCounting") -> "LossyCounting":
        """A new summary covering both streams, still never overcounting.

        Counted occurrences add; the missed-count bound of an entry the
        other side does not track grows by that side's window count (it
        may have counted and then deleted the value, missing at most one
        occurrence per window).  Merged deltas stay below the combined
        window count, so the undercount bound is
        ``eps * (N1 + N2)`` and the deletion rule keeps working.
        Trailing partial windows are re-fed through the merged summary.
        """
        if not isinstance(other, LossyCounting):
            raise SummaryError(
                f"cannot merge LossyCounting with {type(other).__name__}")
        if other.eps != self.eps:
            raise SummaryError(
                f"merge needs matching eps: {self.eps} vs {other.eps}")
        merged = LossyCounting(self.eps)
        merged.count = self.count + other.count
        merged.windows_processed = (self.windows_processed
                                    + other.windows_processed)
        for value, entry in self._entries.items():
            twin = other._entries.get(value)
            if twin is None:
                merged._entries[value] = FrequencyEntry(
                    count=entry.count,
                    delta=entry.delta + other.windows_processed)
            else:
                merged._entries[value] = FrequencyEntry(
                    count=entry.count + twin.count,
                    delta=entry.delta + twin.delta)
        for value, entry in other._entries.items():
            if value not in self._entries:
                merged._entries[value] = FrequencyEntry(
                    count=entry.count,
                    delta=entry.delta + self.windows_processed)
        merged._compress()
        if self._partial.size or other._partial.size:
            merged.update(np.concatenate([self._partial, other._partial]))
        return merged

    # ------------------------------------------------------------------
    # the uniform Estimator protocol
    # ------------------------------------------------------------------
    def update_batch(self, sorted_window: np.ndarray,
                     histogram: WindowHistogram | None = None) -> None:
        """Protocol entry point: merge one ascending window.

        Accepts the run-length histogram the pipeline's summarize stage
        already computed; computes it when fed a bare sorted window.
        """
        if histogram is None:
            histogram = histogram_from_sorted(
                np.asarray(sorted_window).ravel())
        self.update_histogram(histogram)

    def query(self, support: float) -> list[tuple[float, int]]:
        """Protocol query: the heavy hitters above ``support``."""
        return self.frequent_items(support)

    def error_bound(self) -> float:
        """Deterministic undercount fraction (``f >= true_f - eps*N``)."""
        return self.eps

    @property
    def processed(self) -> int:
        """Elements accounted for, including the pending partial window."""
        return self.count + self.pending

    def _merge(self, histogram: WindowHistogram) -> None:
        """Merge operation: add or update entries (Section 5.1)."""
        self.count += histogram.total
        self.windows_processed += 1
        current_bucket = self.windows_processed
        for value, freq in histogram:
            entry = self._entries.get(value)
            if entry is None:
                self._entries[value] = FrequencyEntry(
                    count=int(freq), delta=current_bucket - 1)
            else:
                entry.count += int(freq)

    def _compress(self) -> None:
        """Compress operation: drop entries that cannot matter any more."""
        bucket = self.windows_processed
        doomed = [value for value, entry in self._entries.items()
                  if entry.count + entry.delta <= bucket]
        for value in doomed:
            del self._entries[value]

    # ------------------------------------------------------------------
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Versioned JSON-serializable snapshot of the summary.

        Float32 stream values convert to doubles losslessly, so entry
        keys and the pending partial window round-trip exactly.  Entries
        are emitted sorted by value rather than in the store's insertion
        order, so two summaries holding the same entries snapshot
        identically whatever order their windows arrived in.
        """
        return {
            "version": 1,
            "kind": "lossy-counting",
            "eps": self.eps,
            "count": self.count,
            "windows_processed": self.windows_processed,
            "entries": sorted([float(value), entry.count, entry.delta]
                              for value, entry in self._entries.items()),
            "partial": self._partial.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "LossyCounting":
        """Rebuild a summary from :meth:`to_state` output."""
        if state.get("kind") != "lossy-counting" or \
                state.get("version") != 1:
            raise SummaryError(
                f"not a v1 lossy-counting state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        summary = cls(float(state["eps"]))
        summary.count = int(state["count"])
        summary.windows_processed = int(state["windows_processed"])
        summary._entries = {
            float(value): FrequencyEntry(count=int(count), delta=int(delta))
            for value, count, delta in state["entries"]}
        summary._partial = np.asarray(state["partial"], dtype=np.float32)
        summary.check_invariant()
        return summary

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of summary entries currently held."""
        return len(self._entries)

    @property
    def pending(self) -> int:
        """Elements buffered in the trailing partial window."""
        return int(self._partial.size)

    def estimate(self, value: float) -> int:
        """Estimated frequency of ``value`` (never overestimates)."""
        key = np.float32(value)
        entry = self._entries.get(key)
        base = entry.count if entry is not None else 0
        if self._partial.size:
            base += int(np.count_nonzero(self._partial == key))
        return base

    def items(self) -> list[tuple[float, int]]:
        """Every tracked value with its (never overestimating) count.

        Includes values seen only in the pending partial window.  Used by
        the sharded service's union query: under hash partitioning a
        value's entire count lives on one shard, so the global heavy-
        hitter set is a threshold filter over the union of these lists.
        """
        candidates = set(self._entries)
        if self._partial.size:
            candidates.update(np.unique(self._partial).tolist())
        return [(value, self.estimate(value)) for value in candidates]

    def frequent_items(self, support: float) -> list[tuple[float, int]]:
        """All values whose estimated count is at least ``(support - eps) N``.

        Section 5.1: "the eps-approximate query returns all the elements
        ... with a frequency count of (s - eps) N".  The result contains
        every value whose *true* frequency is at least ``support * N``
        (no false negatives) and no value below ``(support - eps) * N``.
        """
        if not 0.0 <= support <= 1.0:
            raise QueryError(f"support must be in [0, 1], got {support}")
        if support < self.eps:
            raise QueryError(
                f"support {support} below eps {self.eps}: the guarantee "
                "threshold (s - eps) N would be vacuous")
        total = self.count + self.pending
        threshold = (support - self.eps) * total
        candidates = set(self._entries)
        if self._partial.size:
            candidates.update(np.unique(self._partial).tolist())
        items = [(value, self.estimate(value)) for value in candidates]
        result = [(value, est) for value, est in items if est >= threshold]
        result.sort(key=lambda pair: (-pair[1], pair[0]))
        return result

    def space_bound(self) -> int:
        """The worst-case entry bound ``(1/eps) log(eps N + 1)`` (MM02)."""
        if self.count == 0:
            return 0
        return math.ceil((1.0 / self.eps)
                         * math.log(self.eps * self.count + 1.0) + 1)

    def check_invariant(self) -> None:
        """Raise :class:`InvariantViolation` on internal inconsistency."""
        bucket = self.windows_processed
        for value, entry in self._entries.items():
            if entry.count < 1:
                raise InvariantViolation(f"entry {value} has count < 1")
            if entry.delta > max(0, bucket - 1):
                raise InvariantViolation(
                    f"entry {value}: delta {entry.delta} exceeds bucket "
                    f"{bucket} - 1")
        if len(self) > max(16, 4 * self.space_bound()):
            raise InvariantViolation(
                f"summary holds {len(self)} entries, far above the "
                f"theoretical bound {self.space_bound()}")


register_estimator(
    "lossy-counting", LossyCounting,
    # Deterministic counting: the planner may serve heavy-hitter,
    # top-k, and point-estimate metrics from one sketch; per-element
    # merge scans the bucket histogram, compress scans ~1/eps entries.
    capabilities=EstimatorCapabilities(
        statistic="frequency",
        metrics=("heavy_hitters", "top_k", "estimate"),
        driver="frequency",
        merge_cycles=40.0, compress_cycles=10.0,
        entries_per_inverse_eps=1.0, bound_type="count-under"),
    builder=lambda eps, window_size, hint: LossyCounting(eps))
