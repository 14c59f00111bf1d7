"""Window-based quantile summaries (Greenwald-Khanna 2004, Section 5.2).

The paper lifts the sensor-network summaries of Greenwald and Khanna [21]
to the stream setting: each window is **sorted** (on the GPU), an
eps-approximate summary is extracted by **sampling** the sorted sequence,
and summaries are combined with a lossless **merge** followed by a lossy
**prune** that caps the memory footprint.

A summary here is three parallel arrays (no per-entry objects) over a
population of ``count`` elements: ``values`` (float64, ascending) and the
rank bounds ``rmins`` and ``rmaxs`` (int64), with the guarantee that for
every target rank ``r`` some entry ``i`` satisfies both
``r - rmins[i] <= error * count`` and ``rmaxs[i] - r <= error * count``.

The three operations and their error arithmetic (all from GK04):

========  ==========================================================
sample    from a sorted window: error ``e`` using ``floor(2 e n)``-
          spaced ranks (both extremes included)
merge     ``error = max(error_a, error_b)`` (lossless)
prune     to ``B + 1`` entries: ``error += 1 / (2 B)``
========  ==========================================================

Both rank-bound arrays are nondecreasing (sampling gives exact ranks,
prune keeps a subsequence, merge keeps each input's order and puts equal
values of the first input before the second's, whose bounds are no
smaller); the constructor checks it, and it lets one ``searchsorted``
answer every rank lookup (:meth:`QuantileSummary._lookup`).
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import InvariantViolation, QueryError, SummaryError


def _frozen(array, dtype) -> np.ndarray:
    """A read-only 1-d view, so summaries can share arrays safely."""
    view = np.asarray(array, dtype=dtype).view()
    view.flags.writeable = False
    return view


class QuantileSummary:
    """An epsilon-approximate quantile summary with explicit rank bounds.

    Instances are immutable: the three arrays are read-only, and
    :meth:`merge` and :meth:`prune` return new summaries.  Build one
    with :meth:`from_sorted`.
    """

    def __init__(self, values, rmins, rmaxs, count: int, error: float):
        self.values = _frozen(values, np.float64)
        self.rmins = _frozen(rmins, np.int64)
        self.rmaxs = _frozen(rmaxs, np.int64)
        if not (self.values.ndim == 1 and self.values.shape
                == self.rmins.shape == self.rmaxs.shape):
            raise SummaryError("values, rmins, rmaxs: 1-d, one length")
        if count < 0:
            raise SummaryError(f"count must be non-negative, got {count}")
        if error < 0:
            raise SummaryError(f"error must be non-negative, got {error}")
        if count > 0 and not self.values.size:
            raise SummaryError("a non-empty population needs entries")
        bad = (self.rmins < 1) | (self.rmins > self.rmaxs)
        if bad.any():
            i = int(np.argmax(bad))
            raise SummaryError(f"invalid rank bounds rmin={self.rmins[i]}, "
                               f"rmax={self.rmaxs[i]}")
        if (np.any(self.rmins[1:] < self.rmins[:-1])
                or np.any(self.rmaxs[1:] < self.rmaxs[:-1])):
            raise SummaryError("rank bounds must be nondecreasing")
        self.count = int(count)
        self.error = float(error)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "QuantileSummary":
        """A summary of zero elements."""
        return cls([], [], [], 0, 0.0)

    @classmethod
    def from_sorted(cls, sorted_values: np.ndarray,
                    error: float) -> "QuantileSummary":
        """Sample an ascending window into an ``error``-approximate summary.

        Takes the elements of rank ``1, s+1, 2s+1, ..., n`` with spacing
        ``s = max(1, floor(2 * error * n))``; the nearest kept rank is
        then within ``floor(s / 2) <= error * n`` of any target rank, so
        answering a rank query with the nearest kept element honours the
        recorded ``error`` exactly.  (``ceil`` would be one rank too
        coarse on duplicate-heavy inputs: a spacing of ``ceil(2 e n)``
        can leave a mid-gap rank ``ceil(s / 2) > e n`` away from every
        kept element.)  Ranks are exact (``rmin == rmax``) because the
        window was fully sorted.
        """
        arr = np.asarray(sorted_values).ravel()
        n = int(arr.size)
        if n == 0:
            return cls.empty()
        if np.any(arr[1:] < arr[:-1]):
            raise SummaryError("from_sorted requires ascending input")
        if error < 0:
            raise SummaryError(f"error must be non-negative, got {error}")
        step = max(1, math.floor(2.0 * error * n))
        ranks = np.arange(1, n + 1, step, dtype=np.int64)
        if ranks[-1] != n:
            ranks = np.append(ranks, n)
        return cls(arr[ranks - 1], ranks, ranks, n, error)

    # ------------------------------------------------------------------
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """A versioned, JSON-serializable snapshot of this summary.

        Values are stored as Python floats (float32 stream values are
        exactly representable in a double, so the round trip is
        lossless) and rank bounds as ints; :meth:`from_state` rebuilds
        an identical summary.
        """
        return {
            "version": 1,
            "kind": "quantile-summary",
            "count": self.count,
            "error": self.error,
            "values": self.values.tolist(),
            "rmins": self.rmins.tolist(),
            "rmaxs": self.rmaxs.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSummary":
        """Rebuild a summary from :meth:`to_state` output."""
        if state.get("kind") != "quantile-summary" or \
                state.get("version") != 1:
            raise SummaryError(
                f"not a v1 quantile-summary state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        return cls(state["values"], state["rmins"], state["rmaxs"],
                   int(state["count"]), float(state["error"]))

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSummary") -> "QuantileSummary":
        """Lossless merge (GK04): combined error is the max of the inputs.

        For an entry ``x`` drawn from summary A, with ``pred``/``succ``
        its neighbours among B's entries:

        * ``rmin' = rmin_A(x) + rmin_B(pred)``  (0 if no predecessor)
        * ``rmax' = rmax_A(x) + rmax_B(succ) - 1``
          (``rmax_A(x) + rmax_B(last)`` if no successor)
        """
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        # Ties are broken consistently: equal values of `self` precede
        # equal values of `other`.  For an element of the *first* source
        # its predecessor in the other summary must be strictly smaller
        # and its successor may be equal ("left" bisection); for the
        # *second* source the roles flip ("right").  Without a consistent
        # tie-break, duplicated values across the inputs widen the rank
        # bounds past the guarantee.
        pieces_v, pieces_lo, pieces_hi = [], [], []
        for source, against, side in ((self, other, "left"),
                                      (other, self, "right")):
            idx = np.searchsorted(against.values, source.values, side=side)
            # At ``idx``: the predecessor's rmin (0 if none) and the
            # successor's rmax - 1 (the last rmax if none).
            pred_rmin = np.concatenate(([0], against.rmins))
            succ_rmax = np.append(against.rmaxs - 1, against.rmaxs[-1])
            rmin = source.rmins + pred_rmin[idx]
            rmax = source.rmaxs + succ_rmax[idx]
            pieces_v.append(source.values)
            pieces_lo.append(rmin)
            pieces_hi.append(np.maximum(rmin, rmax))
        all_v = np.concatenate(pieces_v)
        all_lo = np.concatenate(pieces_lo)
        all_hi = np.concatenate(pieces_hi)
        order = np.lexsort((all_lo, all_v))
        return QuantileSummary(all_v[order], all_lo[order], all_hi[order],
                               self.count + other.count,
                               max(self.error, other.error))

    @staticmethod
    def merge_all(summaries: list["QuantileSummary"]) -> "QuantileSummary":
        """Merge many summaries with a balanced binary reduction.

        Equivalent to folding :meth:`merge` left-to-right (the operation
        is associative in its guarantees) but each entry participates in
        ``log k`` merges instead of ``O(k)``, which matters when a
        sliding window holds hundreds of sub-window summaries.
        """
        level = [s for s in summaries if s.count] or [QuantileSummary.empty()]
        while len(level) > 1:
            merged = []
            for i in range(0, len(level) - 1, 2):
                merged.append(level[i].merge(level[i + 1]))
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        return level[0]

    def prune(self, budget: int) -> "QuantileSummary":
        """Keep ``budget + 1`` entries; error grows by ``1 / (2 * budget)``.

        Queries the summary at the ranks ``ceil(i * n / budget)`` for
        ``i = 0..budget`` and keeps the answering entries with their
        original rank bounds (GK04's prune).
        """
        if budget < 1:
            raise SummaryError(f"prune budget must be >= 1, got {budget}")
        error = self.error + 1.0 / (2.0 * budget)
        if len(self) <= budget + 1:
            return QuantileSummary(self.values, self.rmins, self.rmaxs,
                                   self.count, error)
        if budget * self.count >= 2 ** 53:   # i * n must be exact doubles
            raise SummaryError(f"prune budget {budget} x count "
                               f"{self.count} reaches 2**53")
        ranks = np.clip(np.ceil(np.arange(budget + 1) * self.count / budget),
                        1, self.count).astype(np.int64)
        kept = self._lookup(ranks)
        kept = kept[np.r_[True, kept[1:] != kept[:-1]]]
        return QuantileSummary(self.values[kept], self.rmins[kept],
                               self.rmaxs[kept], self.count, error)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _lookup(self, ranks):
        """Index of the first entry minimising ``max(r - rmin, rmax - r)``:
        the score falls as ``r - rmin`` while ``rmin + rmax <= 2 r`` and
        rises as ``rmax - r`` after, so the minimum is the first index
        ``k`` past that point or, winning ties, the start of the
        equal-``rmin`` run of its left neighbour (``np.argmin``'s pick).
        """
        k = np.searchsorted(self.rmins + self.rmaxs, 2 * ranks, side="right")
        left = np.maximum(k - 1, 0)
        right = np.minimum(k, len(self) - 1)
        take_left = (k > 0) & ((k == len(self)) | (
            ranks - self.rmins[left] <= self.rmaxs[right] - ranks))
        run_start = np.searchsorted(self.rmins, self.rmins[left], side="left")
        return np.where(take_left, run_start, right)

    def query_rank(self, rank: int) -> float:
        """Value whose true rank is within ``error * count`` of ``rank``."""
        if self.count == 0:
            raise QueryError("query on an empty summary")
        if not 1 <= rank <= self.count:
            raise QueryError(f"rank must be in [1, {self.count}], got {rank}")
        # :meth:`_lookup`'s rule for one rank, on Python scalars: a
        # one-rank query would spend most of its time in NumPy calls.
        k = int((self.rmins + self.rmaxs).searchsorted(2 * rank, "right"))
        if k == len(self) or (
                k and rank - self.rmins[k - 1] <= self.rmaxs[k] - rank):
            k = int(self.rmins.searchsorted(self.rmins[k - 1]))
        return float(self.values[k])

    def quantile(self, phi: float) -> float:
        """The phi-quantile within ``error * count`` rank error."""
        if not 0.0 <= phi <= 1.0:
            raise QueryError(f"phi must be in [0, 1], got {phi}")
        if self.count == 0:
            raise QueryError("quantile of an empty summary")
        return self.query_rank(max(1, math.ceil(phi * self.count)))

    def __len__(self) -> int:
        return int(self.values.size)

    def check_invariant(self) -> None:
        """Validate ordering and rank-bound sanity; raise on violation."""
        if np.any(self.values[1:] < self.values[:-1]):
            raise InvariantViolation("summary entries out of value order")
        if len(self) and self.rmaxs[-1] > self.count:
            raise InvariantViolation(
                f"rmax {self.rmaxs[-1]} exceeds population {self.count}")
        if len(self) and self.rmins[0] > max(1, math.ceil(
                2 * self.error * self.count)):
            raise InvariantViolation("first entry's rmin too large")
