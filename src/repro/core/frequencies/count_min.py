"""Count-Min: point-frequency over-estimates with conservative update.

Cormode & Muthukrishnan's sketch is the mirror image of the paper's
lossy counting (Section 5.1): a ``depth x width`` counter table where
every occurrence of a value increments one counter per row (the row's
hash of the value).  Estimates take the *minimum* across rows, so they
never undercount; with ``width = ceil(e / eps)`` the overcount stays
within ``eps * N`` except with probability ``e^-depth`` per query —
the one-sided ``"count-over"`` bound, where lossy counting's is
``"count-under"``.

Two refinements over the textbook sketch:

* **conservative update** (Estan & Varghese): a batch of ``f``
  occurrences raises each row's counter only up to
  ``current_estimate + f``, never beyond — strictly smaller counters,
  same never-undercount guarantee;
* ingest is driven by the pipeline's run-length histograms, so one
  window costs one hash round per *distinct* value, not per element.

Row hashes reuse the KMV splitmix64 value hash (the service layer
AST-bans builtin ``hash``).  Sketches with equal shape and seed merge
by adding tables: ``min`` of sums is at least the sum of ``min``s, so
the merged sketch still never undercounts, and each table stays below
its own ``eps * N_i`` overcount budget.

The sketch cannot *enumerate* values — ``heavy_hitters`` / ``top_k``
are not in its capability metrics and :meth:`items` raises — it only
answers point estimates.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import QueryError, SummaryError
from ..distinct.kmv import hash_values
from ..estimators import EstimatorCapabilities, register_estimator
from ..histograms import WindowHistogram, histogram_from_sorted

__all__ = ["CountMinSketch", "conservative_update"]


def conservative_update(table: np.ndarray, columns: np.ndarray,
                        freqs: np.ndarray) -> None:
    """Apply one histogram's conservative update to ``table`` in place.

    Histogram entry ``j`` (frequency ``freqs[j]``) raises each row's
    counter at ``columns[row, j]`` to at most ``min(counters) + freq``.
    Entries apply in order, since colliding entries see each other's
    raises, so the walk is sequential.  A scalar loop over the cells
    measured faster than fancy-indexing each entry's cells (DESIGN §16).
    """
    depth = table.shape[0]
    for j in range(freqs.shape[0]):
        low = table[0, columns[0, j]]
        for row in range(1, depth):
            cell = table[row, columns[row, j]]
            if cell < low:
                low = cell
        raised = low + freqs[j]
        for row in range(depth):
            if table[row, columns[row, j]] < raised:
                table[row, columns[row, j]] = raised


class CountMinSketch:
    """Mergeable point-frequency sketch that never undercounts.

    Parameters
    ----------
    eps:
        Overcount fraction: estimates exceed true counts by at most
        ``eps * N`` (except with probability ``e^-depth`` per query).
    depth:
        Hash rows (failure probability ``e^-depth``).
    width:
        Counters per row; defaults to ``ceil(e / eps)``, which is what
        makes the ``eps * N`` bound hold.  Overriding it changes the
        *actual* error while ``error_bound()`` keeps claiming ``eps`` —
        exactly the lie the conformance mutation canary exists to catch.
    seed:
        Row-hash seed (sketches must share it to be mergeable).

    Examples
    --------
    >>> from repro.core.frequencies import CountMinSketch
    >>> cm = CountMinSketch(eps=0.01)
    >>> cm.update([1.0] * 60 + [2.0] * 40)
    >>> cm.estimate(1.0) >= 60
    True
    """

    def __init__(self, eps: float, depth: int = 4,
                 width: int | None = None, seed: int = 0):
        if not 0.0 < eps < 1.0:
            raise SummaryError(f"eps must be in (0, 1), got {eps}")
        if depth < 1:
            raise SummaryError(f"depth must be >= 1, got {depth}")
        self.eps = float(eps)
        self.depth = int(depth)
        self.width = (int(width) if width is not None
                      else max(8, math.ceil(math.e / eps)))
        if self.width < 1:
            raise SummaryError(f"width must be >= 1, got {self.width}")
        self.seed = int(seed)
        self.count = 0
        self.window_size = max(1, math.ceil(1.0 / eps))
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _row_indices(self, values: np.ndarray) -> np.ndarray:
        """(depth, n) column indices for ``values`` (vectorized)."""
        # -0.0 == 0.0 for every dict-keyed estimator and the offline
        # oracle, but the two have different bit patterns; canonicalize
        # so the bit-pattern hash agrees with float equality (otherwise
        # estimate(0.0) could undercount a stream holding -0.0).
        values = values + np.float32(0.0)
        columns = np.empty((self.depth, values.size), dtype=np.int64)
        for row in range(self.depth):
            hashes = hash_values(values,
                                 seed=self.seed * self.depth + row + 1)
            columns[row] = (hashes * self.width).astype(np.int64)
        return columns

    def update_histogram(self, histogram: WindowHistogram) -> None:
        """Conservative update from one window's run-length histogram."""
        values = np.asarray(histogram.values, dtype=np.float32)
        if not values.size:
            return
        freqs = np.asarray(histogram.counts, dtype=np.int64)
        self.count += int(freqs.sum())
        conservative_update(self._table, self._row_indices(values), freqs)

    def update_batch(self, sorted_window: np.ndarray,
                     histogram: WindowHistogram | None = None) -> None:
        """Protocol entry point: absorb one ascending window."""
        if histogram is None:
            histogram = histogram_from_sorted(
                np.sort(np.asarray(sorted_window,
                                   dtype=np.float32).ravel()))
        self.update_histogram(histogram)

    def update(self, values) -> None:
        """Feed raw stream elements (sorts to build the histogram)."""
        arr = np.asarray(values, dtype=np.float32).ravel()
        if arr.size:
            self.update_batch(np.sort(arr))

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """A new sketch over both streams (tables add entrywise)."""
        if not isinstance(other, CountMinSketch):
            raise SummaryError(
                f"cannot merge CountMinSketch with {type(other).__name__}")
        if (other.eps != self.eps or other.depth != self.depth
                or other.width != self.width or other.seed != self.seed):
            raise SummaryError(
                f"merge needs matching tables: eps {self.eps} vs "
                f"{other.eps}, depth {self.depth} vs {other.depth}, "
                f"width {self.width} vs {other.width}, seed {self.seed} "
                f"vs {other.seed}")
        merged = CountMinSketch(self.eps, depth=self.depth,
                                width=self.width, seed=self.seed)
        merged.count = self.count + other.count
        merged._table = self._table + other._table
        return merged

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def estimate(self, value: float) -> int:
        """Estimated frequency of ``value`` (never underestimates)."""
        columns = self._row_indices(
            np.asarray([value], dtype=np.float32))[:, 0]
        return int(self._table[np.arange(self.depth), columns].min())

    def query(self, value: float) -> int:
        """Protocol query: the point estimate for ``value``."""
        return self.estimate(value)

    def items(self) -> list:
        """Unsupported: a count-min table cannot enumerate its values."""
        raise QueryError(
            "count-min answers point estimates only; it cannot enumerate "
            "tracked values — use lossy-counting for heavy hitters")

    def frequent_items(self, support: float) -> list:
        """Unsupported — see :meth:`items`."""
        raise QueryError(
            "count-min answers point estimates only; it cannot enumerate "
            "heavy hitters — use lossy-counting (kind='lossy-counting')")

    def error_bound(self) -> float:
        """Overcount fraction (holds per query w.p. ``1 - e^-depth``)."""
        return self.eps

    @property
    def processed(self) -> int:
        """Elements absorbed."""
        return self.count

    def space(self) -> int:
        """Counter cells held."""
        return self.depth * self.width

    def __len__(self) -> int:
        return self.space()

    # ------------------------------------------------------------------
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Versioned JSON-serializable snapshot (exact counter table)."""
        return {
            "version": 1,
            "kind": "count-min",
            "eps": self.eps,
            "depth": self.depth,
            "width": self.width,
            "seed": self.seed,
            "count": self.count,
            "table": self._table.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "CountMinSketch":
        """Rebuild a sketch from :meth:`to_state` output."""
        if state.get("kind") != "count-min" or state.get("version") != 1:
            raise SummaryError(
                f"not a v1 count-min state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        sketch = cls(float(state["eps"]), depth=int(state["depth"]),
                     width=int(state["width"]), seed=int(state["seed"]))
        sketch.count = int(state["count"])
        sketch._table = np.asarray(state["table"], dtype=np.int64)
        if sketch._table.shape != (sketch.depth, sketch.width):
            raise SummaryError(
                f"table shape {sketch._table.shape} does not match "
                f"depth x width ({sketch.depth}, {sketch.width})")
        return sketch


register_estimator(
    "count-min", CountMinSketch,
    # Point estimates only (no enumeration), so heavy_hitters/top_k are
    # deliberately absent; the wide table makes its compress scan cheap
    # but its per-element merge dearer than lossy counting's.
    capabilities=EstimatorCapabilities(
        statistic="frequency", metrics=("estimate",), driver="frequency",
        randomized=True, merge_cycles=64.0, compress_cycles=2.0,
        entries_per_inverse_eps=8.0, bound_type="count-over"),
    builder=lambda eps, window_size, hint: CountMinSketch(eps))
