"""Exact answers over an ingested prefix, and the per-answer bound checks.

Every recorded answer carries the number of chunks ingested before it
and a *slack*: how many of those elements may not have reached the
summary yet (elements since the last read-your-writes barrier).  An
eps-approximate answer over the processed subset is then within
``eps * n + slack`` of the exact answer over the whole prefix, in the
currency its estimator declares (rank, count or relative distinct).
Lossy counting also gives up one count per barrier: each flush closes
one short window (see ``StreamService.drain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from common import Stream


@dataclass
class Record:
    """One answer the producer received, for checking after the run."""

    chunks: int          # chunks ingested before the answer
    slack: int           # elements that may not be summarised yet
    flushes: int         # read-your-writes barriers before the answer
    metric: str          # quantile | heavy_hitters | top_k | estimate | distinct
    params: dict
    value: object
    eps: float           # the bound the answer is held to
    fresh: bool = False


class PrefixOracle:
    """Exact counts of a chunked stream prefix, advanced chunk by chunk."""

    def __init__(self, stream: Stream):
        self.stream = stream
        self.values = np.unique(stream.base)
        self.ids = np.searchsorted(self.values, stream.base)
        self.counts = np.zeros(self.values.size, dtype=np.int64)
        self.chunks = 0
        self._cum = None

    @property
    def n(self) -> int:
        return self.chunks * self.stream.chunk

    def advance(self, chunks: int) -> None:
        if chunks < self.chunks:
            raise ValueError("records must be checked in stream order")
        for k in range(self.chunks, chunks):
            np.add.at(self.counts, self.ids[self.stream.span(k)], 1)
        if chunks != self.chunks:
            self._cum = None
        self.chunks = chunks

    def count(self, value: float) -> int:
        i = int(np.searchsorted(self.values, value))
        if i < self.values.size and self.values[i] == value:
            return int(self.counts[i])
        return 0

    def ranks(self, x: float) -> tuple[int, int]:
        """(#elements < x, #elements <= x) in the prefix."""
        if self._cum is None:
            self._cum = np.concatenate([[0], np.cumsum(self.counts)])
        lo = int(np.searchsorted(self.values, x, side="left"))
        hi = int(np.searchsorted(self.values, x, side="right"))
        return int(self._cum[lo]), int(self._cum[hi])

    def at_least(self, threshold: float) -> np.ndarray:
        return self.values[self.counts >= threshold]

    def distinct(self) -> int:
        return int(np.count_nonzero(self.counts))


def _check_count(oracle: PrefixOracle, value: float, estimate: int,
                 budget: float) -> str | None:
    """Count-under currency: never over, under by at most ``budget``."""
    true = oracle.count(value)
    if estimate > true:
        return f"overcount {value}: {estimate} > {true}"
    if true - estimate > budget:
        return f"undercount {value}: {true} - {estimate} > {budget:.1f}"
    return None


def check_record(oracle: PrefixOracle, rec: Record) -> str | None:
    """``None`` if ``rec`` is within its bound, else a description."""
    oracle.advance(rec.chunks)
    n = oracle.n
    budget = rec.eps * n + rec.slack
    count_budget = budget + rec.flushes
    if rec.metric == "quantile":
        phi = float(rec.params["phi"])
        target = max(1, math.ceil(phi * n))
        below, upto = oracle.ranks(float(rec.value))
        err = max(below + 1 - target, target - upto, 0)
        if err > budget + 1:
            return (f"quantile phi={phi}: rank error {err} > "
                    f"{budget + 1:.1f} (n={n})")
        return None
    if rec.metric == "estimate":
        return _check_count(oracle, float(rec.params["value"]),
                            int(rec.value), count_budget)
    if rec.metric in ("heavy_hitters", "top_k"):
        items = list(rec.value)
        for value, estimate in items:
            miss = _check_count(oracle, float(value), int(estimate),
                                count_budget)
            if miss:
                return f"{rec.metric}: {miss}"
        if rec.metric == "top_k":
            if len(items) > int(rec.params["k"]):
                return f"top_k returned {len(items)} > k items"
            return None
        support = float(rec.params["support"])
        reported = {float(v) for v, _ in items}
        for value in oracle.at_least(support * n + rec.slack + rec.flushes):
            if float(value) not in reported:
                return (f"heavy_hitters s={support}: missed {value} "
                        f"(count {oracle.count(value)}, n={n})")
        return None
    if rec.metric == "distinct":
        # Randomized (KMV): the sketch's error_bound() is a 2-sigma
        # relative error with sigma = eps; like the conformance suite,
        # allow three times that bound.
        exact = oracle.distinct()
        tolerance = 3.0 * 2.0 * rec.eps * exact + 2.0 + rec.slack
        if abs(float(rec.value) - exact) > tolerance:
            return (f"distinct {rec.value} vs exact {exact} beyond "
                    f"{tolerance:.1f}")
        return None
    return f"unknown metric {rec.metric!r}"


def check_all(stream: Stream, records: list[Record]) -> list[str]:
    """Check every record, in stream order; returns the misses."""
    oracle = PrefixOracle(stream)
    misses = []
    for rec in sorted(records, key=lambda r: r.chunks):
        miss = check_record(oracle, rec)
        if miss:
            misses.append(miss)
    return misses
