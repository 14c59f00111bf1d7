"""Observability overhead — tracing must not distort what it measures.

The whole point of ``repro trace`` is to reproduce Figure 4's stage
breakdown from live spans; that is only honest if collection barely
perturbs the workload.  This benchmark runs the Figure 4 kernel (upload,
PBSN sort, readback at 16K elements) with the default
:class:`~repro.obs.NullCollector` and again under ``collecting()``, and
asserts the enabled run is less than 10% slower.

One sort takes 5-8 ms, and on a shared-CPU box host jitter moves a
single sort by several ms and a whole batch by tens of percent between
one second and the next.  So each of the ``ROUNDS`` rounds times a
batch of sorts per side lasting at least ``ROUND_SECONDS``, alternating
untraced and traced sorts one by one so a slow spell of the host hits
both sides of the round alike, and the overhead is the median of the
rounds' traced/untraced ratios.  (Comparing the fastest round of each
side instead let one slow spell read as +20% on a correct build.)  The
budget leaves headroom above the few-percent cost the collector
actually adds; a genuine regression — span bookkeeping growing to a
multiple of its current cost — still lands far outside 10%.
"""

import time

import numpy as np

from repro.obs import NullCollector, collecting, collector
from repro.sorting import GpuSorter

from conftest import scaled

ROUNDS = 7
OVERHEAD_BUDGET = 0.10
ROUND_SECONDS = 0.1


def _sort_once(data: np.ndarray) -> float:
    sorter = GpuSorter()
    start = time.perf_counter()
    sorter.sort(data)
    return time.perf_counter() - start


def _round(data: np.ndarray, reps: int) -> tuple[float, float, int]:
    """``reps`` untraced and ``reps`` traced sorts, alternated sort by
    sort: (untraced seconds, traced seconds, most spans per sort)."""
    base = enabled = 0.0
    spans = 0
    for _ in range(reps):
        base += _sort_once(data)
        with collecting() as col:
            enabled += _sort_once(data)
        spans = max(spans, len(col.snapshot()))
    return base, enabled, spans


class TestObservabilityOverhead:
    def test_null_collector_is_the_default(self):
        assert isinstance(collector(), NullCollector)
        assert collector().enabled is False

    def test_overhead_under_budget(self, rng):
        # Never shrink below 16K: the relative overhead is per-pass, so
        # a smaller sort inflates the ratio and the budget check lies.
        data = rng.random(scaled(16384, smoke=16384)).astype(np.float32)
        _sort_once(data)  # warm caches and JIT-free numpy paths
        reps = 1
        while sum(_sort_once(data) for _ in range(reps)) < ROUND_SECONDS:
            reps *= 2

        rounds = [_round(data, reps) for _ in range(ROUNDS)]
        spans = max(spans for _, _, spans in rounds)
        overhead = float(np.median([enabled / base
                                    for base, enabled, _ in rounds])) - 1.0
        print(f"\n{reps} sorts/side/round  base="
              f"{min(r[0] for r in rounds) * 1e3:.1f} ms  enabled="
              f"{min(r[1] for r in rounds) * 1e3:.1f} ms  "
              f"overhead={overhead:+.2%}  spans={spans}")

        # Collection must have actually happened (upload + readback +
        # aggregated per-(label, blend) pass spans)...
        assert spans >= 5
        # ...and still fit the paper-reproduction error budget.
        assert overhead < OVERHEAD_BUDGET, (
            f"span collection costs {overhead:.2%} on the Figure 4 "
            f"workload (budget {OVERHEAD_BUDGET:.0%})")

    def test_enabled_sort_kernel(self, benchmark, rng):
        data = rng.random(scaled(16384)).astype(np.float32)
        sorter = GpuSorter()

        def instrumented():
            with collecting():
                return sorter.sort(data)

        out = benchmark(instrumented)
        assert out.size == data.size
