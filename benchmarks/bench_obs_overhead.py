"""Observability overhead — tracing must not distort what it measures.

The whole point of ``repro trace`` is to reproduce Figure 4's stage
breakdown from live spans; that is only honest if collection barely
perturbs the workload.  This benchmark runs the Figure 4 kernel (upload,
PBSN sort, readback at 16K elements) with the default
:class:`~repro.obs.NullCollector` and again under ``collecting()``, and
asserts the enabled run is less than 10% slower.

The measurements are interleaved (base, enabled, base, enabled, ...)
and min-of-N so CPU frequency drift hits both sides equally.  The
budget leaves headroom above the few-percent cost the collector
actually adds: on a shared-CPU box the 5-8 ms base wall jitters by
several percent between runs, and a budget cut to the measured
overhead turns scheduler noise into failures.  A genuine regression —
span bookkeeping growing to a multiple of its current cost — still
lands far outside 10%.
"""

import time

import numpy as np

from repro.obs import NullCollector, collecting, collector
from repro.sorting import GpuSorter

from conftest import scaled

ROUNDS = 7
OVERHEAD_BUDGET = 0.10


def _sort_once(data: np.ndarray) -> float:
    sorter = GpuSorter()
    start = time.perf_counter()
    sorter.sort(data)
    return time.perf_counter() - start


class TestObservabilityOverhead:
    def test_null_collector_is_the_default(self):
        assert isinstance(collector(), NullCollector)
        assert collector().enabled is False

    def test_overhead_under_budget(self, rng):
        # Never shrink below 16K: the relative overhead is per-pass, so
        # a smaller sort inflates the ratio and the budget check lies.
        data = rng.random(scaled(16384, smoke=16384)).astype(np.float32)
        _sort_once(data)  # warm caches and JIT-free numpy paths

        base = []
        enabled = []
        spans = 0
        for _ in range(ROUNDS):
            base.append(_sort_once(data))
            with collecting() as col:
                enabled.append(_sort_once(data))
                spans = max(spans, len(col.snapshot()))

        best_base, best_enabled = min(base), min(enabled)
        overhead = best_enabled / best_base - 1.0
        print(f"\nbase={best_base * 1e3:.2f} ms  "
              f"enabled={best_enabled * 1e3:.2f} ms  "
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
