"""Figure 3 — sorting performance: GPU PBSN vs GPU bitonic vs CPU quicksort.

The paper's headline sorting result: the rasterization-based PBSN sorter
outperforms the prior GPU bitonic sort by nearly an order of magnitude
and is comparable to the Intel-compiled Quicksort on a Pentium IV at
large n, while losing to the CPU below ~16K elements because of constant
setup costs.
"""

import time

import numpy as np
import pytest

from repro.backends import resolve_sorter
from repro.bench import Table, figure3_series
from repro.bench.report import write_bench_json
from repro.gpu.timing import (CPU_MODEL_INTEL, CPU_MODEL_MSVC,
                              BitonicFragmentProgramModel)
from repro.bench.models import predicted_gpu_sort_time
from repro.sorting import GpuSorter, optimized_sort

from conftest import SMOKE, emit, scaled


class TestFigure3Shape:
    """Assert the figure's qualitative claims from the modelled series."""

    @pytest.fixture(scope="class")
    def table(self):
        table = figure3_series(wall_limit=scaled(1 << 14))
        emit(table)
        return table

    def test_gpu_beats_msvc_at_8m(self, table):
        idx = table.column("n").index(1 << 23)
        assert table.column("gpu_pbsn")[idx] < table.column("cpu_msvc")[idx]

    def test_gpu_comparable_to_intel_at_8m(self, table):
        idx = table.column("n").index(1 << 23)
        ratio = table.column("gpu_pbsn")[idx] / table.column("cpu_intel")[idx]
        assert 0.5 < ratio < 2.0

    def test_gpu_about_3x_slower_below_16k(self, table):
        idx = table.column("n").index(1 << 13)
        ratio = table.column("gpu_pbsn")[idx] / table.column("cpu_msvc")[idx]
        assert 1.5 < ratio < 8.0

    def test_bitonic_order_of_magnitude_slower(self, table):
        idx = table.column("n").index(1 << 23)
        ratio = (table.column("gpu_bitonic")[idx]
                 / table.column("gpu_pbsn")[idx])
        assert ratio > 8

    def test_crossover_exists(self, table):
        """The GPU curve crosses under the MSVC curve somewhere."""
        gpu = table.column("gpu_pbsn")
        msvc = table.column("cpu_msvc")
        signs = [g < c for g, c in zip(gpu, msvc)]
        assert not signs[0] and signs[-1]


class TestFigure3Kernels:
    """Wall-clock kernels behind the figure (pytest-benchmark)."""

    def test_gpu_pbsn_sort(self, benchmark, rng):
        data = rng.random(scaled(4096)).astype(np.float32)
        sorter = GpuSorter()
        out = benchmark(sorter.sort, data)
        assert np.array_equal(out, np.sort(data))

    def test_gpu_bitonic_sort(self, benchmark, rng):
        data = rng.random(scaled(4096)).astype(np.float32)
        sorter = GpuSorter(network="bitonic")
        out = benchmark(sorter.sort, data)
        assert np.array_equal(out, np.sort(data))

    def test_cpu_reference_sort(self, benchmark, rng):
        data = rng.random(scaled(4096)).astype(np.float32)
        out = benchmark(optimized_sort, data)
        assert np.array_equal(out, np.sort(data))


class Test2026Backends:
    """The "2026 hardware" companion curve.

    Wall-clock throughput of the CPU sorter backend on the same Fig. 3
    workload (uniform random float32), plotted against the modelled
    2005 MSVC quicksort from the paper's Pentium IV baseline.  Each run
    is appended to ``BENCH_sorters.json`` for the CI gate.
    """

    BACKENDS = ("cpu-quicksort",)

    @pytest.fixture(scope="class")
    def table(self):
        n = scaled(1 << 20, smoke=1 << 15)
        data = np.random.default_rng(2005).random(n).astype(np.float32)
        reference = np.sort(data)
        modelled_2005_per_s = n / CPU_MODEL_MSVC.time(n)

        table = Table(
            title=f"2026 CPU backends vs modelled 2005 CPU — {n:,} "
                  "uniform float32",
            columns=["backend", "elements_per_s",
                     "speedup_vs_2005_cpu"],
            caption="Same workload as Figure 3; the 2005 column is the "
                    "paper's modelled MSVC quicksort on a Pentium IV. "
                    "Every backend's output is asserted identical to "
                    "np.sort before timing counts.",
        )
        speedups = {}
        for name in self.BACKENDS:
            sorter = resolve_sorter(name)
            out = sorter.sort(data)
            assert np.array_equal(out, reference), name
            wall = min(self._timed(sorter, data) for _ in range(3))
            per_s = n / wall
            speedup = per_s / modelled_2005_per_s
            speedups[name] = speedup
            table.add_row(name, per_s, speedup)
            write_bench_json("sorters", {
                "benchmark": f"fig3_sorter_{name}",
                "backend": name,
                "elements": n,
                "wall_seconds": wall,
                "elements_per_s": per_s,
                "speedup_vs_2005_cpu": speedup,
            })
        emit(table)
        table.speedups = speedups
        return table

    @staticmethod
    def _timed(sorter, data) -> float:
        start = time.perf_counter()
        sorter.sort(data)
        return time.perf_counter() - start

    def test_every_backend_measured(self, table):
        assert sorted(table.column("backend")) == sorted(self.BACKENDS)

    def test_modern_backends_beat_modelled_2005_cpu(self, table):
        if SMOKE:
            pytest.skip("fixed costs dominate at smoke scale")
        for name, speedup in table.speedups.items():
            assert speedup >= 1.5, f"{name}: only {speedup:.2f}x"

    def test_best_backend_at_least_5x_2005_cpu(self, table):
        if SMOKE:
            pytest.skip("fixed costs dominate at smoke scale")
        best = max(table.speedups.values())
        assert best >= 5.0, f"best backend only {best:.2f}x"


class TestModelConsistency:
    def test_modelled_curves_monotone(self):
        for model in (predicted_gpu_sort_time,):
            times = [model(1 << k).total for k in range(12, 24)]
            assert all(b > a for a, b in zip(times, times[1:]))
        for model in (CPU_MODEL_MSVC, CPU_MODEL_INTEL,
                      BitonicFragmentProgramModel()):
            times = [model.time(1 << k) for k in range(12, 24)]
            assert all(b > a for a, b in zip(times, times[1:]))
