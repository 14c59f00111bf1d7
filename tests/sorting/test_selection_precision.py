"""Selection queries and the 16-bit buffer mode."""

import numpy as np
import pytest

from repro.errors import SortError
from repro.sorting import (GpuSorter, SortStats, gpu_kth_largest,
                           gpu_kth_smallest, quickselect)


class TestGpuSelection:
    def test_kth_smallest(self, rng):
        data = rng.random(1000).astype(np.float32)
        ordered = np.sort(data)
        for k in (1, 500, 1000):
            assert gpu_kth_smallest(data, k) == ordered[k - 1]

    def test_kth_largest(self, rng):
        data = rng.random(500).astype(np.float32)
        ordered = np.sort(data)[::-1]
        for k in (1, 250, 500):
            assert gpu_kth_largest(data, k) == ordered[k - 1]

    def test_multiple_ks_single_sort(self, rng):
        data = rng.random(256).astype(np.float32)
        sorter = GpuSorter()
        values = gpu_kth_smallest(data, [1, 128, 256], sorter)
        ordered = np.sort(data)
        assert values == [ordered[0], ordered[127], ordered[255]]
        # one sort only
        assert sorter.last_counters.uploads == 1

    def test_k_validation(self, rng):
        data = rng.random(10).astype(np.float32)
        with pytest.raises(SortError):
            gpu_kth_smallest(data, 0)
        with pytest.raises(SortError):
            gpu_kth_largest(data, 11)
        with pytest.raises(SortError):
            gpu_kth_smallest(np.empty(0, dtype=np.float32), 1)


class TestQuickselect:
    @pytest.mark.parametrize("k", [1, 7, 50, 100])
    def test_matches_sort(self, rng, k):
        data = rng.random(100)
        assert quickselect(data, k) == np.sort(data)[k - 1]

    def test_duplicates(self):
        data = np.array([3.0, 1.0, 3.0, 1.0, 2.0])
        assert quickselect(data, 3) == 2.0

    def test_fewer_comparisons_than_sort(self, rng):
        from repro.sorting import quicksort
        data = rng.random(4000)
        select_stats, sort_stats = SortStats(), SortStats()
        quickselect(data, 2000, select_stats)
        quicksort(data, sort_stats)
        assert select_stats.comparisons < sort_stats.comparisons / 2

    def test_validation(self):
        with pytest.raises(SortError):
            quickselect(np.empty(0), 1)
        with pytest.raises(SortError):
            quickselect(np.ones(5), 6)


class TestSixteenBitMode:
    def test_sorts_quantized_values(self, rng):
        data = (rng.random(2000) * 1e4).astype(np.float32)
        out = GpuSorter(precision=16).sort(data)
        expected = np.sort(data.astype(np.float16).astype(np.float32))
        assert np.array_equal(out, expected)

    def test_order_preserved_under_quantization(self, rng):
        # quantisation is monotone: output is ascending regardless
        data = rng.normal(0, 100, 3000).astype(np.float32)
        out = GpuSorter(precision=16).sort(data)
        assert np.all(out[1:] >= out[:-1])

    def test_memory_and_transfer_halved(self, rng):
        data = rng.random(4096).astype(np.float32)
        narrow, wide = GpuSorter(precision=16), GpuSorter()
        narrow.sort(data)
        wide.sort(data)
        t16, t32 = narrow.modelled_time(), wide.modelled_time()
        assert t16.memory == pytest.approx(t32.memory / 2, rel=0.01)
        assert t16.transfer < t32.transfer

    def test_compute_unchanged(self, rng):
        # blending cost is per pixel, not per byte
        data = rng.random(4096).astype(np.float32)
        narrow, wide = GpuSorter(precision=16), GpuSorter()
        narrow.sort(data)
        wide.sort(data)
        assert narrow.modelled_time().compute == \
            wide.modelled_time().compute

    def test_batch_mode_quantizes(self, rng):
        windows = [(rng.random(100) * 1e4).astype(np.float32)
                   for _ in range(2)]
        outs = GpuSorter(precision=16).sort_batch(windows)
        for w, out in zip(windows, outs):
            expected = np.sort(w.astype(np.float16).astype(np.float32))
            assert np.array_equal(out, expected)

    def test_invalid_precision(self):
        with pytest.raises(SortError):
            GpuSorter(precision=24)

    def test_rejects_values_beyond_float16_range(self):
        # Finite inputs at or beyond 65520 would come back as +-inf.
        sorter = GpuSorter(precision=16)
        with pytest.raises(SortError):
            sorter.sort(np.array([1e6, 2.0, -1e6], dtype=np.float32))
        with pytest.raises(SortError):
            sorter.sort_batch([np.array([7e4, 1.0], dtype=np.float32)])
        edge = np.array([65519.0, -65519.0], dtype=np.float32)
        assert sorter.sort(edge).tolist() == [-65504.0, 65504.0]
