"""The end-to-end GPU sorting facade."""

import numpy as np
import pytest

from repro.errors import SortError
from repro.sorting import GpuSorter, pack_channels, unpack_channels
from repro.sorting.gpu_sorter import PAD_VALUE


class TestPacking:
    def test_pack_splits_into_four_runs(self):
        packed = pack_channels(np.arange(8, dtype=np.float32), 2, 1)
        flat = packed.reshape(2, 4)
        assert flat[:, 0].tolist() == [0.0, 1.0]
        assert flat[:, 1].tolist() == [2.0, 3.0]
        assert flat[:, 3].tolist() == [6.0, 7.0]

    def test_pack_pads_with_inf(self):
        packed = pack_channels(np.arange(3, dtype=np.float32), 2, 1)
        flat = packed.reshape(2, 4)
        assert flat[0, 0] == 0.0 and flat[1, 0] == PAD_VALUE
        assert flat[0, 3] == PAD_VALUE

    def test_pack_overflow_raises(self):
        with pytest.raises(SortError):
            pack_channels(np.arange(9, dtype=np.float32), 2, 1)

    def test_unpack_strips_padding(self):
        packed = pack_channels(np.arange(6, dtype=np.float32), 2, 1)
        runs = unpack_channels(packed, [2, 2, 2, 0])
        assert [r.tolist() for r in runs] == [[0, 1], [2, 3], [4, 5], []]


class TestGpuSorterPbsn:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 100, 1000, 4097])
    def test_sorts_any_size(self, rng, n):
        data = (rng.random(n) * 1000).astype(np.float32)
        out = GpuSorter().sort(data)
        assert np.array_equal(out, np.sort(data))

    def test_input_not_modified(self, rng):
        data = rng.random(100).astype(np.float32)
        original = data.copy()
        GpuSorter().sort(data)
        assert np.array_equal(data, original)

    def test_duplicates_and_negatives(self, rng):
        data = rng.integers(-5, 5, 257).astype(np.float32)
        assert np.array_equal(GpuSorter().sort(data), np.sort(data))

    def test_already_sorted_and_reversed(self):
        data = np.arange(512, dtype=np.float32)
        sorter = GpuSorter()
        assert np.array_equal(sorter.sort(data), data)
        assert np.array_equal(sorter.sort(data[::-1].copy()), data)

    def test_rejects_non_finite(self):
        with pytest.raises(SortError):
            GpuSorter().sort(np.array([1.0, np.inf], dtype=np.float32))
        with pytest.raises(SortError):
            GpuSorter().sort(np.array([1.0, np.nan], dtype=np.float32))

    def test_rejects_unknown_network(self):
        with pytest.raises(SortError):
            GpuSorter(network="radix")

    def test_counters_populated(self, rng):
        sorter = GpuSorter()
        sorter.sort(rng.random(1024).astype(np.float32))
        c = sorter.last_counters
        assert c.passes > 0
        assert c.blend_ops > 0
        assert c.bytes_uploaded == c.bytes_readback > 0

    def test_device_resources_released(self, rng):
        sorter = GpuSorter()
        for _ in range(3):
            sorter.sort(rng.random(256).astype(np.float32))
        assert sorter.device.video_memory_used == 0

    def test_modelled_time_positive(self, rng):
        sorter = GpuSorter()
        sorter.sort(rng.random(4096).astype(np.float32))
        breakdown = sorter.modelled_time()
        assert breakdown.sort > 0
        assert breakdown.transfer > 0
        assert breakdown.total == pytest.approx(
            breakdown.sort + breakdown.transfer)


class TestGpuSorterBitonic:
    @pytest.mark.parametrize("n", [2, 100, 1000])
    def test_sorts(self, rng, n):
        data = rng.random(n).astype(np.float32)
        out = GpuSorter(network="bitonic").sort(data)
        assert np.array_equal(out, np.sort(data))

    def test_modelled_time_uses_fragment_program_model(self, rng):
        pbsn = GpuSorter()
        bitonic = GpuSorter(network="bitonic")
        data = rng.random(1 << 14).astype(np.float32)
        pbsn.sort(data)
        bitonic.sort(data)
        assert bitonic.modelled_time().total > pbsn.modelled_time().total


class TestSortBatch:
    def test_batch_returns_each_window_sorted(self, rng):
        windows = [rng.random(100).astype(np.float32) for _ in range(4)]
        outs = GpuSorter().sort_batch(windows)
        assert len(outs) == 4
        for w, out in zip(windows, outs):
            assert np.array_equal(out, np.sort(w))

    def test_batch_fewer_than_four(self, rng):
        windows = [rng.random(64).astype(np.float32) for _ in range(2)]
        outs = GpuSorter().sort_batch(windows)
        assert len(outs) == 2
        for w, out in zip(windows, outs):
            assert np.array_equal(out, np.sort(w))

    def test_batch_unequal_lengths(self, rng):
        windows = [rng.random(n).astype(np.float32) for n in (64, 64, 64, 10)]
        outs = GpuSorter().sort_batch(windows)
        assert [len(o) for o in outs] == [64, 64, 64, 10]
        for w, out in zip(windows, outs):
            assert np.array_equal(out, np.sort(w))

    def test_batch_size_limits(self, rng):
        with pytest.raises(SortError):
            GpuSorter().sort_batch([])
        with pytest.raises(SortError):
            GpuSorter().sort_batch(
                [rng.random(4).astype(np.float32)] * 5)

    @pytest.mark.parametrize("network", ["pbsn", "bitonic"])
    def test_empty_batch_after_sort_models_like_empty_sort(self, rng,
                                                           network):
        """An empty batch resets every per-sort field, ``last_n`` too."""
        sorter = GpuSorter(network=network)
        sorter.sort(rng.random(64).astype(np.float32))
        sorter.sort_batch([np.array([], dtype=np.float32)])
        empty = GpuSorter(network=network)
        empty.sort(np.array([], dtype=np.float32))
        assert sorter.last_n == 0
        assert sorter.modelled_time() == empty.modelled_time()

    def test_batch_single_gpu_pass_cheaper_than_four(self, rng):
        """Four windows in one texture cost one sort, not four."""
        windows = [rng.random(256).astype(np.float32) for _ in range(4)]
        batch_sorter = GpuSorter()
        batch_sorter.sort_batch(windows)
        batch_passes = batch_sorter.last_counters.passes
        single_sorter = GpuSorter()
        total_passes = 0
        for w in windows:
            single_sorter.sort(w)
            total_passes += single_sorter.last_counters.passes
        assert batch_passes < total_passes
