"""The GPU PBSN sorter: Routines 4.2-4.4 on the simulated device."""

import dataclasses

import numpy as np
import pytest

from repro.errors import RasterizationError, SortError
from repro.gpu import GpuDevice
from repro.obs import collecting
from repro.sorting import pbsn_sort_texture, sort_step
from repro.sorting.pbsn import (compute_max, compute_min, compute_row_max,
                                compute_row_min)

#: (width, height) of the textures the step tests run on.
TEXTURES = [(4, 4), (8, 4), (16, 8), (32, 32)]


def every_step():
    """(width, height, block) for every PBSN block size of each texture.

    Steps of the 4x4 texture keep the bare block size as their id.
    """
    return [pytest.param(w, h, 1 << k,
                         id=f"{1 << k}" if (w, h) == (4, 4)
                         else f"{w}x{h}-{1 << k}")
            for w, h in TEXTURES for k in range(1, (w * h).bit_length())]


def upload_channels(device, channels):
    """Pack per-channel 1-D arrays into a texture and bind a frame buffer."""
    n = channels.shape[0]
    # most-square power-of-two layout
    log_n = (n - 1).bit_length()
    width = 1 << ((log_n + 1) // 2)
    height = 1 << (log_n // 2)
    assert width * height == n
    data = channels.reshape(height, width, 4).astype(np.float32)
    tex = device.upload_texture(data)
    device.bind_framebuffer(width, height)
    return tex


class TestRoutines:
    def test_compute_row_min_and_max(self, device, rng):
        # one row of 8, single block
        vals = np.zeros((8, 4), dtype=np.float32)
        vals[:, 0] = [5, 1, 4, 8, 2, 7, 3, 6]
        tex = upload_channels(device, vals)
        device.copy_texture_to_framebuffer(tex)
        compute_row_min(device, tex, 0, 4, tex.height)
        compute_row_max(device, tex, 0, 4, tex.height)
        device.copy_framebuffer_to_texture(tex)
        out = device.readback_texture(tex)[..., 0].ravel()
        # blocks of 4: [5,1,4,8] -> [min(5,8),min(1,4),max(1,4),max(5,8)]
        assert out[:4].tolist() == [5, 1, 4, 8]
        assert out[4:].tolist() == [2, 3, 7, 6]

    def test_compute_min_max_multirow(self, device):
        # 2x4 texture, one block spanning both rows (block size 8)
        vals = np.zeros((8, 4), dtype=np.float32)
        vals[:, 0] = [5, 1, 4, 8, 2, 7, 3, 6]
        tex = upload_channels(device, vals)
        device.copy_texture_to_framebuffer(tex)
        compute_min(device, tex, 0, tex.width, 2)
        compute_max(device, tex, 0, tex.width, 2)
        device.copy_framebuffer_to_texture(tex)
        out = device.readback_texture(tex)[..., 0].ravel()
        # mirror pairs (i, 7-i): min first half, max second half
        expected = [min(5, 6), min(1, 3), min(4, 7), min(8, 2),
                    max(8, 2), max(4, 7), max(1, 3), max(5, 6)]
        assert out.tolist() == expected


def per_quad_step(device, tex, width, height, block_size):
    """``SortStep`` as Routine 4.4 writes it: one routine call per quad."""
    if block_size <= width:
        for i in range(width // block_size):
            offset = i * block_size
            compute_row_min(device, tex, offset, block_size, height)
            compute_row_max(device, tex, offset, block_size, height)
    else:
        block_height = block_size // width
        for i in range((width * height) // block_size):
            offset = i * block_height
            compute_min(device, tex, offset, width, block_height)
            compute_max(device, tex, offset, width, block_height)


def pass_totals(spans):
    """``gpu.pass`` span totals per (label, blend): [passes, fragments]."""
    totals = {}
    for span in spans:
        if span.name == "gpu.pass":
            key = (span.attrs["label"], span.attrs["blend"])
            acc = totals.setdefault(key, [0, 0])
            acc[0] += span.attrs["passes"]
            acc[1] += span.attrs["fragments"]
    return totals


class TestSortStep:
    @pytest.mark.parametrize("width,height,block", every_step())
    def test_step_matches_pure_network(self, device, rng, width, height,
                                       block):
        from repro.sorting import apply_comparators, pbsn_step
        n = width * height
        vals = rng.random((n, 4)).astype(np.float32)
        tex = upload_channels(device, vals)
        assert (tex.width, tex.height) == (width, height)
        device.copy_texture_to_framebuffer(tex)
        sort_step(device, tex, tex.width, tex.height, block)
        device.copy_framebuffer_to_texture(tex)
        out = device.readback_texture(tex).reshape(n, 4)
        for channel in range(4):
            expected = apply_comparators(vals[:, channel].astype(np.float64),
                                         pbsn_step(n, block))
            # MIN/MAX blending moves values, it never computes new ones.
            assert np.array_equal(out[:, channel], expected)

    @pytest.mark.parametrize("width,height,block", every_step())
    def test_batched_step_equals_per_quad_routines(self, rng, width, height,
                                                   block):
        """The batched step is exact: pixels, counters and pass spans."""
        # Ties, zeros and negative zeros: the bytes must match, not
        # just the values.
        vals = rng.integers(-50, 50, (width * height, 4)).astype(np.float32)
        vals[::5] = -0.0
        results = []
        for draw_step in (sort_step, per_quad_step):
            device = GpuDevice()
            with collecting() as col:
                tex = upload_channels(device, vals)
                device.copy_texture_to_framebuffer(tex)
                draw_step(device, tex, width, height, block)
                device.flush_pass_spans()
                spans = col.snapshot()
            results.append((device.framebuffer.read(),
                            dataclasses.asdict(device.counters),
                            pass_totals(spans),
                            device.framebuffer.blend_op))
        (batched_fb, batched_counters, batched_spans, batched_blend), \
            (quad_fb, quad_counters, quad_spans, quad_blend) = results
        assert batched_fb.tobytes() == quad_fb.tobytes()
        assert batched_counters == quad_counters
        assert list(batched_counters["pass_breakdown"]) \
            == list(quad_counters["pass_breakdown"])
        assert batched_spans == quad_spans
        assert batched_blend == quad_blend

    def test_cached_plan_still_checks_the_frame_buffer(self, device, rng):
        vals = rng.random((32, 4)).astype(np.float32)
        tex = upload_channels(device, vals)  # 8x4, matching frame buffer
        device.copy_texture_to_framebuffer(tex)
        sort_step(device, tex, tex.width, tex.height, 4)  # plans and caches
        device.bind_framebuffer(4, 4)
        before = device.counters.snapshot()
        with pytest.raises(RasterizationError):
            sort_step(device, tex, tex.width, tex.height, 4)
        assert device.counters == before


class TestFullSort:
    @pytest.mark.parametrize("n", [4, 16, 64, 256, 1024])
    def test_sorts_all_channels(self, device, rng, n):
        vals = rng.random((n, 4)).astype(np.float32)
        tex = upload_channels(device, vals)
        pbsn_sort_texture(device, tex)
        out = device.readback_texture(tex).reshape(n, 4)
        for channel in range(4):
            assert np.array_equal(out[:, channel], np.sort(vals[:, channel]))

    def test_requires_matching_framebuffer(self, device, rng):
        tex = device.upload_texture(rng.random((2, 4, 4)).astype(np.float32))
        device.bind_framebuffer(8, 8)
        with pytest.raises(SortError):
            pbsn_sort_texture(device, tex)

    def test_requires_framebuffer(self, device, rng):
        tex = device.upload_texture(rng.random((2, 4, 4)).astype(np.float32))
        with pytest.raises(SortError):
            pbsn_sort_texture(device, tex)

    def test_single_texel_is_noop(self, device):
        tex = device.upload_texture(np.ones((1, 1, 4), dtype=np.float32))
        device.bind_framebuffer(1, 1)
        pbsn_sort_texture(device, tex)
        assert device.counters.passes == 0

    def test_pass_count_is_deterministic(self, device, rng):
        vals = rng.random((64, 4)).astype(np.float32)
        tex = upload_channels(device, vals)
        pbsn_sort_texture(device, tex)
        first = device.counters.passes
        # re-sort the (sorted) texture: identical pass structure
        before = device.counters.snapshot()
        pbsn_sort_texture(device, tex)
        assert device.counters.delta(before).passes == first
