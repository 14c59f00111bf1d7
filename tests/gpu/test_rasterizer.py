"""Quad rasterization: texcoord interpolation, mirroring, blending."""

import numpy as np
import pytest

from repro.errors import RasterizationError
from repro.gpu import (BlendOp, FrameBuffer, PerfCounters, Texture2D,
                       copy_texture, draw_quad)
from repro.gpu.rasterizer import Quad, draw_quad_batch, plan_quads


def make_texture(width, height):
    """Texture whose R channel holds the linear texel index."""
    data = np.zeros((height, width, 4), dtype=np.float32)
    data[..., 0] = np.arange(width * height).reshape(height, width)
    return Texture2D(width, height, data)


class TestCopy:
    def test_copy_is_identity(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        fragments = copy_texture(fb, tex)
        assert fragments == 16
        assert np.array_equal(fb.read(), tex.read())

    def test_copy_restores_blend_state(self):
        tex = make_texture(2, 2)
        fb = FrameBuffer(2, 2)
        fb.set_blend(BlendOp.MIN)
        copy_texture(fb, tex)
        assert fb.blend_op is BlendOp.MIN

    def test_copy_overwrites_under_min_state(self):
        # REPLACE is forced during the copy even if MIN is set.
        tex = make_texture(2, 2)
        fb = FrameBuffer(2, 2)
        fb.pixels()[...] = -100.0
        fb.set_blend(BlendOp.MIN)
        copy_texture(fb, tex)
        assert np.array_equal(fb.read(), tex.read())


class TestInterpolation:
    def test_identity_mapping(self):
        tex = make_texture(8, 2)
        fb = FrameBuffer(8, 2)
        draw_quad(fb, tex, (0, 0, 8, 2), (0, 0, 8, 2))
        assert np.array_equal(fb.read(), tex.read())

    def test_horizontal_mirror(self):
        # Reversed u-coordinates: pixel c fetches texel W-1-c.
        tex = make_texture(8, 1)
        fb = FrameBuffer(8, 1)
        draw_quad(fb, tex, (0, 0, 8, 1), (8, 0, 0, 1))
        expected = tex.read()[:, ::-1, :]
        assert np.array_equal(fb.read(), expected)

    def test_vertical_mirror(self):
        tex = make_texture(2, 6)
        fb = FrameBuffer(2, 6)
        draw_quad(fb, tex, (0, 0, 2, 6), (0, 6, 2, 0))
        expected = tex.read()[::-1, :, :]
        assert np.array_equal(fb.read(), expected)

    def test_double_mirror(self):
        # Routine 4.2's coordinates: both axes reversed.
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        draw_quad(fb, tex, (0, 0, 4, 4), (4, 4, 0, 0))
        expected = tex.read()[::-1, ::-1, :]
        assert np.array_equal(fb.read(), expected)

    def test_sub_rectangle_mirror(self):
        # Pixel columns [0, 2) fetch texel columns [2, 4) reversed —
        # the ComputeRowMin mapping with offset 0, block 4.
        tex = make_texture(4, 2)
        fb = FrameBuffer(4, 2)
        draw_quad(fb, tex, (0, 0, 2, 2), (4, 0, 2, 2))
        out = fb.read()[..., 0]
        ref = tex.read()[..., 0]
        assert np.array_equal(out[:, 0], ref[:, 3])
        assert np.array_equal(out[:, 1], ref[:, 2])

    def test_offset_destination(self):
        tex = make_texture(4, 2)
        fb = FrameBuffer(4, 2)
        draw_quad(fb, tex, (2, 0, 4, 2), (0, 0, 2, 2))
        out = fb.read()[..., 0]
        ref = tex.read()[..., 0]
        assert np.array_equal(out[:, 2:], ref[:, :2])
        assert np.all(out[:, :2] == 0)


class TestBlendedDraws:
    def test_min_blend_mirror(self):
        # The exact ComputeMin comparison of Routine 4.2 on a 1-row block.
        data = np.zeros((1, 8, 4), dtype=np.float32)
        data[0, :, 0] = [5, 1, 4, 8, 2, 7, 3, 6]
        tex = Texture2D(8, 1, data)
        fb = FrameBuffer(8, 1)
        copy_texture(fb, tex)
        fb.set_blend(BlendOp.MIN)
        draw_quad(fb, tex, (0, 0, 4, 1), (8, 0, 4, 1))
        out = fb.read()[0, :, 0]
        # first half: min(x[i], x[7-i])
        assert out.tolist() == [5, 1, 4, 2, 2, 7, 3, 6]

    def test_max_blend_mirror(self):
        data = np.zeros((1, 8, 4), dtype=np.float32)
        data[0, :, 0] = [5, 1, 4, 8, 2, 7, 3, 6]
        tex = Texture2D(8, 1, data)
        fb = FrameBuffer(8, 1)
        copy_texture(fb, tex)
        fb.set_blend(BlendOp.MAX)
        draw_quad(fb, tex, (4, 0, 8, 1), (4, 0, 0, 1))
        out = fb.read()[0, :, 0]
        # second half: max(x[i], x[7-i])
        assert out.tolist() == [5, 1, 4, 8, 8, 7, 3, 6]


class TestValidation:
    def test_degenerate_quad_raises(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        with pytest.raises(RasterizationError):
            draw_quad(fb, tex, (2, 2, 2, 4), (0, 0, 4, 4))

    def test_out_of_bounds_destination_raises(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        with pytest.raises(RasterizationError):
            draw_quad(fb, tex, (0, 0, 5, 4), (0, 0, 4, 4))

    def test_out_of_bounds_texcoords_raise(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        with pytest.raises(RasterizationError):
            draw_quad(fb, tex, (0, 0, 4, 4), (0, 0, 8, 4))


class TestCounters:
    def test_pass_recorded(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        counters = PerfCounters()
        fb.set_blend(BlendOp.MIN)
        draw_quad(fb, tex, (0, 0, 4, 2), (0, 0, 4, 2), counters, "x")
        assert counters.passes == 1
        assert counters.fragments == 8
        assert counters.blend_ops == 8
        assert counters.pass_breakdown == {"x": 1}

    def test_unblended_pass_has_no_blend_ops(self):
        tex = make_texture(4, 4)
        fb = FrameBuffer(4, 4)
        counters = PerfCounters()
        draw_quad(fb, tex, (0, 0, 4, 4), (0, 0, 4, 4), counters)
        assert counters.blend_ops == 0
        assert counters.fragments == 16


class TestQuadBatch:
    #: Three side-by-side quads over an 8x2 target: a mirrored MIN, a
    #: REPLACE and a shifted MAX, all sampling rows [0, 2).
    QUADS = [
        Quad((0, 0, 2, 2), (8, 0, 6, 2), BlendOp.MIN, "a"),
        Quad((2, 0, 5, 2), (0, 0, 3, 2), BlendOp.REPLACE, "b"),
        Quad((5, 0, 8, 2), (5, 0, 8, 2), BlendOp.MAX, "a"),
    ]

    def _target(self):
        fb = FrameBuffer(8, 2)
        fb.pixels()[...] = np.arange(64, dtype=np.float32).reshape(2, 8, 4)[
            :, ::-1] - 20.0
        return fb

    def test_batch_equals_quads_drawn_one_by_one(self):
        tex = make_texture(8, 2)
        one_by_one, batched = self._target(), self._target()
        quad_counters, batch_counters = PerfCounters(), PerfCounters()
        fragments = 0
        for quad in self.QUADS:
            one_by_one.set_blend(quad.blend)
            fragments += draw_quad(one_by_one, tex, quad.dst_rect,
                                   quad.tex_rect, quad_counters, quad.label)
        batch = plan_quads(self.QUADS, (8, 2), (8, 2))
        assert draw_quad_batch(batched, tex, batch, batch_counters) \
            == fragments
        assert batched.read().tobytes() == one_by_one.read().tobytes()
        assert batch_counters == quad_counters
        assert batched.blend_op is one_by_one.blend_op is BlendOp.MAX

    def test_rows_split_like_columns(self):
        tex = make_texture(2, 8)
        quads = [Quad((0, y, 2, y + 2), (2, y + 2, 0, y), blend, "r")
                 for y, blend in ((0, BlendOp.MAX), (2, BlendOp.MIN),
                                  (4, BlendOp.MIN), (6, BlendOp.MAX))]
        one_by_one, batched = FrameBuffer(2, 8), FrameBuffer(2, 8)
        for fb in (one_by_one, batched):
            fb.pixels()[...] = 7.0
        for quad in quads:
            one_by_one.set_blend(quad.blend)
            draw_quad(one_by_one, tex, quad.dst_rect, quad.tex_rect)
        batch = plan_quads(quads, (2, 8), (2, 8))
        assert batch.axis == 0
        draw_quad_batch(batched, tex, batch)
        assert batched.read().tobytes() == one_by_one.read().tobytes()

    @pytest.mark.parametrize("bad", [
        Quad((5, 0, 5, 2), (5, 0, 8, 2), BlendOp.MAX, "degenerate"),
        Quad((5, 0, 9, 2), (4, 0, 8, 2), BlendOp.MAX, "off the target"),
        Quad((5, 0, 8, 2), (6, 0, 9, 2), BlendOp.MAX, "off the texture"),
    ])
    def test_every_quad_is_checked(self, bad):
        with pytest.raises(RasterizationError):
            plan_quads(self.QUADS[:2] + [bad], (8, 2), (8, 2))

    @pytest.mark.parametrize("quads", [
        [],
        # overlap
        [Quad((0, 0, 4, 2), (0, 0, 4, 2), BlendOp.MIN, "x"),
         Quad((3, 0, 8, 2), (3, 0, 8, 2), BlendOp.MAX, "x")],
        # gap
        [Quad((0, 0, 3, 2), (0, 0, 3, 2), BlendOp.MIN, "x"),
         Quad((4, 0, 8, 2), (4, 0, 8, 2), BlendOp.MAX, "x")],
        # neither axis shared: different rows sampled
        [Quad((0, 0, 4, 2), (0, 0, 4, 2), BlendOp.MIN, "x"),
         Quad((4, 0, 8, 2), (4, 2, 8, 0), BlendOp.MAX, "x")],
    ], ids=["empty", "overlap", "gap", "no-shared-axis"])
    def test_rejects_quads_one_gather_cannot_serve(self, quads):
        with pytest.raises(RasterizationError):
            plan_quads(quads, (8, 2), (8, 2))

    def test_draw_rejects_other_sizes_and_draws_nothing(self):
        batch = plan_quads(self.QUADS, (8, 2), (8, 2))
        fb = FrameBuffer(8, 4)
        counters = PerfCounters()
        with pytest.raises(RasterizationError):
            draw_quad_batch(fb, make_texture(8, 2), batch, counters)
        assert not fb.read().any()
        assert counters == PerfCounters()

    def test_batch_arrays_are_read_only(self):
        batch = plan_quads(self.QUADS, (8, 2), (8, 2))
        for array in (batch.rows, batch.cols, batch.inverse,
                      *(positions for _, _, positions in batch.runs)):
            with pytest.raises(ValueError):
                array[0] = 0
