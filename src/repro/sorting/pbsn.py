"""The paper's GPU sorting algorithm: PBSN via rasterization (Section 4).

This module is a line-for-line implementation of Routines 4.2-4.4 on the
simulated device: the comparator *mapping* of each step is expressed as
the texture coordinates of rendered quads, and the comparators themselves
execute as ``GL_MIN`` / ``GL_MAX`` blending.  All four RGBA channels are
compared simultaneously by every blend, which is what makes the
four-sequences-in-parallel trick of Section 4.4 free.

Data layout
-----------
A channel holds ``n = W * H`` values in row-major order: the value at
linear position ``i`` lives at texel ``(row, col) = (i // W, i % W)``.
The step with block size ``B`` pairs ``i`` with ``B - 1 - i`` inside each
aligned block, which in texture space is:

* ``B <= W`` — blocks are column ranges inside each row ("row blocks");
  the mirror is a horizontal flip of the block (Figure 2, left);
* ``B > W``  — blocks span ``B / W`` whole rows; the mirror flips the
  block both vertically *and* horizontally (Figure 2, right;
  Routine 4.2's reversed coordinates on both axes).
"""

from __future__ import annotations

from functools import lru_cache

from ..errors import GpuError, SortError
from ..gpu.blend import BlendOp
from ..gpu.device import GpuDevice
from ..gpu.rasterizer import Quad, QuadBatch, plan_quads
from ..gpu.texture import Texture2D
from .networks import is_power_of_two


def _row_min_quad(offset: int, block_size: int, height: int) -> Quad:
    half = block_size // 2
    return Quad(dst_rect=(offset, 0, offset + half, height),
                tex_rect=(offset + block_size, 0, offset + half, height),
                blend=BlendOp.MIN, label="row_min")


def _row_max_quad(offset: int, block_size: int, height: int) -> Quad:
    half = block_size // 2
    return Quad(dst_rect=(offset + half, 0, offset + block_size, height),
                tex_rect=(offset + half, 0, offset, height),
                blend=BlendOp.MAX, label="row_max")


def _min_quad(offset: int, width: int, block_height: int) -> Quad:
    half = block_height // 2
    return Quad(dst_rect=(0, offset, width, offset + half),
                tex_rect=(width, offset + block_height, 0, offset + half),
                blend=BlendOp.MIN, label="min")


def _max_quad(offset: int, width: int, block_height: int) -> Quad:
    half = block_height // 2
    return Quad(dst_rect=(0, offset + half, width, offset + block_height),
                tex_rect=(width, offset + half, 0, offset),
                blend=BlendOp.MAX, label="max")


def _draw(device: GpuDevice, tex: Texture2D, quad: Quad) -> None:
    device.set_blend(quad.blend)
    device.draw_quad(tex, dst_rect=quad.dst_rect, tex_rect=quad.tex_rect,
                     label=quad.label)


def compute_row_min(device: GpuDevice, tex: Texture2D,
                    offset: int, block_size: int, height: int) -> None:
    """``ComputeRowMin``: store per-row mirror minima of one row block.

    For every row, columns ``[offset, offset + B/2)`` receive
    ``min(value, mirror)`` where the mirror of column ``c`` is
    ``2*offset + B - 1 - c``.
    """
    _draw(device, tex, _row_min_quad(offset, block_size, height))


def compute_row_max(device: GpuDevice, tex: Texture2D,
                    offset: int, block_size: int, height: int) -> None:
    """``ComputeRowMax``: store per-row mirror maxima of one row block."""
    _draw(device, tex, _row_max_quad(offset, block_size, height))


def compute_min(device: GpuDevice, tex: Texture2D,
                offset: int, width: int, block_height: int) -> None:
    """Routine 4.2 (``ComputeMin``): mirror minima of one multi-row block.

    The block occupies rows ``[offset, offset + block_height)``; its first
    half receives the minimum against the vertically-and-horizontally
    flipped second half.
    """
    _draw(device, tex, _min_quad(offset, width, block_height))


def compute_max(device: GpuDevice, tex: Texture2D,
                offset: int, width: int, block_height: int) -> None:
    """``ComputeMax``: mirror maxima of one multi-row block."""
    _draw(device, tex, _max_quad(offset, width, block_height))


def step_quads(width: int, height: int, block_size: int) -> list[Quad]:
    """The quads of one ``SortStep``, in Routine 4.4's drawing order.

    Each is the quad the matching ``compute_*`` routine draws: the
    row-block case (``block_size <= width``) or the multi-row case,
    exactly as the paper's two-case optimisation splits them.
    """
    quads = []
    if block_size <= width:
        for i in range(width // block_size):
            offset = i * block_size
            quads.append(_row_min_quad(offset, block_size, height))
            quads.append(_row_max_quad(offset, block_size, height))
    else:
        block_height = block_size // width
        for i in range((width * height) // block_size):
            offset = i * block_height
            quads.append(_min_quad(offset, width, block_height))
            quads.append(_max_quad(offset, width, block_height))
    return quads


@lru_cache(maxsize=256)
def _step_batch(framebuffer_size: tuple[int, int],
                texture_size: tuple[int, int],
                width: int, height: int, block_size: int) -> QuadBatch:
    # The key holds every input the quad checks read, so a cached batch
    # is only ever reused where planning it again would pass the same
    # checks.  Batches are immutable and O(W + H) each.
    return plan_quads(step_quads(width, height, block_size),
                      framebuffer_size, texture_size)


def sort_step(device: GpuDevice, tex: Texture2D,
              width: int, height: int, block_size: int) -> None:
    """Routine 4.4 (``SortStep``): one PBSN step over the whole texture.

    Draws :func:`step_quads` as one batch: every quad of a step samples
    the same texture and writes its own part of the frame buffer, so the
    device rasterizes them as one gather + blend while checking and
    counting each quad as its own pass, exactly as drawing them one by
    one with the ``compute_*`` routines would.
    """
    fb = device.framebuffer
    if fb is None:
        raise GpuError("no frame buffer bound; call bind_framebuffer first")
    batch = _step_batch((fb.width, fb.height), (tex.width, tex.height),
                        width, height, block_size)
    device.draw_quads(tex, batch)


def pbsn_sort_texture(device: GpuDevice, tex: Texture2D) -> None:
    """Routine 4.3 (``PBSN``): sort all four channels of ``tex`` in place.

    Runs ``log n`` stages of ``log n`` steps.  Each step renders into the
    frame buffer and copies the result back into the texture (line 8).
    The caller must already have bound a frame buffer of the texture's
    size and uploaded the data; this routine performs only GPU-side work,
    leaving the final readback (line 11) to the caller so transfer costs
    stay visible at the call site.
    """
    width, height = tex.width, tex.height
    n = width * height
    if not (is_power_of_two(width) and is_power_of_two(height)):
        raise SortError(
            f"PBSN requires power-of-two texture dimensions, got {width}x{height}")
    fb = device.framebuffer
    if fb is None or (fb.width, fb.height) != (width, height):
        raise SortError("bind a frame buffer matching the texture before sorting")
    if n < 2:
        return

    log_n = n.bit_length() - 1
    device.copy_texture_to_framebuffer(tex)
    for _stage in range(log_n):
        block = n
        while block >= 2:
            sort_step(device, tex, width, height, block)
            device.copy_framebuffer_to_texture(tex)
            block //= 2
