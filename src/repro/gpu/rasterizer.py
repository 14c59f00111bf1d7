"""Quad rasterization with texture-coordinate interpolation.

This module implements the one drawing primitive the paper's algorithms
need: rendering an axis-aligned textured quadrilateral into the frame
buffer (Routines 4.1 and 4.2).  The comparator *mapping* of the sorting
network is encoded purely in the texture coordinates assigned to the
quad's vertices — e.g. reversed coordinates make pixel ``i`` fetch texel
``B - 1 - i``, which is exactly the mirror comparison of the periodic
balanced sorting network.

Rasterization rules (matching OpenGL):

* A destination rectangle ``(x0, y0, x1, y1)`` covers the integer pixels
  ``x in [x0, x1)`` and ``y in [y0, y1)``; fragments are generated at pixel
  centers ``(x + 0.5, y + 0.5)``.
* Texture coordinates are interpolated linearly between the quad's edges
  and sampled with nearest filtering (``floor``).

Because all quads used by the paper are axis-aligned, the interpolation is
separable in x and y, and the sampled texel grid is the outer product of a
column-index vector and a row-index vector.  :func:`draw_quad` executes
one quad as one vectorised gather + blend.  :func:`plan_quads` and
:func:`draw_quad_batch` go one step further for a group of quads that
sample the same texture and write disjoint frame-buffer regions (every
step of the sorting network): the group executes as one gather + blend,
with every quad still checked and counted as its own pass.  Both paths
derive the index math from the quads' vertex attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import RasterizationError
from .blend import BlendOp, apply_blend
from .counters import PerfCounters
from .framebuffer import FrameBuffer
from .texture import BYTES_PER_TEXEL, Texture2D


def _interp_indices(dst_lo: float, dst_hi: float,
                    tex_lo: float, tex_hi: float) -> np.ndarray:
    """Texel indices sampled by pixels ``[dst_lo, dst_hi)`` along one axis.

    ``tex_lo`` / ``tex_hi`` are the texture coordinates attached to the two
    edges of the quad along this axis; they may run backwards to mirror the
    fetch direction.
    """
    count = int(round(dst_hi - dst_lo))
    centers = np.arange(count, dtype=np.float64) + 0.5
    t = centers / (dst_hi - dst_lo)
    coords = tex_lo + t * (tex_hi - tex_lo)
    return np.floor(coords).astype(np.intp)


def _rasterize(framebuffer_size: tuple[int, int],
               texture_size: tuple[int, int],
               dst_rect: tuple[float, float, float, float],
               tex_rect: tuple[float, float, float, float],
               ) -> tuple[tuple[int, int, int, int], np.ndarray, np.ndarray]:
    """Check one quad and return the pixels it covers and the texels it samples.

    Every drawn quad passes the same three checks: it is not degenerate,
    it lies inside the ``(width, height)`` frame buffer, and its texture
    coordinates sample inside the ``(width, height)`` texture.  Returns
    ``((ix0, iy0, ix1, iy1), rows, cols)``: the covered pixel rectangle
    and the texel row (column) sampled by each covered pixel row
    (column).
    """
    fb_width, fb_height = framebuffer_size
    tex_width, tex_height = texture_size
    x0, y0, x1, y1 = dst_rect
    u0, v0, u1, v1 = tex_rect
    if not (x1 > x0 and y1 > y0):
        raise RasterizationError(f"degenerate quad: dst_rect={dst_rect}")
    if x0 < 0 or y0 < 0 or x1 > fb_width or y1 > fb_height:
        raise RasterizationError(
            f"quad {dst_rect} outside {fb_width}x{fb_height} frame buffer")
    bounds = tuple(int(round(v)) for v in (x0, y0, x1, y1))

    cols = _interp_indices(x0, x1, u0, u1)
    rows = _interp_indices(y0, y1, v0, v1)
    if cols.size and (cols.min() < 0 or cols.max() >= tex_width):
        raise RasterizationError(
            f"texture u-coordinates [{u0}, {u1}] sample outside 0..{tex_width}")
    if rows.size and (rows.min() < 0 or rows.max() >= tex_height):
        raise RasterizationError(
            f"texture v-coordinates [{v0}, {v1}] sample outside 0..{tex_height}")
    return bounds, rows, cols


def draw_quad(framebuffer: FrameBuffer,
              texture: Texture2D,
              dst_rect: tuple[float, float, float, float],
              tex_rect: tuple[float, float, float, float],
              counters: PerfCounters | None = None,
              label: str = "pass") -> int:
    """Render one textured, axis-aligned quad into ``framebuffer``.

    Parameters
    ----------
    framebuffer:
        Render target; its current :class:`BlendOp` decides whether this is
        a plain copy or a MIN/MAX conditional assignment.
    texture:
        The active texture sampled by the fragments.
    dst_rect:
        ``(x0, y0, x1, y1)`` destination rectangle in pixels.
    tex_rect:
        ``(u0, v0, u1, v1)`` texture coordinates at the matching corners.
        Reversed ranges mirror the fetch along that axis.
    counters:
        When given, the pass is recorded there.
    label:
        Counter label for the pass breakdown.

    Returns
    -------
    int
        The number of fragments generated.

    Raises
    ------
    RasterizationError
        If the quad is degenerate, leaves the frame buffer, or samples
        outside the texture.
    """
    (ix0, iy0, ix1, iy1), rows, cols = _rasterize(
        (framebuffer.width, framebuffer.height),
        (texture.width, texture.height), dst_rect, tex_rect)

    source = texture.view()[rows[:, None], cols[None, :], :]
    dest = framebuffer.pixels()[iy0:iy1, ix0:ix1, :]
    blend_op = framebuffer.blend_op
    dest[...] = apply_blend(blend_op, source, dest)

    fragments = (ix1 - ix0) * (iy1 - iy0)
    if counters is not None:
        counters.record_pass(fragments, blended=blend_op.is_blending,
                             bytes_per_texel=BYTES_PER_TEXEL, label=label)
    return fragments


class Quad(NamedTuple):
    """One quad of a batch: its rectangles and the pass it is counted as.

    ``dst_rect`` and ``tex_rect`` mean what they mean for
    :func:`draw_quad`; ``blend`` is the blend equation the quad draws
    under and ``label`` its pass-breakdown label.
    """

    dst_rect: tuple[float, float, float, float]
    tex_rect: tuple[float, float, float, float]
    blend: BlendOp
    label: str


@dataclass(frozen=True, eq=False)
class QuadBatch:
    """A checked group of quads that rasterizes as one gather + blend.

    Built by :func:`plan_quads`.  The quads share their extent and their
    sampled texel indices along one axis and tile a contiguous span of
    the other, ``axis`` (0: stacked rows, 1: side-by-side columns).  So
    the group samples one outer product of a row-index and a
    column-index vector, and its blend equation varies along ``axis``
    only: every index array is O(W + H), and all are read-only because
    one batch may be shared by many draws.

    The covered positions along ``axis`` are grouped by blend equation:
    ``rows`` / ``cols`` hold the sampled texel indices in that grouped
    order, each entry of ``runs`` is one blending equation with its
    slice of the grouped order and the region positions it covers, and
    ``inverse`` puts the grouped order back.
    """

    framebuffer_size: tuple[int, int]
    texture_size: tuple[int, int]
    #: covered pixels, as ``(row slice, column slice)``.
    region: tuple[slice, slice]
    axis: int
    rows: np.ndarray
    cols: np.ndarray
    inverse: np.ndarray
    runs: tuple[tuple[BlendOp, tuple[slice, ...], np.ndarray], ...]
    #: one ``(label, blend, passes, fragments)`` entry per (label, blend)
    #: pair, in the order the quads first use it.
    groups: tuple[tuple[str, BlendOp, int, int], ...]
    passes: int
    fragments: int
    #: blend state after the batch: the last quad's equation.
    last_blend: BlendOp


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def plan_quads(quads: Sequence[Quad], framebuffer_size: tuple[int, int],
               texture_size: tuple[int, int]) -> QuadBatch:
    """Check ``quads`` and plan them as one :class:`QuadBatch`.

    Each quad passes :func:`draw_quad`'s checks against the
    ``(width, height)`` frame buffer and texture, in quad order, and its
    texel indices come from its own vertex attributes.  The quads must
    also write disjoint pixels in a shape one gather can serve: equal
    extent and sampled texels along one axis, and a gap-free tiling of
    the other.  Drawing the batch then equals drawing the quads one by
    one, because no quad reads a pixel another one writes.

    Raises
    ------
    RasterizationError
        If any quad fails a check, or the quads do not have that shape.
    """
    if not quads:
        raise RasterizationError("a quad batch needs at least one quad")
    drawn = [_rasterize(framebuffer_size, texture_size, q.dst_rect, q.tex_rect)
             for q in quads]
    # Per quad and per axis (0 = y, 1 = x): covered extent, sampled texels.
    extents = [((b[1], b[3]), (b[0], b[2])) for b, _, _ in drawn]
    texels = [(rows, cols) for _, rows, cols in drawn]
    for axis in (1, 0):
        other = 1 - axis
        if all(ext[other] == extents[0][other]
               and np.array_equal(tex[other], texels[0][other])
               for ext, tex in zip(extents, texels)):
            break
    else:
        raise RasterizationError(
            "quads of one batch must share their extent and sampled texels "
            "along one axis")

    by_start = sorted(range(len(quads)), key=lambda k: extents[k][axis][0])
    start = end = extents[by_start[0]][axis][0]
    for k in by_start:
        lo, hi = extents[k][axis]
        if lo != end:
            raise RasterizationError(
                f"quads of one batch must tile one span without gaps or "
                f"overlaps; a quad covers [{lo}, {hi}) after {end}")
        end = hi

    ops = list(BlendOp)
    op_codes = np.concatenate([
        np.full(extents[k][axis][1] - extents[k][axis][0],
                ops.index(quads[k].blend)) for k in by_start])
    order = _read_only(np.argsort(op_codes, kind="stable"))
    split_texels = np.concatenate([texels[k][axis] for k in by_start])[order]
    edges = np.searchsorted(op_codes[order], np.arange(len(ops) + 1))
    lead = (slice(None),) * axis
    runs = tuple((op, lead + (slice(int(lo), int(hi)),), order[lo:hi])
                 for op, lo, hi in zip(ops, edges[:-1], edges[1:])
                 if hi > lo and op.is_blending)

    groups: dict[tuple[str, BlendOp], list[int]] = {}
    fragments = 0
    for quad, ((ix0, iy0, ix1, iy1), _, _) in zip(quads, drawn):
        quad_fragments = (ix1 - ix0) * (iy1 - iy0)
        fragments += quad_fragments
        group = groups.setdefault((quad.label, quad.blend), [0, 0])
        group[0] += 1
        group[1] += quad_fragments

    span = slice(start, end)
    shared = slice(*extents[0][1 - axis])
    shared_texels = texels[0][1 - axis]
    return QuadBatch(
        framebuffer_size=tuple(framebuffer_size),
        texture_size=tuple(texture_size),
        region=(span, shared) if axis == 0 else (shared, span),
        axis=axis,
        rows=_read_only(split_texels if axis == 0 else shared_texels),
        cols=_read_only(split_texels if axis == 1 else shared_texels),
        inverse=_read_only(np.argsort(order)),
        runs=runs,
        groups=tuple((label, blend, passes, frags)
                     for (label, blend), (passes, frags) in groups.items()),
        passes=len(quads),
        fragments=fragments,
        last_blend=quads[-1].blend,
    )


def draw_quad_batch(framebuffer: FrameBuffer, texture: Texture2D,
                    batch: QuadBatch,
                    counters: PerfCounters | None = None) -> int:
    """Render every quad of ``batch`` as one gather + one blend.

    The result, the counters and the final blend state equal drawing
    the batch's quads one by one with :func:`draw_quad`, each under its
    own blend equation: the texels are gathered once, each blend
    equation is applied to the pixels its quads cover, and every quad is
    still counted as one pass of its (label, blend) group.

    Returns
    -------
    int
        The number of fragments generated across the batch.

    Raises
    ------
    RasterizationError
        If the frame buffer or texture differs in size from the ones the
        batch was checked against; nothing is drawn then.
    """
    if ((framebuffer.width, framebuffer.height) != batch.framebuffer_size
            or (texture.width, texture.height) != batch.texture_size):
        raise RasterizationError(
            f"quad batch checked for frame buffer and texture sizes "
            f"{batch.framebuffer_size} and {batch.texture_size}, drawn with "
            f"{(framebuffer.width, framebuffer.height)} and "
            f"{(texture.width, texture.height)}")
    source = texture.view().take(batch.rows, axis=0).take(batch.cols, axis=1)
    dest = framebuffer.pixels()[batch.region]
    for op, span, positions in batch.runs:
        part = source[span]
        part[...] = apply_blend(op, part, dest.take(positions, axis=batch.axis))
    # The permutation is valid by construction; "clip" lets take write
    # straight into the frame buffer instead of through a buffer.
    np.take(source, batch.inverse, axis=batch.axis, out=dest, mode="clip")
    framebuffer.set_blend(batch.last_blend)
    if counters is not None:
        for label, blend, passes, fragments in batch.groups:
            counters.record_pass(fragments, passes=passes,
                                 blended=blend.is_blending,
                                 bytes_per_texel=BYTES_PER_TEXEL, label=label)
    return batch.fragments


def copy_texture(framebuffer: FrameBuffer, texture: Texture2D,
                 counters: PerfCounters | None = None) -> int:
    """Routine 4.1 (``Copy``): blit a whole texture into the frame buffer.

    Temporarily disables blending, draws one full-texture quad with
    identity texture coordinates, and restores the previous blend state.
    """
    previous = framebuffer.blend_op
    framebuffer.set_blend(BlendOp.REPLACE)
    try:
        fragments = draw_quad(
            framebuffer, texture,
            dst_rect=(0, 0, texture.width, texture.height),
            tex_rect=(0, 0, texture.width, texture.height),
            counters=counters, label="copy")
    finally:
        framebuffer.set_blend(previous)
    return fragments
