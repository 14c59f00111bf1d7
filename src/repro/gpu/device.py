"""The simulated GPU device.

:class:`GpuDevice` bundles everything an algorithm needs to "render": a
video-memory budget holding :class:`~repro.gpu.texture.Texture2D` objects,
one bound :class:`~repro.gpu.framebuffer.FrameBuffer`, the blend state,
the CPU<->GPU :class:`~repro.gpu.bus.Bus` and a shared set of
:class:`~repro.gpu.counters.PerfCounters`.

The API intentionally mirrors the primitive operations the paper's
pseudo-code uses:

========================  =====================================
Paper operation           Device method
==========================  ===================================
transfer texture to GPU     :meth:`upload_texture`
``Copy`` (Routine 4.1)      :meth:`copy_texture_to_framebuffer`
enable blending + DrawQuad  :meth:`set_blend` + :meth:`draw_quad`
one SortStep's DrawQuads    :meth:`draw_quads` (one gather + blend)
copy frame buffer to tex    :meth:`copy_framebuffer_to_texture`
readback sorted data        :meth:`readback_texture` / :meth:`readback_framebuffer`
==========================  ===================================
"""

from __future__ import annotations

import numpy as np

from ..errors import GpuError, TextureError, VideoMemoryError
from ..obs import collector
from .blend import BlendOp
from .bus import Bus
from .counters import PerfCounters
from .framebuffer import FrameBuffer
from .presets import AGP_8X, GEFORCE_6800_ULTRA, BusSpec, GpuSpec
from .rasterizer import QuadBatch, copy_texture, draw_quad, draw_quad_batch
from .texture import BYTES_PER_TEXEL, CHANNELS, Texture2D
from .timing import GpuCostModel, GpuTimeBreakdown


class GpuDevice:
    """A software model of a programmable rasterization GPU.

    Parameters
    ----------
    spec:
        Hardware description used for validation limits (texture size,
        video memory) and for the cost model.
    bus_spec:
        Interconnect description used for transfer-time modelling.
    fault_injector:
        Optional :class:`~repro.gpu.faults.FaultInjector`; when set,
        transfers and render passes may raise injected transient
        :class:`~repro.errors.BusError` /
        :class:`~repro.errors.RasterizationError` per its plan.  The
        default ``None`` changes nothing.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gpu import GpuDevice
    >>> dev = GpuDevice()
    >>> tex = dev.upload_texture(np.zeros((2, 2, 4), dtype=np.float32))
    >>> fb = dev.bind_framebuffer(2, 2)
    >>> dev.copy_texture_to_framebuffer(tex)
    4
    """

    def __init__(self, spec: GpuSpec = GEFORCE_6800_ULTRA,
                 bus_spec: BusSpec = AGP_8X,
                 fault_injector=None):
        self.spec = spec
        self.counters = PerfCounters()
        self.fault_injector = fault_injector
        self.bus = Bus(bus_spec, self.counters, fault_injector)
        self.cost_model = GpuCostModel(spec, bus_spec)
        self.framebuffer: FrameBuffer | None = None
        self._textures: dict[str, Texture2D] = {}
        self._texture_seq = 0
        #: (label, blend) -> [passes, fragments] accumulated since the
        #: last transfer; see :meth:`flush_pass_spans`.
        self._pass_acc: dict[tuple[str, str], list] = {}

    # ------------------------------------------------------------------
    # video memory management
    # ------------------------------------------------------------------
    @property
    def video_memory_used(self) -> int:
        """Bytes of simulated video memory currently allocated."""
        used = sum(t.nbytes for t in self._textures.values())
        if self.framebuffer is not None:
            used += self.framebuffer.nbytes
        return used

    def _check_budget(self, extra_bytes: int) -> None:
        if self.video_memory_used + extra_bytes > self.spec.video_memory_bytes:
            raise VideoMemoryError(
                f"allocation of {extra_bytes} bytes exceeds the "
                f"{self.spec.video_memory_bytes}-byte video memory "
                f"({self.video_memory_used} in use)")

    def create_texture(self, width: int, height: int,
                       name: str | None = None) -> Texture2D:
        """Allocate an empty texture in video memory."""
        if max(width, height) > self.spec.max_texture_dim:
            raise TextureError(
                f"{width}x{height} exceeds the device texture limit of "
                f"{self.spec.max_texture_dim}")
        self._check_budget(width * height * BYTES_PER_TEXEL)
        if name is None:
            name = f"tex{self._texture_seq}"
            self._texture_seq += 1
        if name in self._textures:
            raise TextureError(f"texture {name!r} already exists")
        tex = Texture2D(width, height, name=name)
        self._textures[name] = tex
        return tex

    def delete_texture(self, texture: Texture2D) -> None:
        """Free a texture allocated with :meth:`create_texture`."""
        if self._textures.get(texture.name) is not texture:
            raise TextureError(f"texture {texture.name!r} is not resident")
        del self._textures[texture.name]

    # ------------------------------------------------------------------
    # host <-> device transfers
    # ------------------------------------------------------------------
    def upload_texture(self, data: np.ndarray,
                       name: str | None = None) -> Texture2D:
        """Transfer host data into a newly allocated texture.

        ``data`` must have shape ``(height, width, 4)``.
        """
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != CHANNELS:
            raise TextureError(
                f"upload expects (H, W, {CHANNELS}) data, got {data.shape}")
        height, width = data.shape[:2]
        tex = self.create_texture(width, height, name)
        try:
            tex.write(self.bus.upload(data).reshape(data.shape))
        except Exception:
            # A failed transfer must not leak the just-allocated texture,
            # or retries would exhaust the video-memory budget.
            self.delete_texture(tex)
            raise
        return tex

    def readback_texture(self, texture: Texture2D) -> np.ndarray:
        """Transfer a texture's contents back to the host."""
        self.flush_pass_spans()
        return self.bus.readback(texture.view()).reshape(texture.shape)

    def readback_framebuffer(self) -> np.ndarray:
        """Transfer the bound frame buffer's pixels back to the host."""
        fb = self._require_framebuffer()
        self.flush_pass_spans()
        return self.bus.readback(fb.pixels()).reshape(
            (fb.height, fb.width, CHANNELS))

    # ------------------------------------------------------------------
    # rendering state and passes
    # ------------------------------------------------------------------
    def bind_framebuffer(self, width: int, height: int) -> FrameBuffer:
        """Create and bind a render target of the given size."""
        self._check_budget(width * height * BYTES_PER_TEXEL)
        self.framebuffer = FrameBuffer(width, height)
        return self.framebuffer

    def _require_framebuffer(self) -> FrameBuffer:
        if self.framebuffer is None:
            raise GpuError("no frame buffer bound; call bind_framebuffer first")
        return self.framebuffer

    def set_blend(self, op: BlendOp) -> None:
        """Set the blend equation (``GL_MIN`` / ``GL_MAX`` / disabled)."""
        self._require_framebuffer().set_blend(op)

    def draw_quad(self, texture: Texture2D,
                  dst_rect: tuple[float, float, float, float],
                  tex_rect: tuple[float, float, float, float],
                  label: str = "pass") -> int:
        """Render one textured quad under the current blend state."""
        fb = self._require_framebuffer()
        if self.fault_injector is not None:
            self.fault_injector.check("raster")
        fragments = draw_quad(fb, texture, dst_rect, tex_rect, self.counters,
                              label)
        if collector().enabled:
            self._accumulate_passes(label, fb.blend_op.value, 1, fragments)
        return fragments

    def draw_quads(self, texture: Texture2D, batch: QuadBatch) -> int:
        """Render a planned batch of quads as one gather + blend.

        Equivalent to :meth:`set_blend` + :meth:`draw_quad` for each quad
        of ``batch`` in turn (see
        :func:`~repro.gpu.rasterizer.draw_quad_batch`).  The fault
        injector is consulted once per quad, in quad order, before the
        frame buffer or the counters change, so a faulted batch leaves
        both as they were and a retry redraws it whole.
        """
        fb = self._require_framebuffer()
        if self.fault_injector is not None:
            for _ in range(batch.passes):
                self.fault_injector.check("raster")
        fragments = draw_quad_batch(fb, texture, batch, self.counters)
        if collector().enabled:
            for label, blend, passes, group_fragments in batch.groups:
                self._accumulate_passes(label, blend.value, passes,
                                        group_fragments)
        return fragments

    def copy_texture_to_framebuffer(self, texture: Texture2D) -> int:
        """Routine 4.1: blit ``texture`` into the frame buffer."""
        fb = self._require_framebuffer()
        if self.fault_injector is not None:
            self.fault_injector.check("raster")
        fragments = copy_texture(fb, texture, self.counters)
        if collector().enabled:
            self._accumulate_passes("copy", "none", 1, fragments)
        return fragments

    def _accumulate_passes(self, label: str, blend: str, passes: int,
                           fragments: int) -> None:
        # A sorting network issues thousands of passes per batch, so
        # per-pass Span objects would blow the overhead budget
        # (bench_obs_overhead.py); accumulate and flush instead.
        acc = self._pass_acc.get((label, blend))
        if acc is None:
            self._pass_acc[(label, blend)] = [passes, fragments]
        else:
            acc[0] += passes
            acc[1] += fragments

    def flush_pass_spans(self) -> None:
        """Emit one aggregated ``gpu.pass`` span per (label, blend) group.

        The paper's algorithms all follow "upload once, render, read back
        once", so flushing at the transfer boundaries (this is called by
        the readback methods) scopes the aggregation to one logical GPU
        operation.  Pass/fragment totals are exact; the simulated
        rasterization wall time is attributed to the enclosing pipeline
        stage span rather than timed per pass.
        """
        if not self._pass_acc:
            return
        col = collector()
        if col.enabled:
            for (label, blend), (passes, fragments) in self._pass_acc.items():
                col.record("gpu.pass", 0.0, passes=passes,
                           fragments=fragments, label=label, blend=blend)
        self._pass_acc.clear()

    def copy_framebuffer_to_texture(self, texture: Texture2D) -> None:
        """GPU-internal copy of the frame buffer into ``texture``.

        Used between sorting steps (Routine 4.3, line 8).  Production
        implementations realise this with double-buffered render-to-texture
        ("ping-pong"), which the paper's implementation notes ("optimized
        ... using double buffered 16-bit offscreen buffers") and which makes
        the hand-off a surface rebind rather than a data copy.  The cost
        model therefore treats it as free; no counters are charged.
        """
        fb = self._require_framebuffer()
        if (texture.width, texture.height) != (fb.width, fb.height):
            raise TextureError(
                f"frame buffer {fb.width}x{fb.height} does not match texture "
                f"{texture.width}x{texture.height}")
        texture.write(fb.pixels())

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def modelled_time(self, counters: PerfCounters | None = None) -> GpuTimeBreakdown:
        """Modelled execution time of ``counters`` (default: all so far)."""
        return self.cost_model.breakdown(
            counters if counters is not None else self.counters)
