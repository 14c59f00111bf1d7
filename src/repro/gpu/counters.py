"""Performance counters for the simulated GPU.

Every instrumented operation on the device increments these counters.  The
analytic cost model (:mod:`repro.gpu.timing`) converts them into estimated
wall-clock seconds on the paper's hardware; the benchmark harness prints
both the raw counts and the derived times.

The counters are exact: they are computed from quad areas and transfer
sizes, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PerfCounters:
    """Mutable set of counters accumulated by a :class:`~repro.gpu.device.GpuDevice`."""

    #: number of rendering passes (draw calls) issued.
    passes: int = 0
    #: number of fragments generated across all passes.
    fragments: int = 0
    #: number of blend operations executed (== fragments in blending passes).
    blend_ops: int = 0
    #: number of texels fetched by the texture units.
    texels_fetched: int = 0
    #: bytes written to the frame buffer.
    bytes_written: int = 0
    #: bytes read from textures / frame buffer by the fragment pipeline.
    bytes_read: int = 0
    #: bytes uploaded CPU -> GPU over the bus.
    bytes_uploaded: int = 0
    #: bytes read back GPU -> CPU over the bus.
    bytes_readback: int = 0
    #: number of CPU -> GPU transfers.
    uploads: int = 0
    #: number of GPU -> CPU transfers.
    readbacks: int = 0
    #: labelled pass counts, e.g. {"row_min": 12, "min": 4, ...}.
    pass_breakdown: dict[str, int] = field(default_factory=dict)

    def record_pass(self, fragments: int, *, blended: bool, bytes_per_texel: int,
                    label: str = "pass", passes: int = 1) -> None:
        """Account ``passes`` rendering passes that produced ``fragments``
        fragments between them (every count is linear in both)."""
        self.passes += passes
        self.fragments += fragments
        if blended:
            self.blend_ops += fragments
        self.texels_fetched += fragments
        self.bytes_written += fragments * bytes_per_texel
        # A blended fragment reads both the texel and the destination pixel.
        reads = 2 * fragments if blended else fragments
        self.bytes_read += reads * bytes_per_texel
        self.pass_breakdown[label] = self.pass_breakdown.get(label, 0) + passes

    def record_upload(self, nbytes: int) -> None:
        """Account one CPU -> GPU transfer of ``nbytes`` bytes."""
        self.uploads += 1
        self.bytes_uploaded += nbytes

    def record_readback(self, nbytes: int) -> None:
        """Account one GPU -> CPU transfer of ``nbytes`` bytes."""
        self.readbacks += 1
        self.bytes_readback += nbytes

    def reset(self) -> None:
        """Zero every counter (used between benchmark iterations)."""
        self.passes = 0
        self.fragments = 0
        self.blend_ops = 0
        self.texels_fetched = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.bytes_uploaded = 0
        self.bytes_readback = 0
        self.uploads = 0
        self.readbacks = 0
        self.pass_breakdown = {}

    def snapshot(self) -> "PerfCounters":
        """Return an independent copy of the current counter values."""
        copy = PerfCounters(
            passes=self.passes,
            fragments=self.fragments,
            blend_ops=self.blend_ops,
            texels_fetched=self.texels_fetched,
            bytes_written=self.bytes_written,
            bytes_read=self.bytes_read,
            bytes_uploaded=self.bytes_uploaded,
            bytes_readback=self.bytes_readback,
            uploads=self.uploads,
            readbacks=self.readbacks,
        )
        copy.pass_breakdown = dict(self.pass_breakdown)
        return copy

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Return counters accumulated since the ``earlier`` snapshot."""
        out = PerfCounters(
            passes=self.passes - earlier.passes,
            fragments=self.fragments - earlier.fragments,
            blend_ops=self.blend_ops - earlier.blend_ops,
            texels_fetched=self.texels_fetched - earlier.texels_fetched,
            bytes_written=self.bytes_written - earlier.bytes_written,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_uploaded=self.bytes_uploaded - earlier.bytes_uploaded,
            bytes_readback=self.bytes_readback - earlier.bytes_readback,
            uploads=self.uploads - earlier.uploads,
            readbacks=self.readbacks - earlier.readbacks,
        )
        out.pass_breakdown = {
            key: value - earlier.pass_breakdown.get(key, 0)
            for key, value in self.pass_breakdown.items()
            if value - earlier.pass_breakdown.get(key, 0)
        }
        return out
