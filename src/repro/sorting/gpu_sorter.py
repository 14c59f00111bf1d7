"""End-to-end GPU sorting facade (Sections 4.1 and 4.4).

:class:`GpuSorter` implements the complete co-processor pipeline the
paper uses inside its streaming algorithms:

1. split the input into four sub-sequences and pack them into the RGBA
   channels of one power-of-two 2D texture, padding with ``+inf``;
2. upload the texture over the bus (billed);
3. run the sorting network (PBSN by default, the prior bitonic baseline
   for comparison) over all four channels in parallel;
4. read the sorted texture back over the bus (billed);
5. merge the four sorted runs on the CPU (Section 4.4's O(n) merge).

The facade records exact perf counters per sort and exposes modelled
GeForce-6800 timing for the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from ..errors import SortError
from ..gpu.counters import PerfCounters
from ..gpu.device import GpuDevice
from ..gpu.texture import CHANNELS, texture_dims_for
from ..gpu.timing import BitonicFragmentProgramModel, GpuTimeBreakdown
from .bitonic import INSTRUCTIONS_PER_PIXEL, bitonic_sort_texture
from .merge import merge_sorted_runs
from .networks import next_power_of_two
from .pbsn import pbsn_sort_texture

#: Sentinel used to pad channels up to the texture size.  Padding sorts to
#: the end of each ascending run and is stripped before the merge.
PAD_VALUE = np.float32(np.inf)


def pack_channels(values: np.ndarray, width: int, height: int) -> np.ndarray:
    """Pack ``values`` into an ``(H, W, 4)`` array, one run per channel.

    The input is split into four contiguous sub-sequences of
    ``ceil(n / 4)`` values (the last may be shorter); each fills one
    channel in row-major order, padded with :data:`PAD_VALUE`.
    """
    per_channel = width * height
    arr = np.asarray(values, dtype=np.float32).ravel()
    if arr.size > per_channel * CHANNELS:
        raise SortError(
            f"{arr.size} values do not fit four {width}x{height} channels")
    packed = np.full((per_channel, CHANNELS), PAD_VALUE, dtype=np.float32)
    chunk = -(-arr.size // CHANNELS)  # ceil division
    for channel in range(CHANNELS):
        part = arr[channel * chunk:(channel + 1) * chunk]
        packed[:part.size, channel] = part
    return packed.reshape(height, width, CHANNELS)


def unpack_channels(texture_data: np.ndarray, counts: list[int]) -> list[np.ndarray]:
    """Extract the four sorted runs, stripping each channel's padding."""
    height, width, channels = texture_data.shape
    flat = texture_data.reshape(height * width, channels)
    return [np.array(flat[:counts[c], c]) for c in range(channels)]


class GpuSorter:
    """Sorts host arrays on the simulated GPU co-processor.

    Parameters
    ----------
    device:
        Device to run on; a fresh :class:`GpuDevice` is created if omitted.
    network:
        ``"pbsn"`` (the paper's algorithm) or ``"bitonic"`` (the prior
        GPU baseline of Purcell et al.).

    Attributes
    ----------
    last_counters:
        Exact op counts of the most recent :meth:`sort`.
    last_n:
        Input size of the most recent :meth:`sort`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.sorting import GpuSorter
    >>> sorter = GpuSorter()
    >>> out = sorter.sort(np.array([3.0, 1.0, 2.0], dtype=np.float32))
    >>> out.tolist()
    [1.0, 2.0, 3.0]
    """

    def __init__(self, device: GpuDevice | None = None, network: str = "pbsn",
                 precision: int = 32):
        if network not in ("pbsn", "bitonic"):
            raise SortError(f"unknown network {network!r}")
        if precision not in (16, 32):
            raise SortError(f"precision must be 16 or 32, got {precision}")
        self.device = device if device is not None else GpuDevice()
        self.network = network
        #: The paper's implementation used "double buffered 16-bit
        #: offscreen buffers" on a 16-bit input stream (Section 5).
        #: precision=16 quantises values to float16 (the functional
        #: effect of the narrower buffers) and halves every byte count
        #: in the modelled memory/bus terms.
        self.precision = precision
        self.last_counters: PerfCounters = PerfCounters()
        self.last_n = 0
        self._bitonic_model = BitonicFragmentProgramModel(
            self.device.spec, INSTRUCTIONS_PER_PIXEL)

    def _quantize(self, arr: np.ndarray) -> np.ndarray:
        """The float16 round-trip under ``precision=16``.

        Runs after the finite check, so an infinite float16 value means
        the input lay beyond float16's range (``|x| >= 65520``): that is
        refused with :class:`SortError` rather than sorted as ``±inf``.
        """
        if self.precision == 16:
            with np.errstate(over="ignore"):
                half = arr.astype(np.float16)
            if not np.all(np.isfinite(half)):
                raise SortError("precision=16 sorts values within float16's "
                                "range (|x| < 65520)")
            return half.astype(np.float32)
        return arr

    @property
    def name(self) -> str:
        """Backend label used by benchmark reports."""
        return f"gpu-{self.network}"

    def sort(self, values: np.ndarray) -> np.ndarray:
        """Sort ``values`` ascending through the full GPU pipeline.

        Only finite float32-representable inputs are supported (the
        padding sentinel is ``+inf``; the paper's streams are 32-bit
        reals), and under ``precision=16`` only values within float16's
        range.  Raises :class:`SortError` otherwise.
        """
        arr = np.asarray(values, dtype=np.float32).ravel()
        self.last_n = int(arr.size)
        if arr.size == 0:
            self.last_counters = PerfCounters()
            return arr.copy()
        if not np.all(np.isfinite(arr)):
            raise SortError("GPU sorter requires finite values "
                            "(padding uses +inf sentinels)")
        arr = self._quantize(arr)

        chunk = -(-arr.size // CHANNELS)
        counts = [max(0, min(chunk, arr.size - c * chunk)) for c in range(CHANNELS)]
        per_channel = next_power_of_two(max(chunk, 1))
        width, height = texture_dims_for(per_channel,
                                         self.device.spec.max_texture_dim)

        before = self.device.counters.snapshot()
        packed = pack_channels(arr, width, height)
        tex = self.device.upload_texture(packed)
        try:
            self.device.bind_framebuffer(width, height)
            if self.network == "pbsn":
                pbsn_sort_texture(self.device, tex)
            else:
                bitonic_sort_texture(self.device, tex)
            sorted_data = self.device.readback_texture(tex)
        finally:
            self.device.delete_texture(tex)
            self.device.framebuffer = None
        self.last_counters = self.device.counters.delta(before)

        runs = unpack_channels(sorted_data, counts)
        return merge_sorted_runs([run for run in runs if run.size])

    def sort_batch(self, windows: list[np.ndarray]) -> list[np.ndarray]:
        """Sort up to four windows simultaneously, one per RGBA channel.

        This is Section 4.1's streaming scheme: "we buffer four windows of
        data values and represent each of the windows in a color component
        of the 2D texture.  Each window of data value is sorted in
        parallel."  Unlike :meth:`sort`, no CPU merge is needed — each
        channel comes back as an independently sorted window.

        Returns the sorted windows in input order.
        """
        if not 1 <= len(windows) <= CHANNELS:
            raise SortError(
                f"sort_batch takes 1 to {CHANNELS} windows, got {len(windows)}")
        arrays = [np.asarray(w, dtype=np.float32).ravel() for w in windows]
        for arr in arrays:
            if arr.size and not np.all(np.isfinite(arr)):
                raise SortError("GPU sorter requires finite values "
                                "(padding uses +inf sentinels)")
        arrays = [self._quantize(arr) for arr in arrays]
        longest = max((arr.size for arr in arrays), default=0)
        if longest == 0:
            self.last_counters = PerfCounters()
            self.last_n = 0
            return [arr.copy() for arr in arrays]
        self.last_n = sum(int(arr.size) for arr in arrays)
        per_channel = next_power_of_two(longest)
        width, height = texture_dims_for(per_channel,
                                         self.device.spec.max_texture_dim)
        packed = np.full((width * height, CHANNELS), PAD_VALUE,
                         dtype=np.float32)
        for channel, arr in enumerate(arrays):
            packed[:arr.size, channel] = arr
        packed = packed.reshape(height, width, CHANNELS)

        before = self.device.counters.snapshot()
        tex = self.device.upload_texture(packed)
        try:
            self.device.bind_framebuffer(width, height)
            if self.network == "pbsn":
                pbsn_sort_texture(self.device, tex)
            else:
                bitonic_sort_texture(self.device, tex)
            sorted_data = self.device.readback_texture(tex)
        finally:
            self.device.delete_texture(tex)
            self.device.framebuffer = None
        self.last_counters = self.device.counters.delta(before)
        counts = [arr.size for arr in arrays]
        counts += [0] * (CHANNELS - len(counts))
        return unpack_channels(sorted_data, counts)[:len(arrays)]

    def modelled_time(self, counters: PerfCounters | None = None) -> GpuTimeBreakdown:
        """Modelled GeForce-6800 time of the last sort (or of ``counters``).

        For the bitonic baseline, compute time follows the
        fragment-program instruction model rather than blend cycles.
        """
        counters = counters if counters is not None else self.last_counters
        if self.precision == 16:
            halved = counters.snapshot()
            halved.bytes_read //= 2
            halved.bytes_written //= 2
            halved.bytes_uploaded //= 2
            halved.bytes_readback //= 2
            counters = halved
        breakdown = self.device.cost_model.breakdown(counters)
        if self.network == "bitonic" and self.last_n:
            # Purcell et al. sort one value per pixel (no RGBA packing);
            # our functional simulation vectorises across channels for
            # speed, but the baseline is billed as published: a full-size
            # single-channel texture at 53 instructions per pixel.
            total = self._bitonic_model.time(next_power_of_two(self.last_n))
            return GpuTimeBreakdown(
                setup=self.device.spec.setup_overhead_s,
                pass_overhead=counters.passes * self.device.spec.pass_overhead_s,
                compute=max(0.0, total - self.device.spec.setup_overhead_s
                            - counters.passes * self.device.spec.pass_overhead_s),
                memory=breakdown.memory,
                transfer=breakdown.transfer,
            )
        return breakdown
