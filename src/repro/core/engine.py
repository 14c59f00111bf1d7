"""The stream-mining engine: the paper's GPU co-processor loop (Section 5).

:class:`StreamMiner` is a thin composition of the staged pipeline in
:mod:`repro.core.pipeline`, wired the way the paper's implementation is:

1. a :class:`~repro.core.pipeline.Windower` cuts the stream into windows
   (``ceil(1/eps)`` for frequencies, a configurable width for quantiles,
   the ``eps W / 2`` sub-window for sliding modes);
2. a :class:`~repro.core.pipeline.SortStage` packs **four windows** into
   the RGBA channels of one texture and sorts them in a single GPU pass
   (Section 4.1) — or one by one on the CPU baseline; the backend comes
   from the :mod:`repro.backends` registry;
3. a :class:`~repro.core.pipeline.SummarizeStage` reduces each sorted
   window to a **histogram** (frequencies) or passes it through
   (quantiles, distinct);
4. a :class:`~repro.core.pipeline.MergeStage` **merges** the result into
   the epsilon-approximate estimator — any implementation of the uniform
   :class:`~repro.core.estimators.Estimator` protocol — and the summary
   is **compressed**.

All stages share one :class:`~repro.core.pipeline.TimingModel`, which
measures wall time on this machine and, in parallel, derives *modelled*
times on the paper's hardware (GeForce 6800 Ultra + AGP 8X for the GPU
path, Pentium IV for the CPU path) from exact operation counts.
Figures 5-7 are regenerated from the modelled times.
"""

from __future__ import annotations

import math
import time
from typing import Iterable

import numpy as np

from ..backends import resolve_sorter
from ..errors import QueryError, SummaryError
from ..obs import collector
from ..gpu.device import GpuDevice
from ..gpu.presets import PENTIUM_IV_3_4GHZ
from .distinct.kmv import KMinValues
from .estimators import (build_estimator, default_kind_for,
                         estimator_capabilities, estimator_from_state)
from .frequencies.lossy_counting import LossyCounting
from .pipeline import (COMPRESS_CYCLES_PER_ENTRY,  # noqa: F401 (re-export)
                       HISTOGRAM_CYCLES_PER_ELEMENT, MERGE_CYCLES_PER_ENTRY,
                       OPERATIONS, EngineReport, MergeStage, SortStage,
                       SummarizeStage, TimingModel, Windower)
from .sliding.exponential_histogram import StreamingQuantiles
from .sliding.window_query import (SlidingWindowFrequencies,
                                   SlidingWindowQuantiles)

__all__ = [
    "COMPRESS_CYCLES_PER_ENTRY",
    "EngineReport",
    "HISTOGRAM_CYCLES_PER_ELEMENT",
    "MERGE_CYCLES_PER_ENTRY",
    "OPERATIONS",
    "StreamMiner",
]


class StreamMiner:
    """Epsilon-approximate quantile/frequency mining with a GPU co-processor.

    Parameters
    ----------
    statistic:
        ``"frequency"``, ``"quantile"`` or ``"distinct"``.
    eps:
        Approximation fraction.
    backend:
        A name registered in :mod:`repro.backends` (``"gpu"``, ``"cpu"``,
        ``"gpu-bitonic"``, ...) or any object with ``sort_batch``.
    mode:
        ``"history"`` (queries over the entire past) or ``"sliding"``.
    window_size:
        Window width for history-mode quantiles (frequencies always use
        ``ceil(1/eps)``); defaults to ``ceil(1/eps)``.
    sliding_window:
        Window width ``W`` for sliding mode.
    variable:
        Allow variable-width sliding queries.
    device:
        Optional shared :class:`GpuDevice` for the GPU backend.
    cpu_speedup:
        Constant factor applied to the modelled CPU sort times (1.0 =
        the MSVC baseline, 1.5 = the paper's Intel build).
    stream_length_hint:
        Expected total stream length (the paper's known-``N`` assumption),
        used by history-mode quantiles.
    kind:
        Explicit estimator kind from the registry (``"ddsketch"``,
        ``"kll"``, ``"tdigest"``, ``"count-min"``, ...) instead of the
        statistic's default family.  History mode only; the kind's
        declared capability statistic must match ``statistic``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import StreamMiner
    >>> miner = StreamMiner("quantile", eps=0.05, backend="cpu",
    ...                     window_size=256)
    >>> miner.process(np.random.default_rng(0).random(4096))
    >>> 0.4 <= miner.quantile(0.5) <= 0.6
    True
    """

    def __init__(self, statistic: str = "frequency", eps: float = 1e-3,
                 backend: str = "gpu", mode: str = "history",
                 window_size: int | None = None,
                 sliding_window: int | None = None,
                 variable: bool = False,
                 device: GpuDevice | None = None,
                 cpu_speedup: float = 1.5,
                 stream_length_hint: int = 100_000_000,
                 kind: str | None = None):
        if statistic not in ("frequency", "quantile", "distinct"):
            raise SummaryError(f"unknown statistic {statistic!r}")
        if statistic == "distinct" and mode == "sliding":
            raise SummaryError("distinct counting supports history mode only")
        if mode not in ("history", "sliding"):
            raise SummaryError(f"unknown mode {mode!r}")
        if kind is not None:
            if mode == "sliding":
                raise SummaryError(
                    "explicit estimator kinds support history mode only")
            caps = estimator_capabilities(kind)
            if caps.statistic != statistic:
                raise SummaryError(
                    f"estimator kind {kind!r} serves statistic "
                    f"{caps.statistic!r}, not {statistic!r}")
            if kind == default_kind_for(statistic):
                kind = None    # the default family; snapshots stay lean
        self.kind = kind
        self.statistic = statistic
        self.mode = mode
        self.eps = float(eps)
        self._cpu_spec = PENTIUM_IV_3_4GHZ
        self._cpu_speedup = float(cpu_speedup)
        self._stream_length_hint = int(stream_length_hint)

        sorter = resolve_sorter(backend, device=device,
                                cpu_speedup=cpu_speedup)
        self.backend = getattr(sorter, "name", "custom")

        if mode == "sliding":
            if sliding_window is None:
                raise SummaryError("sliding mode requires sliding_window")
            if statistic == "quantile":
                estimator = SlidingWindowQuantiles(
                    eps, sliding_window, variable=variable)
            else:
                estimator = SlidingWindowFrequencies(
                    eps, sliding_window, variable=variable)
            self.window_size = estimator.subwindow
        elif kind is not None:
            # A non-default registry family; its builder interprets the
            # engine parameters for its own geometry.
            if statistic == "quantile":
                self.window_size = (int(window_size) if window_size
                                    else max(1, math.ceil(1.0 / eps)))
            estimator = build_estimator(
                kind, eps=eps, window_size=window_size,
                stream_length_hint=stream_length_hint)
            if statistic == "frequency":
                self.window_size = estimator.window_size
            elif statistic == "distinct":
                self.window_size = (int(window_size) if window_size
                                    else 4096)
        elif statistic == "frequency":
            estimator = LossyCounting(eps)
            self.window_size = estimator.window_size
        elif statistic == "distinct":
            # KMV sketch size from the target error: rel. std. error of
            # the estimator is ~1/sqrt(k-2).
            k = max(16, math.ceil(1.0 / (eps * eps)) + 2)
            estimator = KMinValues(k)
            self.window_size = (int(window_size) if window_size
                                else 4096)
        else:
            self.window_size = (int(window_size) if window_size
                                else max(1, math.ceil(1.0 / eps)))
            estimator = StreamingQuantiles(
                eps, self.window_size, stream_length_hint)

        self.report = EngineReport(self.backend, statistic)
        self._timing = TimingModel(self.report, self._cpu_spec)
        self._windower = Windower(self.window_size)
        self._sort = SortStage(sorter, self._timing)
        self._summarize = SummarizeStage(
            self._timing, build_histogram=(statistic == "frequency"))
        self._merge = MergeStage(estimator, self._timing)
        self._bind_estimator(estimator)

    def _bind_estimator(self, estimator) -> None:
        """Point every stage that holds the estimator at ``estimator``.

        The distinct pipeline sorts *hashes*: the sketch's
        ``prepare_chunk`` (hash + count) runs as the windower's prepare
        transform, so it must re-bind together with the estimator.
        """
        self.estimator = estimator
        self._merge.estimator = estimator
        if self.statistic == "distinct":
            self._windower.prepare = estimator.prepare_chunk

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def update(self, chunk: np.ndarray | list[float]) -> None:
        """Feed stream elements; complete 4-window batches are processed."""
        self.buffer_chunk(chunk)
        self.pump()

    def buffer_chunk(self, chunk: np.ndarray | list[float]) -> None:
        """Cut a chunk into pending windows without processing anything.

        Pure CPU book-keeping that cannot fault: after this returns,
        every element of ``chunk`` is safely held in either a pending
        window or the tail buffer.  :meth:`pump` (which may fault on the
        GPU path) then moves complete batches through the pipeline — the
        split is what makes a dispatch retryable without data loss.
        """
        self._windower.push(chunk)

    def pump(self) -> None:
        """Process every complete 4-window texture batch now pending.

        Each batch is transactional: the (faultable) sort runs first and
        windows leave the pending list only after it succeeds, so an
        exception leaves the engine exactly as it was before the batch —
        calling :meth:`pump` again retries it.
        """
        while self._windower.pending >= 4:
            self._flush_batch(4)

    def process(self, stream: np.ndarray | Iterable) -> None:
        """Consume an entire stream (array or iterable of chunks) and flush."""
        if isinstance(stream, np.ndarray):
            self.update(stream)
        else:
            for chunk in stream:
                self.update(chunk)
        self.flush()

    def flush(self) -> None:
        """Process buffered windows; in history mode also the partial tail."""
        if self.mode == "history":
            # Sliding estimators need exact sub-window sizes; history
            # estimators accept a short final window.
            self._windower.flush_tail()
        while self._windower.pending:
            self._flush_batch(min(4, self._windower.pending))

    # ------------------------------------------------------------------
    # the co-processor loop
    # ------------------------------------------------------------------
    def _flush_batch(self, batch_size: int) -> None:
        col = collector()
        if col.enabled:
            # The batch span parents the per-stage spans the TimingModel
            # emits, so `repro trace` nests sort/histogram/merge under it.
            with col.span("pipeline.batch", windows=batch_size,
                          backend=self.backend):
                self._run_batch(batch_size)
        else:
            self._run_batch(batch_size)

    def _run_batch(self, batch_size: int) -> None:
        windows = self._windower.peek(batch_size)
        sorted_windows = self._sort.run(windows)
        # The sort succeeded; only now do the windows leave the pending
        # list (transactionality — see pump()).  The remaining stages are
        # plain CPU summary updates with no injected-fault surface.
        self._windower.commit(batch_size)
        for window in sorted_windows:
            histogram = self._summarize.run(window)
            self._merge.run(window, histogram)
        self._timing.record_batch(windows)

    def _summary_size(self) -> int:
        return self._merge.summary_size()

    # ------------------------------------------------------------------
    # queries (delegated to the live estimator)
    # ------------------------------------------------------------------
    def _timed_query(self, name: str, compute, **attrs):
        """Run one query, recording a ``query.*`` span when collecting."""
        col = collector()
        if not col.enabled:
            return compute()
        began = time.perf_counter()
        result = compute()
        col.record(name, time.perf_counter() - began, **attrs)
        return result

    def quantile(self, phi: float, width: int | None = None) -> float:
        """The phi-quantile (quantile statistic only)."""
        if self.statistic != "quantile":
            raise QueryError("this miner estimates frequencies")
        if self.mode == "sliding":
            return self._timed_query(
                "query.quantile",
                lambda: self.estimator.quantile(phi, width), phi=phi)
        return self._timed_query(
            "query.quantile", lambda: self.estimator.quantile(phi), phi=phi)

    def frequent_items(self, support: float,
                       width: int | None = None) -> list[tuple[float, int]]:
        """Heavy hitters above ``support`` (frequency statistic only)."""
        if self.statistic != "frequency":
            raise QueryError("this miner estimates quantiles")
        if self.mode == "sliding":
            return self._timed_query(
                "query.frequent_items",
                lambda: self.estimator.frequent_items(support, width),
                support=support)
        return self._timed_query(
            "query.frequent_items",
            lambda: self.estimator.frequent_items(support), support=support)

    def estimate(self, value: float) -> int:
        """Estimated frequency of one value (frequency statistic only)."""
        if self.statistic != "frequency":
            raise QueryError("this miner estimates quantiles")
        return self._timed_query(
            "query.estimate", lambda: self.estimator.estimate(value))

    def distinct(self) -> float:
        """Estimated distinct values seen (distinct statistic only)."""
        if self.statistic != "distinct":
            raise QueryError("this miner does not count distinct values")
        return self._timed_query(
            "query.distinct", lambda: self.estimator.estimate())

    # ------------------------------------------------------------------
    # mergeable-state accessors (the sharded service's query layer)
    # ------------------------------------------------------------------
    @property
    def sorter(self):
        """The live sorting backend (owned by the sort stage)."""
        return self._sort.sorter

    @sorter.setter
    def sorter(self, value) -> None:
        self.swap_sorter(value)

    @property
    def buffered(self) -> int:
        """Elements accepted but not yet through the pipeline."""
        return self._windower.buffered

    @property
    def processed(self) -> int:
        """Elements the estimator has summarised (excludes ``buffered``)."""
        return int(self.estimator.processed)

    def quantile_summaries(self):
        """The mergeable per-bucket summaries (history-mode quantiles)."""
        if self.statistic != "quantile" or self.mode != "history":
            raise QueryError(
                "summaries are exposed by history-mode quantile miners only")
        if not hasattr(self.estimator, "summaries"):
            raise QueryError(
                f"estimator kind {self.kind!r} holds no GK bucket "
                "summaries; merge the estimators directly via merge()")
        return self.estimator.summaries()

    def frequency_items(self) -> list[tuple[float, int]]:
        """Every tracked (value, count) pair (frequency statistic only)."""
        if self.statistic != "frequency" or self.mode != "history":
            raise QueryError(
                "items are exposed by history-mode frequency miners only")
        return self.estimator.items()

    def distinct_sketch(self):
        """The mergeable KMV sketch (distinct statistic only)."""
        if self.statistic != "distinct":
            raise QueryError("this miner does not count distinct values")
        return self.estimator

    # ------------------------------------------------------------------
    # degradation (the service's circuit breaker swaps backends here)
    # ------------------------------------------------------------------
    def swap_sorter(self, sorter) -> None:
        """Replace the sorting backend in place.

        Sorting is a pure function of the window, so swapping the GPU
        sorter for the CPU baseline (or back) mid-stream changes *only*
        the cost model — the summaries, and therefore every answer, are
        identical.  The service's degradation path relies on this.
        """
        self._sort.swap(sorter)
        self.backend = getattr(sorter, "name", "custom")

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Versioned JSON-serializable snapshot of the whole miner.

        Captures the estimator state *and* the engine's buffered state
        (tail buffer + pending windows), so a restored miner continues
        the stream from the exact element where the snapshot was taken.
        History mode only — sliding estimators hold order-sensitive
        state that is intentionally out of checkpoint scope.
        """
        if self.mode != "history":
            raise SummaryError("snapshot supports history mode only")
        state = {
            "version": 1,
            "kind": "stream-miner",
            "statistic": self.statistic,
            "eps": self.eps,
            "estimator_kind": self.kind,
            "window_size": int(self.window_size),
            "stream_length_hint": self._stream_length_hint,
            "cpu_speedup": self._cpu_speedup,
            "estimator": self.estimator.to_state(),
            "report": {
                "elements": self.report.elements,
                "windows": self.report.windows,
                "wall": dict(self.report.wall),
                "modelled": dict(self.report.modelled),
            },
        }
        state.update(self._windower.to_state())
        return state

    @classmethod
    def from_snapshot(cls, state: dict, backend: str = "cpu",
                      device: GpuDevice | None = None) -> "StreamMiner":
        """Rebuild a miner from :meth:`snapshot` output.

        ``backend``/``device`` choose the *new* sorting backend — sorter
        state is transient (textures live only within one sort), so the
        restored miner may run on different hardware than the one that
        wrote the checkpoint; answers are unaffected.

        The estimator class is resolved from the state's ``"kind"`` tag
        via the :mod:`repro.core.estimators` registry, so any registered
        estimator (including future ones) restores without this method
        changing.
        """
        if state.get("kind") != "stream-miner" or state.get("version") != 1:
            raise SummaryError(
                f"not a v1 stream-miner state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        miner = cls(state["statistic"], eps=float(state["eps"]),
                    backend=backend, mode="history",
                    window_size=int(state["window_size"]),
                    device=device,
                    cpu_speedup=float(state["cpu_speedup"]),
                    stream_length_hint=int(state["stream_length_hint"]),
                    kind=state.get("estimator_kind"))
        miner._bind_estimator(estimator_from_state(state["estimator"]))
        miner._windower.restore_state(state)
        report = state.get("report", {})
        miner.report.elements = int(report.get("elements", 0))
        miner.report.windows = int(report.get("windows", 0))
        for op in OPERATIONS:
            miner.report.wall[op] = float(report.get("wall", {}).get(op, 0.0))
            miner.report.modelled[op] = float(
                report.get("modelled", {}).get(op, 0.0))
        return miner
