"""Shared pieces of the benchmark: inputs, host speed, spans, statistics
and host facts.

Nothing here imports the package under test, so the entry point can
report a missing source tree before it touches it.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import platform
import sys
import time
from bisect import bisect_right
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

ZIPF_ALPHA = 1.1
ZIPF_UNIVERSE = 1_000_000


def zipf_base(n: int, seed: int) -> np.ndarray:
    """``n`` Zipf(1.1) item ids over 1..10^6 as float32, fixed by ``seed``.

    Inverse-CDF sampling in blocks keeps the generator's own memory
    small, so it does not dominate the measured peak RSS.
    """
    ranks = np.arange(1, ZIPF_UNIVERSE + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_ALPHA)
    cdf /= cdf[-1]
    rng = np.random.default_rng([2005, seed])
    out = np.empty(n, dtype=np.float32)
    block = 1 << 16
    for lo in range(0, n, block):
        u = rng.random(min(block, n - lo))
        idx = np.searchsorted(cdf, u, side="right")
        out[lo:lo + u.size] = np.minimum(idx, ZIPF_UNIVERSE - 1) + 1
    return out


class Stream:
    """A seeded base array served as fixed-size chunks, cycling if needed.

    The producer asks for chunk ``k``; the base is generated before any
    timing starts, so the system under test only ever sees arrays.
    """

    def __init__(self, base: np.ndarray, chunk: int):
        if base.size % chunk:
            raise ValueError("base length must be a multiple of the chunk")
        self.base = base
        self.chunk = int(chunk)
        self._per_cycle = base.size // chunk

    def span(self, k: int) -> slice:
        lo = (k % self._per_cycle) * self.chunk
        return slice(lo, lo + self.chunk)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.base[self.span(k)]


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Probe time on the reference host: the fast state of the 2-vCPU Xeon
#: VM this benchmark was tuned on.  Timings are reported as they would
#: read on a host where the probe takes this long.
PROBE_REF_S = 175e-6
#: Minimum gap between probes inside the closed loop (~2% overhead).
PROBE_EVERY_S = 0.025
#: Probes in the centred window that estimates the local host speed.
PROBE_WINDOW = 5


def _probe_kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total


class HostProbe:
    """A fixed pure-Python kernel timed between the producer's calls.

    Shared hosts change speed by 1.4-1.6x for seconds to minutes at a
    time (another tenant on the sibling hyperthread), which moves every
    timing in a run together.  The probe shares that slowdown and none
    of the system's work, so ``seconds * PROBE_REF_S / probe`` removes
    it; the raw values are printed beside the scaled ones.
    """

    def __init__(self):
        self.when: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        began = time.perf_counter()
        best = float("inf")
        for _ in range(3):   # the fastest of three drops interrupts
            start = time.perf_counter()
            _probe_kernel()
            best = min(best, time.perf_counter() - start)
        now = time.perf_counter()
        self.when.append(now)
        self.took.append(best)
        self.spent += now - began

    def maybe_sample(self) -> None:
        if not self.when or time.perf_counter() - self.when[-1] >= \
                PROBE_EVERY_S:
            self.sample()

    def scale(self, samples: list[tuple[float, float]]) -> np.ndarray:
        """Each (stamp, seconds) sample scaled to the reference host."""
        if not samples:
            return np.zeros(0)
        took = np.asarray(self.took)
        half = PROBE_WINDOW // 2
        local = np.array([np.median(took[max(0, j - half):j + half + 1])
                          for j in range(took.size)])
        stamps = np.array([stamp for stamp, _ in samples])
        seconds = np.array([value for _, value in samples])
        when = np.asarray(self.when)
        after = np.clip(np.searchsorted(when, stamps), 0, when.size - 1)
        before = np.clip(after - 1, 0, when.size - 1)
        nearest = np.where(np.abs(when[before] - stamps)
                           < np.abs(when[after] - stamps), before, after)
        return seconds * (PROBE_REF_S / local[nearest])


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    enabled = False

    def span(self, name: str, **attrs):
        return _NULL


class Tracer:
    """In-memory spans (id, parent, name, start, end, attrs).

    One producer thread calls into the system, so a plain stack gives
    the parent of each span.
    """

    enabled = True

    def __init__(self):
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self.spans: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, attrs))

    def merged_with(self, program_spans) -> list[tuple]:
        """Own spans plus the program's ``repro.obs`` spans, one tree.

        Program span ids are shifted past ours.  A program span without
        a parent is hung under the innermost benchmark span whose
        interval contains it (both use ``perf_counter``).
        """
        own = sorted(self.spans, key=lambda s: s[3])
        by_id = {s[0]: s for s in own}
        starts = [s[3] for s in own]
        offset = max((s[0] for s in own), default=0) + 1
        merged = list(own)
        for span in program_spans:
            parent = None
            if span.parent_id is not None:
                parent = span.parent_id + offset
            else:
                i = bisect_right(starts, span.start) - 1
                cand = own[i] if i >= 0 else None
                while cand is not None and cand[4] < span.end:
                    cand = by_id.get(cand[1])
                parent = cand[0] if cand is not None else None
            merged.append((span.span_id + offset, parent, span.name,
                           span.start, span.end, dict(span.attrs)))
        return merged


def write_trace(path: Path, header: dict, spans: list[tuple]) -> None:
    """Write spans as one JSON document, times relative to the first."""
    t0 = min((s[3] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[sid, parent, name, round(start - t0, 9), round(end - t0, 9),
             {k: v for k, v in attrs.items()
              if isinstance(v, (int, float, str, bool))}]
            for sid, parent, name, start, end, attrs in spans]
    with open(path, "w") as fh:
        json.dump({**header,
                   "columns": ["id", "parent", "name", "start_s", "end_s",
                               "attrs"],
                   "spans": rows}, fh)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie beyond the ``q``-th percentile position."""
    return int(len(samples) * (100.0 - q) / 100.0)


# ----------------------------------------------------------------------
# host facts and memory
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def host_fingerprint(pool_start_method: str) -> dict:
    """Facts that make runs from different boxes incomparable."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "mp_start_method": multiprocessing.get_start_method(),
        "pool_start_method": pool_start_method,
    }


def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident MiB of this process plus its live worker processes."""
    kib = _vm_hwm_kb("self")
    if kib == 0:  # pragma: no cover - no procfs
        import resource
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        kib += _vm_hwm_kb(child.pid)
    return kib / 1024.0
