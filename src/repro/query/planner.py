"""Cost-aware planning: spec -> cheapest capable estimator kind.

The planner answers one question per registered spec: *which physical
sketch should serve it, and what does that sketch cost per element?*
Candidates come from the :mod:`repro.core.estimators` capability
registry — a kind is eligible when it advertises the spec's metric,
drives the spec's statistic, states its bound in the currency the
spec's eps is measured in (:data:`METRIC_BOUND_TYPES`), and is an
actual pipeline driver rather than a building block (``driver is not
None``).  Cost comes from the same closed-form timing model the figure
harnesses use (:func:`repro.bench.models.streaming_modelled_time`),
evaluated at the spec's eps class with the per-kind merge/compress
coefficients each capability record declares — so a new estimator
family competes on modelled numbers the moment it registers, without
the planner changing.

Planning is two-stage: :meth:`Planner.plan` picks the kind and the
canonical :class:`~repro.query.spec.SketchKey`; the cache
(:mod:`repro.query.cache`) may then *rewrite* the plan onto an existing
finer-grade sketch instead of building a new one (eps-dominance), which
only ever tightens the query's reported bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.estimators import (EstimatorCapabilities, default_kind_for,
                               estimator_capabilities,
                               registered_capabilities)
from ..errors import QueryError
from .spec import QuerySpec, SketchKey, canonical_key

__all__ = [
    "METRIC_BOUND_TYPES",
    "Planner",
    "QueryPlan",
    "modelled_cost_per_element",
]

#: Stream length the per-element cost is amortised over.  Any fixed
#: value works for *ranking* kinds (per-element cost is flat past a few
#: windows); this one matches the figure harnesses' smallest paper-scale
#: point.
_NOMINAL_ELEMENTS = 1_000_000

#: The error currency a spec's eps is stated in, per metric, as the
#: capability ``bound_type``s that honour it: a rank error for
#: quantiles (DDSketch's *relative value* error is another currency),
#: an absolute count error from either side for the frequency metrics,
#: a relative standard error for distinct counts.
METRIC_BOUND_TYPES = {
    "quantile": ("rank",),
    "heavy_hitters": ("count-under", "count-over"),
    "top_k": ("count-under", "count-over"),
    "estimate": ("count-under", "count-over"),
    "distinct": ("relative-std",),
}


def modelled_cost_per_element(kind: str, eps: float,
                              backend: str = "cpu") -> float:
    """Modelled seconds per ingested element for ``kind`` at ``eps``.

    Sums the :func:`~repro.bench.models.streaming_modelled_time`
    per-operation breakdown over a nominal stream and divides by its
    length.  The cpu backend uses the calibrated Intel sort model
    (:data:`repro.gpu.timing.CPU_MODEL_INTEL`), mirroring
    ``bench/harness.py``'s Figure 5 series.
    """
    from ..bench.models import streaming_modelled_time
    from ..gpu.timing import CPU_MODEL_INTEL

    caps = estimator_capabilities(kind)
    window = max(1, math.ceil(1.0 / eps))
    summary_size = max(1, math.ceil(caps.entries_per_inverse_eps / eps))
    # The closed-form model knows the paper's two hardware classes;
    # registry names (gpu-16, cpu-quicksort, ...) snap to their class.
    model_backend = "gpu" if str(backend).startswith("gpu") else "cpu"
    times = streaming_modelled_time(
        _NOMINAL_ELEMENTS, window, model_backend,
        cpu_time_fn=(CPU_MODEL_INTEL.time if model_backend == "cpu"
                     else None),
        merge_cycles=caps.merge_cycles,
        compress_cycles=caps.compress_cycles,
        summary_size=summary_size)
    return sum(times.values()) / _NOMINAL_ELEMENTS


@dataclass(frozen=True)
class QueryPlan:
    """The planner's verdict for one spec.

    ``sketch_key`` is the canonical group the spec snapped to;
    ``eps`` is that key's class eps (the bound the physical sketch is
    built at — never coarser than the spec asked for); ``shared`` is
    filled in by the cache when the plan lands on an already-live
    sketch instead of building one.
    """

    spec: QuerySpec
    sketch_key: SketchKey
    kind: str
    eps: float
    cost_per_element: float
    shared: bool = False

    def rewritten(self, key: SketchKey) -> "QueryPlan":
        """This plan re-targeted onto an existing dominating sketch."""
        return QueryPlan(self.spec, key, self.kind, key.eps_class,
                         self.cost_per_element, shared=True)


class Planner:
    """Maps specs to the cheapest capable registered estimator kind.

    Parameters
    ----------
    backend:
        Sorting backend the physical pools will run (feeds the cost
        model — the gpu path amortises four windows per sort pass).
    """

    def __init__(self, backend: str = "cpu"):
        self.backend = backend
        # (kind, eps_class) -> modelled cost; planning 1k specs over a
        # handful of classes must not re-run the closed form each time.
        self._cost_cache: dict[tuple[str, float], float] = {}

    def candidates(self, spec: QuerySpec) -> list[str]:
        """Registered kinds able to serve ``spec``, sorted by name.

        A kind qualifies when it drives the spec's statistic, lists the
        spec's metric, states its bound in the metric's currency
        (:data:`METRIC_BOUND_TYPES`), is a real pipeline driver
        (``driver`` set — the bare GK summary registers as a checkpoint
        kind but only ever lives inside the exponential histogram), and
        merges losslessly when the spec will run on a sharded pool
        (history mode).  A windowed spec runs on the sliding builder,
        which constructs the statistic's default family only, so that
        kind is its one candidate.
        """
        out = []
        for kind, caps in registered_capabilities().items():
            if caps.statistic != spec.statistic:
                continue
            if spec.metric not in caps.metrics:
                continue
            if caps.bound_type not in METRIC_BOUND_TYPES[spec.metric]:
                continue
            if caps.driver is None:
                continue
            if spec.window is None and not caps.mergeable:
                continue
            if (spec.window is not None
                    and kind != default_kind_for(spec.statistic)):
                continue
            out.append(kind)
        return out

    def cost(self, kind: str, eps: float) -> float:
        """Cached modelled per-element cost of ``kind`` at ``eps``."""
        cache_key = (kind, eps)
        if cache_key not in self._cost_cache:
            self._cost_cache[cache_key] = modelled_cost_per_element(
                kind, eps, self.backend)
        return self._cost_cache[cache_key]

    def plan(self, spec: QuerySpec) -> QueryPlan:
        """The cheapest capable kind for ``spec`` at its canonical key."""
        key = canonical_key(spec)
        kinds = self.candidates(spec)
        if not kinds:
            raise QueryError(
                f"no registered estimator kind can answer "
                f"{spec.metric!r} over statistic {spec.statistic!r}")
        best = min(kinds, key=lambda kind: (self.cost(kind, key.eps_class),
                                            kind))
        return QueryPlan(spec, key, best, key.eps_class,
                         self.cost(best, key.eps_class))

    def capabilities(self, kind: str) -> EstimatorCapabilities:
        """Capability record lookup (convenience passthrough)."""
        return estimator_capabilities(kind)
