"""A pool of miner shards behind one ingest/query facade.

:class:`ShardedMiner` scales the paper's co-processor loop horizontally:
N independent :class:`~repro.core.engine.StreamMiner` instances each run
the window -> sort -> summarize -> merge -> compress pipeline over their
slice of the stream, and queries are answered *on demand* by combining
the per-shard mergeable state — there is no shared summary to contend
on, so shards never synchronise during ingestion.

Combined-error accounting (why sharding is free, per statistic):

* **Quantiles** (GK-04 model).  Shards run their exponential histograms
  at ``eps / 2``, so every live bucket summary has error ``<= eps / 2``.
  A query merges *all* buckets of *all* shards with
  :meth:`QuantileSummary.merge_all` — merge is lossless (error is the
  max of the inputs, Section 5.2) — then prunes the merged summary to
  ``B = ceil(1 / eps)`` entries, adding ``1 / (2B) <= eps / 2``.  The
  served summary therefore answers within ``eps * N`` ranks of the
  population of all shards combined: partitioning and merging added no
  error beyond the configured ``eps``.
* **Frequencies** (Manku-Motwani).  Tuples are hash-partitioned by
  value, so a value's global count *is* its home shard's count and the
  per-shard undercount bound ``eps * N_shard <= eps * N`` carries over
  to the union query unchanged.  No false negatives at support ``s``;
  nothing reported below ``(s - eps) * N``.
* **Distinct counts** (KMV).  Sketches share ``k`` and the hash seed,
  so the union sketch over shards is exactly the sketch of the union
  stream — the usual mergeable-sketch argument.

Every executor's pool derives from :class:`ShardPool`, which holds what
does not depend on where a shard lives: argument validation, routing,
this merge-on-query surface (written once over the live shard
estimators plus the ghosts of retired shards), the ``sharded-miner`` v1
snapshot and live resharding.  :class:`ShardedMiner` keeps its shards
in-process; the worker pools (:mod:`repro.service.worker_pool`) keep
them in worker processes.

Queries reflect the tuples that have been *processed*; each miner may
hold up to one texture batch (4 windows) of accepted-but-unprocessed
elements, visible via :attr:`buffered` and flushed by :meth:`drain`.

Fault tolerance.  The GPU path may fault transiently (see
:mod:`repro.gpu.faults`); :meth:`dispatch` first buffers the chunk
(pure CPU — cannot fault, no data at risk) and then pumps the engine
under a retry policy with exponential backoff.  A batch that exhausts
its retries escalates to the per-shard circuit breaker, which degrades
the shard to the CPU sorting baseline — sorted output is identical, so
degradation changes only the cost model, never an answer.  The whole
pool snapshots to a versioned dict (:meth:`snapshot`) and restores
(:meth:`from_snapshot` / :meth:`restore_shard`), including the
partitioner cursor, so a restored service routes replayed tuples
identically.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..backends import cpu_fallback_for
from ..core.engine import EngineReport, StreamMiner
from ..core.estimators import (default_kind_for, estimator_capabilities,
                               estimator_from_state)
from ..core.quantiles.window import QuantileSummary
from ..errors import QueryError, ServiceError
from ..gpu.device import GpuDevice
from ..obs import collector
from ..gpu.faults import FaultInjector, FaultPlan
from .metrics import ServiceMetrics, ShardMetrics
from .policies import DEFAULT_POLICIES, ServicePolicies
from .resilience import CircuitBreaker, ShardGuard
from .sharding import default_partitioner, partitioner_from_state


def merge_quantile_summaries(summaries, eps: float,
                             prune_budget: int | str | None = "auto"
                             ) -> QuantileSummary:
    """Merge shard bucket summaries into one served summary.

    The combined-error accounting (module docstring) is shared by every
    executor: shards run at ``eps / 2``, merge is lossless, and the
    query-time prune to ``B = ceil(1 / eps)`` entries adds
    ``1 / (2B) <= eps / 2`` — so the served summary answers within
    ``eps * N`` ranks regardless of where the shards live (in-process
    or in worker processes).
    """
    merged = QuantileSummary.merge_all(summaries)
    if merged.count == 0:
        raise QueryError("no data processed yet")
    if prune_budget == "auto":
        prune_budget = math.ceil(1.0 / eps)
    if prune_budget is not None and len(merged) > prune_budget + 1:
        merged = merged.prune(prune_budget)
    return merged


def dispatch_query(pool, metric: str, params: dict):
    """Route one metric-keyed query to a pool's typed query method.

    The continuous-query front-end (:mod:`repro.query`) speaks metrics
    (``"quantile"``, ``"heavy_hitters"``, ``"top_k"``, ``"estimate"``,
    ``"distinct"``); this is the one translation point onto the typed
    query surface, shared by every :class:`ShardPool` and by single
    :class:`~repro.core.engine.StreamMiner` adapters — all expose the
    same method names and an ``eps``.

    ``top_k`` reads the frequency structure at ``support = pool.eps``:
    the report threshold ``(support - eps) * N`` collapses to zero, so
    every tracked item comes back (already sorted by estimated count,
    ties broken by value) and the first ``k`` are the answer — the
    ordering guarantee comes from the sketch's eps grade, which the
    front-end's planner chose as ``min(eps, 1/(2k))``.
    """
    if metric == "quantile":
        return pool.quantile(float(params["phi"]))
    if metric == "heavy_hitters":
        return pool.frequent_items(float(params["support"]))
    if metric == "top_k":
        items = pool.frequent_items(float(pool.eps))
        return items[:int(params["k"])]
    if metric == "estimate":
        return pool.estimate(float(params["value"]))
    if metric == "distinct":
        return pool.distinct()
    raise QueryError(f"unknown query metric {metric!r}")


def shard_device(backend, fault_plan: FaultPlan | None,
                 shard_id: int) -> GpuDevice | None:
    """The shard's own simulated GPU when a fault plan targets it.

    The injector is reseeded by shard id, so faults are independent
    across shards but the whole scenario replays deterministically —
    wherever the shard lives.
    """
    if backend != "gpu" or fault_plan is None:
        return None
    return GpuDevice(fault_injector=FaultInjector(
        fault_plan.reseeded(fault_plan.seed + shard_id)))


def shard_guard(shard_id: int, miner: StreamMiner,
                policies: ServicePolicies,
                metrics: ShardMetrics) -> ShardGuard:
    """One shard's dispatch guard.

    A CPU fallback exists wherever the primary sorts on the
    (fault-prone) simulated GPU — results are identical either way —
    and the retry RNG is seeded per shard so concurrent shards don't
    back off in lockstep yet scenarios stay reproducible.
    """
    return ShardGuard(
        shard_id, miner, miner.sorter,
        cpu_fallback_for(miner.sorter, cpu_speedup=miner._cpu_speedup),
        policies.retry, CircuitBreaker(*policies.breaker),
        np.random.default_rng((2005, shard_id)), metrics)


class ShardPool:
    """What every executor's shard pool shares, wherever the shards live.

    Parameters
    ----------
    statistic:
        ``"quantile"``, ``"frequency"`` or ``"distinct"`` (history mode;
        sliding windows are order-sensitive and stay single-shard).
    eps:
        End-to-end approximation fraction *after* cross-shard merging.
    num_shards:
        Independent miner pipelines.
    backend:
        Sorting backend for every shard (``"gpu"`` or ``"cpu"``).
    window_size:
        Per-shard window width (quantile/distinct statistics).
    partitioner:
        Tuple router; defaults to hash-by-value for frequencies and
        round-robin otherwise (see :mod:`repro.service.sharding`).
    stream_length_hint:
        Expected stream length; each shard is hinted with its share.
    fault_plan:
        Optional :class:`~repro.gpu.faults.FaultPlan` (GPU backend
        only); each shard gets its own device (:func:`shard_device`).
    kind:
        Explicit estimator kind from the registry (``"ddsketch"``,
        ``"kll"``, ``"tdigest"``, ``"count-min"``, ...).  Must be
        capability-mergeable: queries fold the per-shard estimators
        with their family ``merge()`` instead of the GK summary path.
    policies:
        The :class:`~repro.service.policies.ServicePolicies` bundle —
        the one place every retry, breaker, snapshot, restart and
        transport setting is set.
    retired:
        Internal (used by :meth:`from_snapshot`): ghost estimator
        states carried over from retired shards.

    ``retired`` holds *ghosts*: the estimator states of shards retired
    by a reshard or a takeover.  Every query folds them in alongside
    the live shards, which is what lets a shard's keyspace move without
    touching the eps accounting —

    * quantiles: ghost summaries join the merge; merging is lossless,
      the single query-time prune still adds at most ``eps/2``;
    * frequencies: counts for a value are *summed* across ghosts and
      live shards.  Occurrences partition across the structures, and a
      lossy-counting estimate never overcounts its own occurrences, so
      the sum never overcounts; the undercount is at most
      ``sum(eps * N_i) <= eps * N``;
    * distinct: KMV sketches union exactly.

    A subclass supplies the shards: :meth:`dispatch` and :meth:`drain`,
    the live shards a query reads (:meth:`_shards` — each with
    ``estimator``, ``processed``, ``buffered`` and ``report``), their
    snapshots (:meth:`_shard_snapshots`), how a restored pool boots
    (:meth:`_from_shards`) and ``window_size``.
    """

    def __init__(self, statistic: str = "quantile", eps: float = 0.01,
                 num_shards: int = 4, backend: str = "cpu",
                 window_size: int | None = None,
                 partitioner=None,
                 stream_length_hint: int = 100_000_000,
                 fault_plan: FaultPlan | None = None, *,
                 kind: str | None = None,
                 policies: ServicePolicies | None = None,
                 retired: list[dict] | None = None):
        if num_shards < 1:
            raise ServiceError(f"need >= 1 shard, got {num_shards}")
        if statistic not in ("quantile", "frequency", "distinct"):
            raise ServiceError(f"unknown statistic {statistic!r}")
        if not 0.0 < eps < 1.0:
            raise ServiceError(f"eps must be in (0, 1), got {eps}")
        if kind is not None and kind == default_kind_for(statistic):
            kind = None
        if kind is not None:
            caps = estimator_capabilities(kind)
            if caps.statistic != statistic:
                raise ServiceError(
                    f"estimator kind {kind!r} serves statistic "
                    f"{caps.statistic!r}, not {statistic!r}")
            if not caps.mergeable:
                raise ServiceError(
                    f"estimator kind {kind!r} is not mergeable; the "
                    "sharded pools answer by merge-on-query")
        if fault_plan is not None and backend != "gpu":
            raise ServiceError(
                "fault injection targets the simulated GPU; "
                f"backend is {backend!r}")
        pol = policies if policies is not None else DEFAULT_POLICIES
        if not isinstance(pol, ServicePolicies):
            raise ServiceError(
                f"policies must be a ServicePolicies, got {pol!r}")
        self.policies = pol
        self.statistic = statistic
        self.kind = kind
        self.eps = float(eps)
        self.num_shards = int(num_shards)
        self.partitioner = (partitioner if partitioner is not None
                            else default_partitioner(statistic, num_shards))
        if statistic == "frequency" and not hasattr(
                self.partitioner, "shard_of"):
            raise ServiceError(
                "frequency sharding needs a value-routing partitioner")
        self._backend_kind = (backend if isinstance(backend, str)
                              else getattr(backend, "name", "custom"))
        self._window_size_arg = (int(window_size) if window_size is not None
                                 else None)
        self._stream_length_hint = int(stream_length_hint)
        self.fault_plan = fault_plan
        self.retired = [dict(state) for state in (retired or [])]
        # Quantile shards run at eps/2 so the query-time prune (budget
        # ceil(1/eps), adding 1/(2B) <= eps/2) lands the served summary
        # back at eps exactly — see the module docstring.  Non-default
        # kinds merge within their own family losslessly (bucket /
        # table / centroid addition), so their shards run at full eps.
        # Each shard is hinted with its own expected share so the
        # exponential histogram's error schedule is not over-provisioned.
        self._miner_spec = dict(
            statistic=statistic,
            eps=(self.eps / 2.0 if statistic == "quantile" and kind is None
                 else self.eps),
            backend=backend, mode="history",
            window_size=self._window_size_arg,
            stream_length_hint=max(1, math.ceil(
                self._stream_length_hint / self.num_shards)),
            kind=kind)
        self.metrics = ServiceMetrics(
            shards=[ShardMetrics(i) for i in range(self.num_shards)])

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(self, chunk: np.ndarray | list[float]) -> None:
        """Route one chunk across the shard pool (synchronous path)."""
        parts = self.partitioner.split(chunk)
        for shard_id, part in enumerate(parts):
            self.dispatch(shard_id, part)
        self.metrics.ingested += sum(int(p.size) for p in parts)

    # ------------------------------------------------------------------
    # merge-on-query
    # ------------------------------------------------------------------
    def _memo(self, op: str, build):
        """``build()``; :class:`ShardedMiner` memoizes it per state."""
        return build()

    def _merge(self, op: str, build, memo: bool = True):
        """``build(shards)`` over the live shards: one merge-on-query.

        Traced as one ``service.merge_on_query`` span per merge actually
        built (a memoized answer builds none).
        """
        def merge():
            shards = self._shards()
            with collector().span("service.merge_on_query", op=op,
                                  shards=len(shards)):
                return build(shards)

        return self._memo(op, merge) if memo else merge()

    def _ghosts(self) -> list:
        return self._memo("retired", lambda: [
            estimator_from_state(state) for state in self.retired])

    def _estimators(self, shards) -> list:
        """The live shards' estimators, then the ghosts."""
        return [shard.estimator for shard in shards] + self._ghosts()

    @property
    def processed(self) -> int:
        """Elements fully through the per-shard pipelines (incl. ghosts).

        Uniform across statistics via the estimator protocol's
        ``processed`` property (frequency estimators fold their pending
        partial window in themselves).
        """
        return (sum(shard.processed for shard in self._shards())
                + sum(int(est.processed) for est in self._ghosts()))

    @property
    def buffered(self) -> int:
        """Elements accepted by shards but not yet summarised."""
        return sum(shard.buffered for shard in self._shards())

    def shard_reports(self) -> list[EngineReport]:
        """Per-shard per-operation latency accounting (wall + modelled)."""
        return [shard.report for shard in self._shards()]

    def combined_summary(self, prune_budget: int | str | None = "auto"
                         ) -> QuantileSummary:
        """Merge every shard's quantile buckets into one served summary.

        ``prune_budget="auto"`` (the default) prunes to
        ``ceil(1 / eps)`` entries, giving total error ``<= eps``;
        ``None`` skips the prune (error ``<= eps / 2``, larger summary);
        an integer prunes to that budget (error grows by ``1/(2B)``).
        """
        if self.statistic != "quantile":
            raise QueryError("this service does not estimate quantiles")
        if self.kind is not None:
            raise QueryError(
                f"estimator kind {self.kind!r} merges within its own "
                "family, not through GK bucket summaries — query via "
                "quantile()")

        def merge(shards) -> QuantileSummary:
            summaries = [summary for est in self._estimators(shards)
                         for summary in est.summaries()]
            return merge_quantile_summaries(summaries, self.eps,
                                            prune_budget)

        # Only the served-summary path every quantile answer takes is
        # memoized (shared, read-only).
        return self._merge("summary", merge, memo=prune_budget == "auto")

    def _merged_estimator(self):
        """Every shard's estimator (plus ghosts) folded with the
        family's own ``merge()`` — the generic-kind query path."""

        def fold(shards):
            live = [est for est in self._estimators(shards)
                    if int(est.processed) > 0]
            if not live:
                raise QueryError("no data processed yet")
            merged = live[0]
            for estimator in live[1:]:
                merged = merged.merge(estimator)
            return merged

        return self._merge("merged", fold)

    def quantile(self, phi: float) -> float:
        """The phi-quantile over all shards, within the kind's bound."""
        if self.kind is not None:
            if self.statistic != "quantile":
                raise QueryError("this service does not estimate quantiles")
            result = self._merged_estimator().quantile(phi)
        else:
            result = self.combined_summary().quantile(phi)
        self.metrics.queries += 1
        return result

    def frequent_items(self, support: float) -> list[tuple[float, int]]:
        """Heavy hitters over all shards: union of home-shard counts.

        Returns every value whose estimated global count reaches
        ``(support - eps) * N``; contains all values with true frequency
        ``>= support * N`` and nothing below the threshold.
        """
        if self.statistic != "frequency":
            raise QueryError("this service does not estimate frequencies")
        if self.kind is not None and "heavy_hitters" not in \
                estimator_capabilities(self.kind).metrics:
            raise QueryError(
                f"estimator kind {self.kind!r} answers point estimates "
                "only; it cannot enumerate heavy hitters")
        if not 0.0 <= support <= 1.0:
            raise QueryError(f"support must be in [0, 1], got {support}")
        if support < self.eps:
            raise QueryError(
                f"support {support} below eps {self.eps}: the guarantee "
                "threshold (s - eps) N would be vacuous")

        def global_counts(shards) -> tuple[int, dict[float, int]]:
            counts: dict[float, int] = {}
            for estimator in self._estimators(shards):
                for value, estimate in estimator.items():
                    counts[value] = counts.get(value, 0) + estimate
            total = (sum(shard.processed for shard in shards)
                     + sum(int(est.processed) for est in self._ghosts()))
            return total, counts

        total, counts = self._merge("counts", global_counts)
        threshold = (support - self.eps) * total
        result = [(value, count) for value, count in counts.items()
                  if count >= threshold]
        result.sort(key=lambda pair: (-pair[1], pair[0]))
        self.metrics.queries += 1
        return result

    def estimate(self, value: float) -> int:
        """Estimated global count of ``value`` (summed over shards).

        Under value-affine routing every term but the home shard's is
        zero, so this matches the home-shard lookup bit for bit; after
        a reshard or takeover it also folds in the ghost contributions.
        Occurrences of a value partition across the structures and lossy
        counting never overcounts its own occurrences, so the sum never
        overcounts the global count.
        """
        if self.statistic != "frequency":
            raise QueryError("this service does not estimate frequencies")
        total = sum(est.estimate(value)
                    for est in self._estimators(self._shards()))
        self.metrics.queries += 1
        return total

    def distinct(self) -> float:
        """Distinct-count estimate from the union of shard KMV sketches."""
        if self.statistic != "distinct":
            raise QueryError("this service does not count distinct values")

        def union_estimate(shards) -> float:
            sketches = self._estimators(shards)
            union = sketches[0]
            for sketch in sketches[1:]:
                union = union.merge(sketch)
            return union.estimate()

        result = self._merge("distinct", union_estimate)
        self.metrics.queries += 1
        return result

    def answer(self, metric: str, **params):
        """Metric-keyed query routing (the continuous-query seam).

        ``pool.answer("quantile", phi=0.99)`` ==
        ``pool.quantile(0.99)``; see :func:`dispatch_query` for the
        full metric vocabulary.  Every executor's pool exposes this
        same method, so the front-end never branches on pool type.
        """
        return dispatch_query(self, metric, params)

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Versioned JSON-serializable snapshot of the whole pool.

        Includes every shard engine's summary *and* buffered state plus
        the partitioner cursor, so replaying the stream suffix from a
        restored pool routes and answers exactly as the original would
        have.  The format is the same under every executor, so a
        checkpoint cut under one restores under any other.
        """
        shards = [{"miner": miner, "elements": int(shard.elements),
                   "batches": int(shard.batches)}
                  for miner, shard in zip(self._shard_snapshots(),
                                          self.metrics.shards)]
        return {
            "version": 1,
            "kind": "sharded-miner",
            "statistic": self.statistic,
            "eps": self.eps,
            "estimator_kind": self.kind,
            "num_shards": self.num_shards,
            "backend": self._backend_kind,
            "window_size": self._window_size_arg,
            "stream_length_hint": self._stream_length_hint,
            "partitioner": self.partitioner.to_state(),
            "ingested": int(self.metrics.ingested),
            "shards": shards,
            "retired": [dict(state) for state in self.retired],
        }

    @classmethod
    def from_snapshot(cls, state: dict, backend: str | None = None,
                      **kwargs) -> "ShardPool":
        """Rebuild a whole pool from any executor's :meth:`snapshot`.

        ``backend`` overrides the checkpointed backend (sorter state is
        transient, so a checkpoint written on the GPU path restores
        fine onto the CPU baseline and vice versa); extra keyword
        arguments (``fault_plan``, ``policies``, a custom
        ``partitioner``, the executor's own options) pass through to
        the constructor.
        """
        if state.get("kind") != "sharded-miner" or state.get("version") != 1:
            raise ServiceError(
                f"not a v1 sharded-miner state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        shards = state["shards"]
        if len(shards) != int(state["num_shards"]):
            raise ServiceError(
                f"state has {len(shards)} shards, expected "
                f"{state['num_shards']}")
        if "partitioner" not in kwargs:
            # Rebuild the exact router kind the checkpoint was cut
            # under (round-robin / hash / consistent-hash).
            kwargs["partitioner"] = partitioner_from_state(
                state["partitioner"])
        window_size = state.get("window_size")
        pool = cls._from_shards(
            [{"miner": shard["miner"]} for shard in shards],
            state["statistic"], eps=float(state["eps"]),
            num_shards=int(state["num_shards"]),
            backend=backend if backend is not None else state["backend"],
            window_size=(int(window_size) if window_size is not None
                         else None),
            stream_length_hint=int(state["stream_length_hint"]),
            kind=state.get("estimator_kind"),
            retired=state.get("retired"), **kwargs)
        pool.partitioner.restore_state(state["partitioner"])
        pool.metrics.ingested = int(state["ingested"])
        for shard, shard_state in zip(pool.metrics.shards, shards):
            shard.elements = int(shard_state.get("elements", 0))
            shard.batches = int(shard_state.get("batches", 0))
        return pool

    # ------------------------------------------------------------------
    # elastic resharding
    # ------------------------------------------------------------------
    def reshard(self, num_shards: int) -> None:
        """Live shard split/merge: migrate state onto a new pool size.

        Drains, snapshots, rewrites the snapshot for ``num_shards`` via
        :func:`repro.service.reshard.resharded_snapshot` (old shard
        histories become ghost entries in ``retired``; the partitioner
        is rebuilt over the new count), then adopts a fresh pool in
        place.  The eps accounting is preserved: ghost summaries merge
        losslessly into quantile queries, ghost counts are summed into
        frequency queries (occurrences partition across structures —
        never an overcount, undercount still ``<= eps * N``), and ghost
        KMV sketches union exactly.
        """
        from .reshard import resharded_snapshot
        self.drain()
        state = resharded_snapshot(self.snapshot(), num_shards)
        self._adopt(type(self).from_snapshot(
            state, backend=self._backend_kind, **self._reshard_kwargs()))

    def _reshard_kwargs(self) -> dict:
        """Constructor extras :meth:`reshard` carries onto the new pool."""
        return {"fault_plan": self.fault_plan, "policies": self.policies}

    def _adopt(self, fresh: "ShardPool") -> None:
        self.__dict__.update(fresh.__dict__)


class ShardedMiner(ShardPool):
    """Hash/round-robin sharded stream mining with merge-on-query.

    The in-process pool: every shard's miner runs on the caller's
    thread (or the async service's dispatch threads).  Parameters are
    :class:`ShardPool`'s.  Each shard gets its own dispatch guard
    (:func:`shard_guard`), and merged answers are memoized per state
    version.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.service import ShardedMiner
    >>> miner = ShardedMiner("quantile", eps=0.05, num_shards=4,
    ...                      backend="cpu", window_size=512)
    >>> miner.ingest(np.random.default_rng(0).random(20_000))
    >>> miner.drain()
    >>> 0.45 <= miner.quantile(0.5) <= 0.55
    True
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._devices: list[GpuDevice | None] = [
            shard_device(self._miner_spec["backend"], self.fault_plan,
                         shard_id)
            for shard_id in range(self.num_shards)]
        self.fault_injectors: list[FaultInjector | None] = [
            device.fault_injector if device is not None else None
            for device in self._devices]
        self._miners: list[StreamMiner] = [
            StreamMiner(device=device, **self._miner_spec)
            for device in self._devices]
        self._guards = [self._build_guard(shard_id)
                        for shard_id in range(self.num_shards)]
        # Merge-on-query memoization: between two state changes (pump,
        # flush, restore) every answer sees identical shard summaries,
        # so the merged view is computed once per state version — 1,000
        # standing queries cost one merge, not 1,000.  Bump
        # ``_state_version`` from every path that can alter what a
        # query reads.
        self._state_version = 0
        self._answer_cache: dict[str, tuple[int, object]] = {}

    def _build_guard(self, shard_id: int) -> ShardGuard:
        return shard_guard(shard_id, self._miners[shard_id], self.policies,
                           self.metrics.shards[shard_id])

    # Compatibility views over the per-shard guards (tests and tools
    # introspect these; the guards are the source of truth).
    @property
    def _primary_sorters(self) -> list:
        return [g.primary for g in self._guards]

    @property
    def _fallback_sorters(self) -> list:
        return [g.fallback for g in self._guards]

    @property
    def _breakers(self) -> list[CircuitBreaker]:
        return [g.breaker for g in self._guards]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def dispatch(self, shard_id: int, values: np.ndarray) -> None:
        """Feed one pre-routed batch into a single shard (timed).

        The async front-end calls this from per-shard workers; batches
        for different shards may run concurrently because shards share
        no state.

        Fault handling: the chunk is buffered first (pure CPU, cannot
        fault), then the engine pump — transactional, so re-running it
        after a transient fault is exactly a retry of the failed
        texture batch — runs under the shard's guard.  By the time this
        raises :class:`ShardFailedError`, every element of ``values`` is
        still safely buffered in the shard's engine — nothing is lost.
        """
        arr = np.asarray(values, dtype=np.float32).ravel()
        if arr.size == 0:
            return
        start = time.perf_counter()
        miner = self._miners[shard_id]
        col = collector()
        if col.enabled:
            # The dispatch span parents every pipeline.* span the engine
            # emits while pumping this batch.
            with col.span("service.dispatch", shard=shard_id,
                          elements=int(arr.size)):
                miner.buffer_chunk(arr)
                self._guards[shard_id].run(miner.pump)
        else:
            miner.buffer_chunk(arr)
            self._guards[shard_id].run(miner.pump)
        self.metrics.shards[shard_id].record_batch(
            arr.size, time.perf_counter() - start)
        self._state_version += 1

    def drain(self) -> None:
        """Flush every shard's partial texture batch and tail window.

        Runs under the same retry/degradation policy as dispatch, so a
        drain over a faulty GPU still completes with no data loss.
        """
        for guard, miner in zip(self._guards, self._miners):
            guard.run(miner.flush)
        self._state_version += 1

    # ------------------------------------------------------------------
    # the shards a query reads
    # ------------------------------------------------------------------
    @property
    def window_size(self) -> int:
        """The shard pipelines' window width (largest across shards)."""
        return max(int(m.window_size) for m in self._miners)

    def _shards(self) -> list[StreamMiner]:
        return self._miners

    def _memo(self, op: str, build):
        """Value of ``build()`` memoized against the pool's state version.

        Cached values are shared across calls — treat them as
        read-only.  Invalidation is a version bump, never deletion, so
        a stale entry costs one recompute and no correctness.
        """
        entry = self._answer_cache.get(op)
        if entry is not None and entry[0] == self._state_version:
            return entry[1]
        value = build()
        self._answer_cache[op] = (self._state_version, value)
        return value

    # ------------------------------------------------------------------
    # checkpoint/restore
    # ------------------------------------------------------------------
    def _shard_snapshots(self) -> list[dict]:
        return [miner.snapshot() for miner in self._miners]

    @classmethod
    def _from_shards(cls, shard_states: list[dict], *args, **kwargs):
        pool = cls(*args, **kwargs)
        for shard_id, shard_state in enumerate(shard_states):
            pool.restore_shard(shard_id, shard_state)
        return pool

    def restore_shard(self, shard_id: int, shard_state: dict) -> None:
        """Rebuild one shard from its slice of a :meth:`snapshot`.

        Used both by :meth:`from_snapshot` and to restart a single
        killed shard in place: the replacement engine resumes from the
        checkpointed summary + buffer, losing at most whatever was
        dispatched after the checkpoint was cut.  The shard's breaker
        resets (the replacement starts by trusting its primary again).
        """
        if not 0 <= shard_id < self.num_shards:
            raise ServiceError(f"no shard {shard_id}")
        restored = StreamMiner.from_snapshot(
            shard_state["miner"], backend=self._backend_kind,
            device=self._devices[shard_id])
        self._miners[shard_id] = restored
        self._guards[shard_id] = self._build_guard(shard_id)
        shard = self.metrics.shards[shard_id]
        shard.elements = int(shard_state.get("elements", 0))
        shard.batches = int(shard_state.get("batches", 0))
        shard.breaker_state = CircuitBreaker.CLOSED
        self._state_version += 1
