"""Self-contained demo driver for the sharded service.

``repro serve`` and ``examples/sharded_service.py`` both run this: a
synthetic workload is split across concurrent asyncio producers that
feed a :class:`StreamService`; the demo's queries are **standing
queries** registered through the continuous-query front-end
(:mod:`repro.query`) against the running service — mid-stream the
driver drains and answers them from the merged shard summaries, then
finishes the stream and answers again, validating every answer against
the exact offline result.  With ``--query-port`` the front-end is also
served over HTTP for the duration of the run (``repro query
register/list/answer`` are the clients), and ``--linger`` keeps the
drained service alive after the demo stream completes so operators can
interact with it.

Operational extras (all off by default): ``--fault-rate`` injects
seeded transient GPU faults to exercise the retry/degradation path,
``--checkpoint-dir`` persists periodic and final snapshots, and
SIGINT/SIGTERM stop producers gracefully — the service drains what was
delivered, answers over exactly that prefix, and writes one last
checkpoint before exiting.
"""

from __future__ import annotations

import asyncio
import math
import signal
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from ..backends import registered_backends
from ..core.estimators import default_kind_for, estimator_capabilities
from ..errors import ServiceError
from ..gpu.faults import FaultPlan
from ..obs import (MetricsRegistry, MetricsServer, register_engine_reports,
                   register_query_metrics, register_service_metrics)
from ..query import QueryControlServer, QueryFrontEnd, QuerySpec
from ..streams.generators import GENERATORS
from .async_service import StreamService
from .checkpoint import CheckpointStore
from .executors import registered_executors, resolve_executor
from .metrics import ServiceMetrics
from .policies import ServicePolicies

#: Stream key the demo's standing queries watch (the one ingest stream).
STREAM_KEY = "serve"


@dataclass
class ServeResult:
    """Everything one demo run produced, for printing or asserting."""

    statistic: str
    n: int
    eps: float
    num_shards: int
    producers: int
    #: which executor ran the shards (inline / async / mp).
    executor: str = "async"
    #: explicit estimator kind (None = the statistic's default family).
    kind: str | None = None
    #: phase -> {query label -> (estimate, exact, within_bound)}
    answers: dict[str, dict[str, tuple[float, float, bool]]] = \
        field(default_factory=dict)
    metrics: ServiceMetrics | None = None
    shard_elements: list[int] = field(default_factory=list)
    #: True when SIGINT/SIGTERM cut the run short (answers then cover
    #: exactly the delivered prefix).
    interrupted: bool = False
    #: most recent checkpoint file, if a checkpoint dir was configured.
    checkpoint_path: str | None = None
    #: base URL of the metrics endpoint, when ``metrics_port`` was set.
    metrics_url: str | None = None
    #: final self-scrape of ``/metrics`` (Prometheus text format).
    metrics_scrape: str | None = None
    #: the standing queries the demo registered (front-end states).
    standing_queries: list[dict] = field(default_factory=list)
    #: fraction of standing queries served by a shared sketch.
    shared_ratio: float = 0.0
    #: base URL of the query control endpoint, when ``query_port`` set.
    query_url: str | None = None

    @property
    def all_within_bounds(self) -> bool:
        """Did every query honour its epsilon guarantee?"""
        return all(ok for phase in self.answers.values()
                   for _, _, ok in phase.values())


def _rank_error(reference: np.ndarray, estimate: float, target: int) -> int:
    lo = int(np.searchsorted(reference, estimate, "left")) + 1
    hi = int(np.searchsorted(reference, estimate, "right"))
    return max(lo - target, target - hi, 0)


async def _register_standing_queries(frontend: QueryFrontEnd,
                                     result: ServeResult,
                                     phi: tuple[float, ...],
                                     support: float) -> dict[str, str]:
    """The demo's query set, as standing registrations: label -> id.

    Every label matches the answer tables' keys, so the validation
    phases read naturally; all specs target the one adopted service
    pool, which the front-end's sharing metrics then reflect.
    """
    ids: dict[str, str] = {}
    eps, key = result.eps, STREAM_KEY
    if result.statistic == "quantile":
        for p in phi:
            ids[f"phi={p:g}"] = await frontend.register(
                QuerySpec("quantile", key=key, eps=eps, phi=p))
    elif result.statistic == "frequency":
        ids[f"heavy@{support:g}"] = await frontend.register(
            QuerySpec("heavy_hitters", key=key, eps=eps, support=support))
    else:
        ids["distinct"] = await frontend.register(
            QuerySpec("distinct", key=key, eps=eps))
    result.standing_queries = [q.to_state() for q in frontend.queries()]
    result.shared_ratio = frontend.metrics.shared_ratio
    return ids


async def _query_phase(service: StreamService, frontend: QueryFrontEnd,
                       query_ids: dict[str, str], result: ServeResult,
                       phase: str, seen: np.ndarray,
                       phi: tuple[float, ...], support: float) -> None:
    """Drain, answer the standing queries, validate against ``seen``."""
    await service.drain()
    answers: dict[str, tuple[float, float, bool]] = {}
    n = seen.size
    eps = result.eps
    if result.statistic == "quantile":
        reference = np.sort(seen)
        # Relative-bound kinds (DDSketch) promise value accuracy, not
        # rank accuracy — validate each against its own guarantee.
        relative = (result.kind is not None and estimator_capabilities(
            result.kind).bound_type == "relative")
        for p in phi:
            label = f"phi={p:g}"
            estimate = (await frontend.answer(query_ids[label])).value
            target = max(1, math.ceil(p * n))
            exact = float(reference[target - 1])
            if relative:
                ok = abs(estimate - exact) <= eps * abs(exact) + 1e-9
            else:
                err = _rank_error(reference, estimate, target)
                ok = err <= max(1, eps * n)
            answers[label] = (estimate, exact, ok)
    elif result.statistic == "frequency":
        values, counts = np.unique(seen, return_counts=True)
        true = dict(zip(values.tolist(), counts.tolist()))
        reported = dict(
            (await frontend.answer(query_ids[f"heavy@{support:g}"])).value)
        heavy = {v for v, c in true.items() if c >= support * n}
        no_false_negatives = heavy <= set(reported)
        no_overcount = all(est <= true.get(v, 0) + 1e-9
                           for v, est in reported.items())
        undercount_ok = all(true[v] - reported.get(v, 0) <= eps * n + 4
                            for v in heavy)
        top = max(reported.items(), key=lambda kv: kv[1]) if reported \
            else (math.nan, 0)
        answers[f"heavy@{support:g}"] = (
            float(len(reported)), float(len(heavy)),
            no_false_negatives and no_overcount and undercount_ok)
        answers["top_count"] = (float(top[1]), float(true.get(top[0], 0)),
                                no_overcount)
    else:
        estimate = (await frontend.answer(query_ids["distinct"])).value
        exact = float(np.unique(seen).size)
        # KMV is randomized: 3x its relative standard error ~ 3 * eps.
        answers["distinct"] = (estimate, exact,
                               abs(estimate - exact) <= 3 * eps * exact + 2)
    result.answers[phase] = answers


async def _run(service: StreamService, frontend: QueryFrontEnd,
               result: ServeResult, slices: list[np.ndarray],
               chunk_size: int, phi: tuple[float, ...], support: float,
               query_port: int | None = None,
               linger: float = 0.0) -> None:
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            # Windows event loops / non-main threads: run without
            # graceful-shutdown handlers rather than fail.
            pass

    delivered: list[np.ndarray] = []

    async def produce(data: np.ndarray) -> None:
        # Ingest through the front-end's fan-out: the adopted service
        # pool gets every chunk (unchanged accounting), and a query
        # registered mid-run over HTTP that built its own sketch sees
        # the stream from its registration onwards.
        for start in range(0, data.size, chunk_size):
            if stop_event.is_set():
                return
            chunk = data[start:start + chunk_size]
            await frontend.ingest(chunk, STREAM_KEY)
            delivered.append(chunk)

    query_ids = await _register_standing_queries(frontend, result, phi,
                                                 support)
    control: QueryControlServer | None = None
    if query_port is not None:
        control = QueryControlServer(frontend, loop, port=query_port)
        control.start()
        result.query_url = control.url
    try:
        # The context exit is the graceful path either way: drain what
        # was delivered and (if configured) write a final checkpoint.
        async with service:
            halves = [np.array_split(s, 2) for s in slices]
            await asyncio.gather(*(produce(h[0]) for h in halves))
            if not stop_event.is_set():
                await _query_phase(service, frontend, query_ids, result,
                                   "mid-stream", np.concatenate(delivered),
                                   phi, support)
            await asyncio.gather(*(produce(h[1]) for h in halves))
            result.interrupted = stop_event.is_set()
            phase = "interrupted" if result.interrupted else "final"
            await _query_phase(service, frontend, query_ids, result, phase,
                               np.concatenate(delivered), phi, support)
            result.metrics = service.metrics
            if linger > 0 and not stop_event.is_set():
                # Keep the drained service up for operators (the query
                # control plane keeps answering); a signal ends it early.
                try:
                    await asyncio.wait_for(stop_event.wait(), linger)
                except asyncio.TimeoutError:
                    pass
            # Registrations/unregistrations may have arrived over HTTP
            # (including during the linger window); report the
            # front-end's final view, not the initial one.
            result.standing_queries = [q.to_state()
                                       for q in frontend.queries()]
            result.shared_ratio = frontend.metrics.shared_ratio
        # stop() ran inside __aexit__; pick up the final checkpoint count.
        if service.checkpoint_store is not None:
            result.metrics = service.metrics
            path = service.checkpoint_store.latest_path
            result.checkpoint_path = str(path) if path else None
    finally:
        if control is not None:
            control.stop()
        for signum in installed:
            loop.remove_signal_handler(signum)
    result.shard_elements = [s.elements for s in result.metrics.shards]


def run_service_demo(statistic: str = "quantile", n: int = 100_000,
                     eps: float = 0.02, num_shards: int = 4,
                     producers: int = 2, backend: str = "cpu",
                     window_size: int | None = None,
                     workload: str = "uniform", seed: int = 0,
                     chunk_size: int = 2048, queue_chunks: int = 16,
                     shed_capacity: int | None = None,
                     phi: tuple[float, ...] = (0.5, 0.99),
                     support: float = 0.05,
                     fault_rate: float = 0.0,
                     checkpoint_dir: str | None = None,
                     checkpoint_interval: float | None = None,
                     metrics_port: int | None = None,
                     executor: str = "async",
                     workers: int | None = None,
                     policies: ServicePolicies | None = None,
                     query_port: int | None = None,
                     linger: float = 0.0,
                     kind: str | None = None) -> ServeResult:
    """Run the end-to-end demo; see the module docstring.

    ``executor`` picks where the shards run (``inline`` / ``async`` /
    ``mp`` / ``net`` — see :mod:`repro.service.executors`); with the
    ``mp`` or ``net`` executor, ``workers`` overrides the shard count
    so ``--workers N`` means N worker processes (one shard each).
    ``policies`` bundles the retry/deadline/heartbeat/takeover knobs
    (:class:`~repro.service.policies.ServicePolicies`) for the worker
    pools; the in-process pools accept it too, using the subset that
    applies.

    The demo's queries are standing registrations through a
    :class:`~repro.query.frontend.QueryFrontEnd` that adopts the
    service's pool; ``query_port`` serves the front-end's HTTP control
    plane (``repro query ...``) for the duration of the run, and
    ``linger`` keeps the drained service (and control plane) alive
    that many extra seconds after the demo stream completes.
    """
    if producers < 1:
        raise ServiceError(f"need >= 1 producer, got {producers}")
    if backend not in registered_backends():
        # Fail before any shard is built: the registry is the single
        # source of truth for what "backend" can name.
        raise ServiceError(
            f"unknown backend {backend!r}; registered backends: "
            f"{', '.join(registered_backends())}")
    if executor not in registered_executors():
        raise ServiceError(
            f"unknown executor {executor!r}; registered executors: "
            f"{', '.join(registered_executors())}")
    if not 0.0 <= fault_rate < 1.0:
        raise ServiceError(
            f"fault_rate must be in [0, 1), got {fault_rate}")
    if workers is not None:
        if workers < 1:
            raise ServiceError(f"need >= 1 worker, got {workers}")
        num_shards = workers
    if kind is not None and kind == default_kind_for(statistic):
        kind = None
    if (statistic == "frequency" and kind is not None
            and "heavy_hitters" not in estimator_capabilities(kind).metrics):
        raise ServiceError(
            f"estimator kind {kind!r} answers point estimates only and "
            "cannot serve the demo's heavy-hitter queries; use "
            f"`repro frequent --kind {kind} --estimate VALUE` instead")
    data = GENERATORS[workload](n, seed=seed)
    fault_plan = (FaultPlan.transfers(fault_rate, seed=seed)
                  if fault_rate > 0 else None)
    store = (CheckpointStore(checkpoint_dir)
             if checkpoint_dir is not None else None)
    miner_kwargs = dict(statistic=statistic, eps=eps, num_shards=num_shards,
                        backend=backend, window_size=window_size,
                        stream_length_hint=n, fault_plan=fault_plan,
                        kind=kind)
    if policies is not None:
        miner_kwargs["policies"] = policies
    service = resolve_executor(executor)(
        miner_kwargs,
        dict(queue_chunks=queue_chunks, shed_capacity=shed_capacity,
             checkpoint_store=store,
             checkpoint_interval=checkpoint_interval))
    miner = service.miner
    result = ServeResult(statistic, n, eps, num_shards, producers,
                         executor=executor, kind=kind)
    slices = np.array_split(data, producers)

    # The front-end adopts the service's pool as a live sketch: the
    # demo's queries (and any registered over --query-port) share it by
    # eps-dominance instead of building pools of their own.
    frontend = QueryFrontEnd(executor=executor, backend=backend,
                             num_shards=num_shards)
    frontend.adopt(service, statistic=statistic, eps=eps, key=STREAM_KEY,
                   kind=kind)

    server: MetricsServer | None = None
    if metrics_port is not None:
        # Pull-model observability: the registry reads the live service
        # and per-shard engine state only when a scraper asks, so the
        # ingest path pays nothing for the endpoint being up.
        registry = MetricsRegistry()
        register_service_metrics(registry, lambda: service.metrics)
        register_engine_reports(registry, miner.shard_reports)
        register_query_metrics(registry, lambda: frontend.metrics)
        server = MetricsServer(
            registry, port=metrics_port,
            healthy=lambda: not service.metrics.failed_shards)
        server.start()
    try:
        asyncio.run(_run(service, frontend, result, slices, chunk_size,
                         phi, support, query_port=query_port,
                         linger=linger))
        if server is not None:
            result.metrics_url = server.url
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=5) as response:
                result.metrics_scrape = response.read().decode("utf-8")
    finally:
        if server is not None:
            server.stop()
        # The mp pool owns worker processes and shared memory; the
        # in-process pools have no-op-free close paths.
        closer = getattr(miner, "close", None)
        if closer is not None:
            closer()
    return result


def format_result(result: ServeResult) -> str:
    """Human-readable report of one demo run."""
    lines = [
        f"sharded {result.statistic} service: {result.n:,} tuples, "
        f"eps={result.eps}, {result.num_shards} shards "
        f"({result.executor} executor), {result.producers} producers",
    ]
    if result.interrupted:
        lines.append("  [interrupted by signal — answers cover the "
                     "delivered prefix]")
    for phase, answers in result.answers.items():
        lines.append(f"  [{phase}]")
        for label, (estimate, exact, ok) in answers.items():
            flag = "ok" if ok else "VIOLATED"
            lines.append(f"    {label:<14} estimate {estimate:>12g}   "
                         f"exact {exact:>12g}   {flag}")
    metrics = result.metrics
    if metrics is not None:
        lines.append("  [metrics]")
        lines.append(f"    ingest rate    {metrics.ingest_rate:>12,.0f} "
                     f"elements/s ({metrics.ingested:,} accepted, "
                     f"{metrics.shed:,} shed)")
        lines.append(f"    queries        {metrics.queries:>12,}")
        if metrics.faults or metrics.degraded_batches:
            lines.append(
                f"    resilience     {metrics.faults:,} faults, "
                f"{metrics.retries:,} retries, "
                f"{metrics.degraded_batches:,} degraded batches, "
                f"{metrics.lost_elements:,} lost")
        if metrics.checkpoints:
            where = (f" (latest: {result.checkpoint_path})"
                     if result.checkpoint_path else "")
            lines.append(f"    checkpoints    {metrics.checkpoints:>12,}"
                         + where)
        for shard in metrics.shards:
            lines.append(
                f"    shard {shard.shard_id}: {shard.elements:>9,} elements  "
                f"{shard.batches:>5,} batches  "
                f"mean {shard.mean_batch_seconds * 1e3:7.2f} ms  "
                f"max {shard.max_batch_seconds * 1e3:7.2f} ms  "
                f"queue high-water {shard.queue_high_water}")
    if result.standing_queries:
        sketches = {tuple(sorted((k, v) for k, v in q["sketch"].items()
                          if k != "refcount"))
                    for q in result.standing_queries}
        lines.append(f"  [standing queries] {len(result.standing_queries)} "
                     f"registered over {len(sketches)} physical "
                     f"sketch(es), shared ratio {result.shared_ratio:.0%}")
        for q in result.standing_queries:
            spec = q["spec"]
            detail = {k: spec[k] for k in ("phi", "support", "k", "value")
                      if spec.get(k) is not None}
            args = ", ".join(f"{k}={v:g}" for k, v in detail.items())
            lines.append(
                f"    {q['id']:<6} {spec['metric']}({args}) "
                f"-> {q['kind']} @ eps {q['error_bound']:g}"
                + ("  [shared]" if q["shared"] else ""))
    if result.query_url is not None:
        lines.append(f"  [query control] {result.query_url}/queries")
    if result.metrics_url is not None:
        series = [line for line in (result.metrics_scrape or "").splitlines()
                  if line and not line.startswith("#")]
        lines.append("  [observability]")
        lines.append(f"    served {result.metrics_url}/metrics "
                     f"({len(series)} series) and /healthz")
        for sample in series[:4]:
            lines.append(f"      {sample}")
    return "\n".join(lines)
