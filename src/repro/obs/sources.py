"""Sample extractors for the package's existing counter objects.

This is the absorption layer: the GPU's ``PerfCounters``, the engine's
``EngineReport`` and the service's ``ServiceMetrics`` keep their public
APIs untouched, and these functions translate a *live* instance into
:class:`~repro.obs.metrics.Sample` rows whenever the registry snapshots.
Everything is duck-typed attribute access — ``obs`` stays a leaf layer
with no imports from the rest of the package, and any object with the
same attributes (a test double, a ``delta()`` result) exports the same
way.

Use the ``register_*`` helpers to wire a live object into a registry::

    registry = MetricsRegistry()
    register_service_metrics(registry, lambda: service.metrics)
"""

from __future__ import annotations

from .metrics import MetricsRegistry, Sample

__all__ = [
    "engine_report_samples",
    "perf_counter_samples",
    "query_metrics_samples",
    "register_engine_reports",
    "register_perf_counters",
    "register_query_metrics",
    "register_service_metrics",
    "service_metrics_samples",
]

_LABELS = tuple[tuple[str, str], ...]


def perf_counter_samples(counters,
                         labels: dict[str, str] | None = None
                         ) -> list[Sample]:
    """Translate a :class:`~repro.gpu.counters.PerfCounters` instance."""
    base: _LABELS = tuple(sorted((labels or {}).items()))
    fields = (
        ("passes", "rendering passes issued"),
        ("fragments", "fragments generated"),
        ("blend_ops", "blend operations executed"),
        ("texels_fetched", "texels fetched by the texture units"),
        ("bytes_written", "bytes written to the frame buffer"),
        ("bytes_read", "bytes read by the fragment pipeline"),
        ("bytes_uploaded", "bytes uploaded CPU to GPU"),
        ("bytes_readback", "bytes read back GPU to CPU"),
        ("uploads", "CPU to GPU transfers"),
        ("readbacks", "GPU to CPU transfers"),
    )
    samples = [
        Sample(f"repro_gpu_{name}_total", "counter",
               float(getattr(counters, name)), base, help)
        for name, help in fields
    ]
    for label, count in sorted(getattr(counters,
                                       "pass_breakdown", {}).items()):
        samples.append(Sample(
            "repro_gpu_pass_breakdown_total", "counter", float(count),
            base + (("pass", str(label)),),
            "rendering passes by pass label"))
    return samples


def engine_report_samples(report,
                          labels: dict[str, str] | None = None
                          ) -> list[Sample]:
    """Translate an :class:`~repro.core.pipeline.timing.EngineReport`."""
    base: _LABELS = tuple(sorted({
        "backend": str(getattr(report, "backend", "")),
        "statistic": str(getattr(report, "statistic", "")),
        **(labels or {}),
    }.items()))
    samples = [
        Sample("repro_pipeline_elements_total", "counter",
               float(report.elements), base, "elements through the pipeline"),
        Sample("repro_pipeline_windows_total", "counter",
               float(report.windows), base, "windows through the pipeline"),
    ]
    for op, seconds in report.wall.items():
        samples.append(Sample(
            "repro_pipeline_wall_seconds_total", "counter", float(seconds),
            base + (("op", op),), "measured wall seconds per operation"))
    for op, seconds in report.modelled.items():
        samples.append(Sample(
            "repro_pipeline_modelled_seconds_total", "counter",
            float(seconds), base + (("op", op),),
            "modelled paper-hardware seconds per operation"))
    return samples


def service_metrics_samples(metrics) -> list[Sample]:
    """Translate a :class:`~repro.service.metrics.ServiceMetrics`."""
    samples = [
        Sample("repro_service_ingested_total", "counter",
               float(metrics.ingested), (),
               "elements accepted by ingest"),
        Sample("repro_service_queries_total", "counter",
               float(metrics.queries), (), "queries answered"),
        Sample("repro_service_checkpoints_total", "counter",
               float(metrics.checkpoints), (), "checkpoints written"),
        Sample("repro_service_ingest_rate", "gauge",
               float(metrics.ingest_rate), (),
               "accepted elements per wall second"),
        Sample("repro_service_failed_shards", "gauge",
               float(len(metrics.failed_shards)), (),
               "permanently failed shards"),
        Sample("repro_service_taken_over_shards", "gauge",
               float(len(metrics.taken_over_shards)), (),
               "shards whose keyspace moved to survivors"),
    ]
    shard_fields = (
        ("elements", "counter", "elements dispatched into the shard"),
        ("batches", "counter", "coalesced batches dispatched"),
        ("update_seconds", "counter", "wall seconds inside miner.update"),
        ("shed", "counter", "elements dropped by the load shedder"),
        ("faults", "counter", "transient GPU faults observed"),
        ("retries", "counter", "backoff retries performed"),
        ("degraded_batches", "counter", "batches on the CPU fallback"),
        ("shm_batches", "counter", "batches via the shared-memory ring"),
        ("pickle_batches", "counter", "batches via the pipe fallback"),
        ("replayed_batches", "counter",
         "batches re-sent to restarted workers"),
        ("transport_seconds", "counter",
         "parent-side batch transport seconds"),
        ("net_batches", "counter", "batches via a TCP channel"),
        ("reconnects", "counter", "worker reconnections absorbed"),
        ("deadline_timeouts", "counter",
         "connection deadline/liveness expiries"),
        ("failures", "counter", "worker crashes"),
        ("restarts", "counter", "supervised worker restarts"),
        ("lost_elements", "counter", "elements lost to failed shards"),
        ("queue_depth", "gauge", "chunks waiting in the ingest queue"),
        ("queue_high_water", "gauge", "deepest the queue has been"),
        ("max_batch_seconds", "gauge", "slowest single batch dispatch"),
    )
    for shard in metrics.shards:
        labels: _LABELS = (("shard", str(shard.shard_id)),)
        for name, kind, help in shard_fields:
            suffix = "_total" if kind == "counter" else ""
            samples.append(Sample(
                f"repro_shard_{name}{suffix}", kind,
                float(getattr(shard, name)), labels, help))
        samples.append(Sample(
            "repro_shard_healthy", "gauge", float(bool(shard.healthy)),
            labels, "1 while the shard is healthy"))
        samples.append(Sample(
            "repro_shard_taken_over", "gauge",
            float(bool(getattr(shard, "taken_over", False))),
            labels, "1 once the shard's keyspace moved to survivors"))
    return samples


def query_metrics_samples(metrics) -> list[Sample]:
    """Translate a :class:`~repro.query.frontend.QueryMetrics`.

    The headline gauge is ``repro_query_shared_ratio`` — the fraction
    of registered standing queries served by a sketch they share with
    at least one other query (1 - sketches/queries).
    """
    gauges = (
        ("registered", "live registered standing queries"),
        ("physical_sketches", "live physical sketches backing them"),
        ("shared_ratio", "fraction of queries without a sketch of "
                         "their own"),
    )
    counters = (
        ("registrations", "standing-query registrations"),
        ("plans_built", "plans that built a fresh physical sketch"),
        ("plans_shared", "plans served by an existing sketch"),
        ("sketches_released", "sketches freed at refcount zero"),
        ("answers", "standing-query answers evaluated"),
        ("ingested_chunks", "chunks accepted by the front-end"),
        ("fanout_ingests", "chunk-to-sketch fan-out deliveries"),
    )
    samples = [
        Sample(f"repro_query_{name}", "gauge",
               float(getattr(metrics, name)), (), help)
        for name, help in gauges
    ]
    samples.extend(
        Sample(f"repro_query_{name}_total", "counter",
               float(getattr(metrics, name)), (), help)
        for name, help in counters
    )
    samples.append(Sample(
        "repro_query_plan_seconds_total", "counter",
        float(metrics.plan_seconds), (), "wall seconds spent planning"))
    return samples


def _register(registry: MetricsRegistry, provider, translate,
              **kwargs) -> None:
    registry.register_source(lambda: translate(provider(), **kwargs))


def register_perf_counters(registry: MetricsRegistry, provider,
                           labels: dict[str, str] | None = None) -> None:
    """Pull GPU counters at scrape time; ``provider()`` returns them."""
    _register(registry, provider, perf_counter_samples, labels=labels)


def register_engine_reports(registry: MetricsRegistry, provider) -> None:
    """Pull engine reports at scrape time; ``provider()`` returns a list.

    Per-shard reports carry a ``shard`` label from their list position.
    """
    def source():
        samples: list[Sample] = []
        for index, report in enumerate(provider()):
            samples.extend(engine_report_samples(
                report, labels={"shard": str(index)}))
        return samples

    registry.register_source(source)


def register_service_metrics(registry: MetricsRegistry, provider) -> None:
    """Pull service metrics at scrape time; ``provider()`` returns them."""
    _register(registry, provider, service_metrics_samples)


def register_query_metrics(registry: MetricsRegistry, provider) -> None:
    """Pull front-end query metrics at scrape time."""
    _register(registry, provider, query_metrics_samples)
