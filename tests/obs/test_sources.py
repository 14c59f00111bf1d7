"""Sample extraction from the package's real counter objects.

The absorption contract: ``PerfCounters``, ``EngineReport`` and
``ServiceMetrics`` keep their APIs, and the ``obs`` sources translate
live instances losslessly at scrape time.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import StreamMiner
from repro.gpu.counters import PerfCounters
from repro.obs import (MetricsRegistry, engine_report_samples,
                       perf_counter_samples, register_engine_reports,
                       register_perf_counters, register_service_metrics,
                       service_metrics_samples)
from repro.service.metrics import ServiceMetrics, ShardMetrics


def _by_series(samples):
    return {(s.name, s.labels): s for s in samples}


class TestPerfCounterSamples:
    def _counters(self) -> PerfCounters:
        counters = PerfCounters()
        counters.record_pass(1024, blended=True, bytes_per_texel=16,
                             label="min")
        counters.record_pass(512, blended=False, bytes_per_texel=16,
                             label="copy")
        counters.record_upload(4096)
        counters.record_readback(256)
        return counters

    def test_every_counter_field_exported(self):
        counters = self._counters()
        series = _by_series(perf_counter_samples(counters))
        assert series[("repro_gpu_passes_total", ())].value == 2.0
        assert series[("repro_gpu_fragments_total", ())].value == 1536.0
        assert series[("repro_gpu_blend_ops_total", ())].value == 1024.0
        assert series[("repro_gpu_bytes_uploaded_total", ())].value == 4096.0
        assert series[("repro_gpu_readbacks_total", ())].value == 1.0
        assert series[("repro_gpu_pass_breakdown_total",
                       (("pass", "min"),))].value == 1.0
        for sample in series.values():
            assert sample.kind == "counter"

    def test_extra_labels_applied_to_every_sample(self):
        series = perf_counter_samples(self._counters(),
                                      labels={"device": "sim0"})
        assert all(("device", "sim0") in s.labels for s in series)

    def test_registered_source_pulls_live_values(self):
        counters = self._counters()
        registry = MetricsRegistry()
        register_perf_counters(registry, lambda: counters)
        before = _by_series(registry.snapshot())
        counters.record_upload(1000)
        after = _by_series(registry.snapshot())
        key = ("repro_gpu_bytes_uploaded_total", ())
        assert after[key].value == before[key].value + 1000


class TestEngineReportSamples:
    def _report(self):
        miner = StreamMiner("quantile", eps=0.05)
        miner.process(np.random.default_rng(11).random(2048)
                      .astype(np.float32))
        return miner.report

    def test_real_report_exports_all_operations(self):
        report = self._report()
        series = _by_series(engine_report_samples(report))
        base = (("backend", report.backend), ("statistic", "quantile"))
        assert series[("repro_pipeline_elements_total", base)].value \
            == 2048.0
        for op, seconds in report.modelled.items():
            key = ("repro_pipeline_modelled_seconds_total",
                   base + (("op", op),))
            assert series[key].value == float(seconds)
        for op in report.wall:
            key = ("repro_pipeline_wall_seconds_total",
                   base + (("op", op),))
            assert key in series

    def test_register_engine_reports_labels_by_shard(self):
        report = self._report()
        registry = MetricsRegistry()
        register_engine_reports(registry, lambda: [report, report])
        shards = {labels for name, labels in
                  _by_series(registry.snapshot())
                  if name == "repro_pipeline_elements_total"}
        shard_ids = {dict(labels)["shard"] for labels in shards}
        assert shard_ids == {"0", "1"}


class TestServiceMetricsSamples:
    def _metrics(self) -> ServiceMetrics:
        metrics = ServiceMetrics()
        metrics.ingested = 10_000
        metrics.queries = 7
        metrics.checkpoints = 2
        healthy = ShardMetrics(shard_id=0)
        healthy.record_batch(5_000, 0.25)
        failed = ShardMetrics(shard_id=1, healthy=False,
                              lost_elements=123, failures=3)
        metrics.shards = [healthy, failed]
        return metrics

    def test_service_and_shard_fields_exported(self):
        series = _by_series(service_metrics_samples(self._metrics()))
        assert series[("repro_service_ingested_total", ())].value \
            == 10_000.0
        assert series[("repro_service_failed_shards", ())].value == 1.0
        assert series[("repro_shard_elements_total",
                       (("shard", "0"),))].value == 5_000.0
        assert series[("repro_shard_healthy",
                       (("shard", "0"),))].value == 1.0
        assert series[("repro_shard_healthy",
                       (("shard", "1"),))].value == 0.0
        assert series[("repro_shard_lost_elements_total",
                       (("shard", "1"),))].value == 123.0

    def test_counter_names_end_in_total_gauges_do_not(self):
        for sample in service_metrics_samples(self._metrics()):
            if sample.kind == "counter":
                assert sample.name.endswith("_total"), sample.name
            else:
                assert not sample.name.endswith("_total"), sample.name

    def test_registered_source_sees_mutations(self):
        metrics = self._metrics()
        registry = MetricsRegistry()
        register_service_metrics(registry, lambda: metrics)
        metrics.ingested += 5
        series = _by_series(registry.snapshot())
        assert series[("repro_service_ingested_total", ())].value \
            == 10_005.0


class TestQueryMetricsSamples:
    def _metrics(self):
        from repro.query import QueryMetrics
        metrics = QueryMetrics()
        metrics.registered = 10
        metrics.physical_sketches = 3
        metrics.registrations = 12
        metrics.plans_built = 3
        metrics.plans_shared = 9
        metrics.sketches_released = 2
        metrics.answers = 40
        metrics.ingested_chunks = 8
        metrics.fanout_ingests = 24
        metrics.plan_seconds = 0.5
        return metrics

    def test_gauges_counters_and_shared_ratio(self):
        from repro.obs import query_metrics_samples
        series = _by_series(query_metrics_samples(self._metrics()))
        assert series[("repro_query_registered", ())].value == 10.0
        assert series[("repro_query_physical_sketches", ())].value == 3.0
        assert series[("repro_query_shared_ratio", ())].value == 0.7
        assert series[("repro_query_plans_shared_total", ())].value == 9.0
        assert series[("repro_query_sketches_released_total",
                       ())].value == 2.0
        assert series[("repro_query_plan_seconds_total", ())].value == 0.5

    def test_counter_naming_convention(self):
        from repro.obs import query_metrics_samples
        for sample in query_metrics_samples(self._metrics()):
            if sample.kind == "counter":
                assert sample.name.endswith("_total"), sample.name
            else:
                assert not sample.name.endswith("_total"), sample.name

    def test_registered_source_sees_mutations(self):
        from repro.obs import MetricsRegistry, register_query_metrics
        metrics = self._metrics()
        registry = MetricsRegistry()
        register_query_metrics(registry, lambda: metrics)
        metrics.answers += 5
        series = _by_series(registry.snapshot())
        assert series[("repro_query_answers_total", ())].value == 45.0
