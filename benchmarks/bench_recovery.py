"""Fault-tolerance overhead: retries, degradation, and checkpoints.

Not a paper figure — this measures what the robustness layer costs when
nothing goes wrong and what recovery costs when things do.  Reported
series: ingest wall time versus injected transfer-fault rate (0 = the
no-op injector baseline), with fault/retry/degraded counters, plus the
latency of a full-pool checkpoint save/restore round trip.  Qualitative
claims asserted: a clean run pays ~nothing for the machinery, faulted
runs lose no elements and answer identically to clean ones, and a
checkpoint round trip is much cheaper than re-ingesting the stream.

The fault-rate series is also appended to ``BENCH_recovery.json`` at
the repo root (:func:`repro.bench.report.write_bench_json`) so runs
accumulate a comparable machine-readable history.
"""

import time

import pytest

from repro.bench.report import Table, write_bench_json
from repro.gpu.faults import FaultPlan
from repro.service import (CheckpointStore, RetryPolicy, ServicePolicies,
                           ShardedMiner)
from repro.streams import uniform_stream

from conftest import emit, scaled

# Smoke floor: enough uploads/readbacks that a 2% fault rate still
# fires at least once per seeded schedule.
ELEMENTS = scaled(60_000, smoke=24_000)
FAULT_RATES = [0.0, 0.02, 0.05, 0.2]
EPS = 0.02
WINDOW = 512
# Near-zero sleeps: the benchmark measures machinery, not backoff naps.
RETRY = ServicePolicies(retry=RetryPolicy(max_attempts=3, base_delay=1e-6,
                                          max_delay=1e-5))


def _run_one(rate: float):
    plan = FaultPlan.transfers(rate, seed=7) if rate > 0 else None
    pool = ShardedMiner("quantile", eps=EPS, num_shards=2, backend="gpu",
                        window_size=WINDOW, stream_length_hint=ELEMENTS,
                        fault_plan=plan, policies=RETRY)
    data = uniform_stream(ELEMENTS, seed=13)
    start = time.perf_counter()
    pool.ingest(data)
    pool.drain()
    elapsed = time.perf_counter() - start
    return pool, elapsed


class TestFaultRateOverhead:
    @pytest.fixture(scope="class")
    def table(self):
        table = Table(
            title="Recovery overhead — ingest time vs injected fault rate",
            columns=["fault_rate", "elements", "seconds", "faults",
                     "retries", "degraded_batches", "median"],
            caption=(f"{ELEMENTS:,} uniform elements, eps={EPS}, 2 GPU "
                     "shards; transfer faults injected per upload/"
                     "readback with seeded schedules."),
        )
        self.runs = {}
        series = []
        for rate in FAULT_RATES:
            pool, elapsed = _run_one(rate)
            metrics = pool.metrics
            table.add_row(rate, pool.processed, elapsed, metrics.faults,
                          metrics.retries, metrics.degraded_batches,
                          pool.quantile(0.5))
            series.append({
                "fault_rate": rate, "elements": int(pool.processed),
                "seconds": elapsed, "faults": int(metrics.faults),
                "retries": int(metrics.retries),
                "degraded_batches": int(metrics.degraded_batches),
                "lost_elements": int(metrics.lost_elements)})
            self.runs[rate] = pool
        emit(table)
        write_bench_json("recovery", {
            "benchmark": "fault_rate_overhead", "eps": EPS,
            "elements": ELEMENTS, "shards": 2, "series": series})
        table.runs = self.runs
        return table

    def test_no_elements_lost_at_any_fault_rate(self, table):
        for pool in table.runs.values():
            assert pool.processed == ELEMENTS
            assert pool.buffered == 0

    def test_faults_scale_with_the_rate(self, table):
        faults = [table.runs[r].metrics.faults for r in FAULT_RATES]
        assert faults[0] == 0
        assert all(f > 0 for f in faults[1:])
        assert faults[-1] > faults[1]

    def test_answers_identical_across_fault_rates(self, table):
        """Retries and degradation never change an answer."""
        clean = table.runs[0.0]
        for rate in FAULT_RATES[1:]:
            for phi in (0.1, 0.5, 0.9):
                assert table.runs[rate].quantile(phi) == clean.quantile(phi)

    def test_clean_run_injector_is_cheap(self, benchmark):
        """The fault hook costs ~nothing when no plan is configured."""
        pool = ShardedMiner("quantile", eps=EPS, num_shards=2,
                            backend="gpu", window_size=WINDOW)
        data = uniform_stream(scaled(8192), seed=3)

        def ingest_and_drain():
            pool.ingest(data)
            pool.drain()

        benchmark(ingest_and_drain)
        assert pool.buffered == 0


class TestCheckpointCost:
    def test_round_trip_beats_reingesting(self, benchmark, tmp_path):
        pool, ingest_seconds = _run_one(0.0)
        store = CheckpointStore(tmp_path)

        def round_trip():
            store.save(pool.snapshot())
            return ShardedMiner.from_snapshot(store.load_latest())

        start = time.perf_counter()
        restored = round_trip()
        single_round = time.perf_counter() - start

        assert restored.processed == pool.processed
        assert restored.quantile(0.5) == pool.quantile(0.5)
        # One save+load+restore must be cheaper than re-ingesting the
        # stream — that is the entire point of checkpoints over replay.
        assert single_round < ingest_seconds
        benchmark(round_trip)
