"""Network executor — ingest throughput vs workers and recovery time.

Not a paper figure — this benchmarks the ``net`` executor's two
operational claims.  First, *scaling shape*: with one TCP worker
process per shard, the parent's serial share is partition + pickle +
socket write, so per-shard compute (the same guarded pump the ``mp``
workers run) spreads across worker processes; the table reports the
measured ingest wall, the parent transport share, and the slowest
worker's busy time per worker count, against a measured inline
baseline.  Second, *recovery time*: a SIGKILLed worker must come back
through the supervised restart + replay-log path without losing an
acknowledged element, and the benchmark measures how long the
kill-to-settled path takes against a healthy tail flush of the same
size.

Both series are appended to ``BENCH_net.json`` at the repo root via
:func:`repro.bench.report.write_bench_json`.

No wall-clock speedup is asserted: the suite may run on a single
exposed core where every process time-slices (``bench_mp_scaling.py``
asserts the measured speedup of the pipe transport, where the core
count allows it).  The asserted claims are
the ones that must hold anywhere: bit-identical answers to the inline
pool at every worker count, zero lost elements through a SIGKILL, and
a recovery that actually exercised restart + replay.  The timed
uniform stream has no heavy hitter, so the identity check runs again,
untimed, on a Zipf stream whose inline answer must be non-empty.
"""

import os
import signal
import time

import pytest

from repro.bench.report import Table, write_bench_json
from repro.service import NetShardedMiner, ServicePolicies, ShardedMiner
from repro.streams import GENERATORS, uniform_stream

from conftest import emit, scaled

# Fig. 5-style frequency workload; the smoke floor keeps >= 8 batches
# per worker so transport/compute ratios stay representative.
ELEMENTS = scaled(120_000, smoke=24_000)
EPS = 1e-3
CHUNK = 4_096
WORKER_COUNTS = [1, 2, 4]
SUPPORT = 0.01
# The skewed identity stream: 13 heavy hitters at SUPPORT.
IDENTITY_ELEMENTS = 48_000
# Frequent snapshots keep the replay log short for the scaling series.
POLICIES = ServicePolicies(snapshot_every=16)
# The recovery series instead pushes the snapshot cadence past the
# workload: the kill then always finds the full history in the replay
# log, so the measured recovery is the worst case (restart + complete
# replay) and deterministically exercises the replay path — with a
# snapshot cadence, a kill landing right after a snapshot-truncation
# would legitimately have nothing to replay.
RECOVERY_POLICIES = ServicePolicies(snapshot_every=1_000_000)


def _stream():
    return uniform_stream(ELEMENTS, seed=55)


def _ingest_all(miner, data) -> float:
    began = time.perf_counter()
    for start in range(0, data.size, CHUNK):
        miner.ingest(data[start:start + CHUNK])
    miner.drain()
    return time.perf_counter() - began


class TestNetScaling:
    @pytest.fixture(scope="class")
    def results(self):
        data = _stream()
        baseline = ShardedMiner("frequency", eps=EPS, num_shards=1,
                                backend="cpu")
        baseline_wall = _ingest_all(baseline, data)
        baseline_answer = baseline.frequent_items(SUPPORT)

        table = Table(
            title="net executor — measured ingest vs worker count",
            columns=["workers", "elements", "wall_s", "throughput_eps",
                     "transport_s", "max_worker_busy_s", "net_batches"],
            caption=(f"{ELEMENTS:,} uniform elements, frequency eps={EPS}; "
                     "one TCP worker per shard on loopback; baseline is "
                     f"the measured inline 1-shard wall "
                     f"({baseline_wall:.3f}s)."),
        )
        rows = {}
        series = []
        for workers in WORKER_COUNTS:
            miner = NetShardedMiner("frequency", eps=EPS,
                                    num_shards=workers, backend="cpu",
                                    policies=POLICIES)
            try:
                wall = _ingest_all(miner, data)
                answer = miner.frequent_items(SUPPORT)
                shards = miner.metrics.shards
                transport = sum(s.transport_seconds for s in shards)
                busy = max(s.update_seconds for s in shards)
                batches = sum(s.net_batches for s in shards)
                throughput = ELEMENTS / wall
                table.add_row(workers, ELEMENTS, wall, throughput,
                              transport, busy, batches)
                series.append({
                    "workers": workers, "elements": ELEMENTS,
                    "wall_seconds": wall, "throughput_eps": throughput,
                    "transport_seconds": transport,
                    "max_worker_busy_seconds": busy,
                    "net_batches": int(batches)})
                rows[workers] = dict(answer=answer, wall=wall,
                                     batches=batches)
            finally:
                miner.close()
        emit(table)
        write_bench_json("net", {
            "benchmark": "net_scaling", "eps": EPS, "elements": ELEMENTS,
            "baseline_wall_seconds": baseline_wall, "series": series})
        rows["baseline_answer"] = baseline_answer
        return rows

    def test_answers_identical_to_inline_baseline(self, results):
        expected = results["baseline_answer"]
        for workers in WORKER_COUNTS:
            assert results[workers]["answer"] == expected, (
                f"{workers}-worker answers diverged from the inline pool")

    def test_every_worker_count_used_the_network_path(self, results):
        for workers in WORKER_COUNTS:
            assert results[workers]["batches"] > 0


class TestNetRecovery:
    @pytest.fixture(scope="class")
    def results(self):
        data = _stream()
        tail = uniform_stream(CHUNK * 2, seed=56)
        pool = NetShardedMiner("frequency", eps=EPS, num_shards=2,
                               backend="cpu", policies=RECOVERY_POLICIES)
        try:
            _ingest_all(pool, data)

            # Healthy tail flush: the cost a fault-free pool pays for
            # the same ingest+drain the recovery path will run.
            began = time.perf_counter()
            pool.ingest(tail)
            pool.drain()
            healthy_wall = time.perf_counter() - began

            os.kill(pool._links[1].proc.pid, signal.SIGKILL)
            began = time.perf_counter()
            pool.ingest(tail)
            pool.drain()
            recovery_wall = time.perf_counter() - began

            metrics = pool.metrics
            out = {
                "healthy_wall": healthy_wall,
                "recovery_wall": recovery_wall,
                "restarts": sum(s.restarts for s in metrics.shards),
                "replayed_batches": int(metrics.replayed_batches),
                "lost_elements": int(metrics.lost_elements),
                "processed": int(pool.processed),
                "expected": int(data.size + tail.size * 2),
            }
        finally:
            pool.close()
        table = Table(
            title="net executor — SIGKILL recovery time (2 workers)",
            columns=["healthy_tail_s", "recovery_tail_s", "restarts",
                     "replayed_batches", "lost_elements"],
            caption=(f"tail of {tail.size:,} elements flushed through a "
                     "healthy pool, then again immediately after "
                     "SIGKILLing worker 1; recovery covers the reconnect "
                     "window, the supervised restart, and a full replay "
                     "of the shard's history (no snapshot cut)."),
        )
        table.add_row(out["healthy_wall"], out["recovery_wall"],
                      out["restarts"], out["replayed_batches"],
                      out["lost_elements"])
        emit(table)
        write_bench_json("net", {
            "benchmark": "net_recovery", "eps": EPS,
            "elements": int(data.size),
            "healthy_tail_seconds": out["healthy_wall"],
            "recovery_tail_seconds": out["recovery_wall"],
            "restarts": out["restarts"],
            "replayed_batches": out["replayed_batches"],
            "lost_elements": out["lost_elements"]})
        return out

    def test_recovery_exercised_restart_and_replay(self, results):
        assert results["restarts"] >= 1
        assert results["replayed_batches"] >= 1

    def test_no_elements_lost_through_sigkill(self, results):
        assert results["lost_elements"] == 0
        assert results["processed"] == results["expected"]


class TestNetZipfIdentity:
    @pytest.fixture(scope="class")
    def answers(self):
        data = GENERATORS["zipf"](IDENTITY_ELEMENTS, seed=55)
        inline = ShardedMiner("frequency", eps=EPS, num_shards=1,
                              backend="cpu")
        _ingest_all(inline, data)
        answers = {"inline": inline.frequent_items(SUPPORT)}
        for workers in WORKER_COUNTS:
            miner = NetShardedMiner("frequency", eps=EPS,
                                    num_shards=workers, backend="cpu",
                                    policies=POLICIES)
            try:
                _ingest_all(miner, data)
                answers[workers] = miner.frequent_items(SUPPORT)
            finally:
                miner.close()
        return answers

    def test_inline_answer_is_not_empty(self, answers):
        assert answers["inline"], "the identity check would compare []"

    def test_answers_identical_to_inline(self, answers):
        for workers in WORKER_COUNTS:
            assert answers[workers] == answers["inline"], (
                f"{workers}-worker zipf answers diverged from the inline "
                "pool")
