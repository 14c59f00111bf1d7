"""Cross-executor determinism: inline / async / mp / net are bit-identical.

The executor registry promises that ``inline``, ``async``, ``mp`` and
``net`` differ only in *where* the work runs.  The argument for why this holds:

* the partitioner is shared code and splits every chunk identically,
  so each shard sees the same element sequence under every executor;
* batch boundaries only affect *when* the engine pumps, never which
  elements land in which window — the windower slices by element
  count, not by arrival batch;
* a single ``drain()`` flushes every shard at the same element
  boundary, so the final short windows are identical too.

These tests enforce the promise bit-for-bit (no tolerances), and pin
golden values so a silent change in any executor's arithmetic shows up
as a diff against *recorded* answers, not just against a sibling that
may have drifted the same way.

The AST guard at the bottom keeps the property structurally true:
builtin ``hash()`` is salted per *process* (``PYTHONHASHSEED``), so a
single call anywhere in the service layer would make the mp executor
disagree with the in-process ones on str/bytes keys.  The service layer
must route values through explicit, seedable hashes instead.
"""

import ast
import asyncio
import pathlib

import numpy as np
import pytest

import repro.service as service_pkg
from repro.obs import collecting
from repro.service import (MpShardedMiner, NetShardedMiner, ServicePolicies,
                           ShardedMiner, StreamService, registered_executors)
from repro.streams import uniform_stream, zipf_stream

N = 60_000
CHUNK = 3_000
SHARDS = 4

#: Answers recorded from the inline executor; every executor must
#: reproduce them exactly (float32 pipeline, zero tolerance).
GOLDEN_QUANTILES = [100.69022369384766, 498.8002014160156, 900.526611328125]
GOLDEN_TOP_FREQUENT = [(1.0, 12531), (2.0, 5534), (3.0, 3324)]
GOLDEN_DISTINCT = 3034.7503123202

PHIS = (0.1, 0.5, 0.9)
SUPPORT = 0.05


def _miner_kwargs(statistic):
    kwargs = dict(num_shards=SHARDS, backend="cpu")
    if statistic == "quantile":
        kwargs.update(eps=0.02, window_size=1024, stream_length_hint=N)
    elif statistic == "frequency":
        kwargs.update(eps=0.005)
    else:
        kwargs.update(eps=0.05)
    return kwargs


def _stream(statistic):
    if statistic == "quantile":
        return uniform_stream(N, seed=11)
    if statistic == "frequency":
        return zipf_stream(N, seed=11)
    return np.floor(uniform_stream(N, seed=11) * 3.0).astype(np.float32)


def _answers(statistic, miner):
    if statistic == "quantile":
        return [miner.quantile(phi) for phi in PHIS]
    if statistic == "frequency":
        return miner.frequent_items(SUPPORT)
    return miner.distinct()


def _run_inline(statistic):
    miner = ShardedMiner(statistic, **_miner_kwargs(statistic))
    data = _stream(statistic)
    for start in range(0, data.size, CHUNK):
        miner.ingest(data[start:start + CHUNK])
    miner.drain()
    return _answers(statistic, miner)


def _run_async(statistic):
    async def drive():
        miner = ShardedMiner(statistic, **_miner_kwargs(statistic))
        data = _stream(statistic)
        async with StreamService(miner, queue_chunks=8) as svc:
            for start in range(0, data.size, CHUNK):
                await svc.ingest(data[start:start + CHUNK])
            await svc.drain()
        return _answers(statistic, miner)
    return asyncio.run(drive())


def _run_mp(statistic):
    miner = MpShardedMiner(statistic, **_miner_kwargs(statistic))
    try:
        data = _stream(statistic)
        for start in range(0, data.size, CHUNK):
            miner.ingest(data[start:start + CHUNK])
        miner.drain()
        return _answers(statistic, miner)
    finally:
        miner.close()


def _run_net(statistic):
    miner = NetShardedMiner(statistic, **_miner_kwargs(statistic))
    try:
        data = _stream(statistic)
        for start in range(0, data.size, CHUNK):
            miner.ingest(data[start:start + CHUNK])
        miner.drain()
        return _answers(statistic, miner)
    finally:
        miner.close()


_RUNNERS = {"inline": _run_inline, "async": _run_async, "mp": _run_mp,
            "net": _run_net}


@pytest.mark.slow
class TestBitIdentical:
    @pytest.fixture(scope="class")
    def answers(self):
        return {
            statistic: {name: run(statistic)
                        for name, run in _RUNNERS.items()}
            for statistic in ("quantile", "frequency", "distinct")
        }

    def test_every_builtin_executor_covered(self):
        assert set(_RUNNERS) == set(registered_executors())

    def test_quantiles_bit_identical(self, answers):
        per_executor = answers["quantile"]
        assert per_executor["inline"] == GOLDEN_QUANTILES
        for name in _RUNNERS:
            assert per_executor[name] == per_executor["inline"]

    def test_frequencies_bit_identical(self, answers):
        per_executor = answers["frequency"]
        assert per_executor["inline"][:3] == GOLDEN_TOP_FREQUENT
        for name in _RUNNERS:
            assert per_executor[name] == per_executor["inline"]

    def test_distinct_bit_identical(self, answers):
        per_executor = answers["distinct"]
        assert per_executor["inline"] == pytest.approx(
            GOLDEN_DISTINCT, abs=1e-9)
        for name in _RUNNERS:
            assert per_executor[name] == per_executor["inline"]


# ----------------------------------------------------------------------
# generic estimator kinds: the matrix must stay bit-identical too
# ----------------------------------------------------------------------
# The non-default families ride a different pool path (family merge at
# full eps instead of GK merge+prune at eps/2), so the determinism
# argument above has to be re-earned per kind: same partitioner, same
# windows, and a merge fold whose result is independent of *where* the
# shards ran.

KIND_MATRIX = [("quantile", "ddsketch"), ("quantile", "kll"),
               ("quantile", "tdigest"), ("frequency", "count-min")]
KIND_N = 20_000
KIND_CHUNK = 2_000
KIND_PROBES = (1.0, 2.0, 3.0, 5.0, 8.0)


def _run_kind(pool_cls, statistic, kind):
    kwargs = _miner_kwargs(statistic)
    kwargs.update(kind=kind)
    miner = pool_cls(statistic, **kwargs)
    try:
        data = _stream(statistic)[:KIND_N]
        for start in range(0, data.size, KIND_CHUNK):
            miner.ingest(data[start:start + KIND_CHUNK])
        miner.drain()
        if statistic == "quantile":
            return [miner.quantile(phi) for phi in PHIS]
        return [miner.estimate(value) for value in KIND_PROBES]
    finally:
        if hasattr(miner, "close"):
            miner.close()


@pytest.mark.slow
class TestKindMatrixBitIdentical:
    @pytest.mark.parametrize("statistic,kind", KIND_MATRIX)
    def test_kind_identical_across_executors(self, statistic, kind):
        inline = _run_kind(ShardedMiner, statistic, kind)
        assert _run_kind(MpShardedMiner, statistic, kind) == inline
        assert _run_kind(NetShardedMiner, statistic, kind) == inline

    @pytest.mark.parametrize("statistic,kind", KIND_MATRIX)
    def test_kind_snapshot_crosses_executors(self, statistic, kind):
        kwargs = _miner_kwargs(statistic)
        kwargs.update(kind=kind)
        miner = MpShardedMiner(statistic, **kwargs)
        try:
            data = _stream(statistic)[:KIND_N]
            for start in range(0, data.size, KIND_CHUNK):
                miner.ingest(data[start:start + KIND_CHUNK])
            miner.drain()
            if statistic == "quantile":
                expected = [miner.quantile(phi) for phi in PHIS]
            else:
                expected = [miner.estimate(v) for v in KIND_PROBES]
            state = miner.snapshot()
        finally:
            miner.close()
        assert state["estimator_kind"] == kind
        restored = ShardedMiner.from_snapshot(state)
        if statistic == "quantile":
            assert [restored.quantile(phi) for phi in PHIS] == expected
        else:
            assert [restored.estimate(v) for v in KIND_PROBES] == expected


@pytest.mark.slow
class TestSnapshotInterchange:
    """The mp pool speaks the exact ``sharded-miner`` snapshot dialect."""

    def test_mp_snapshot_loads_in_process(self):
        miner = MpShardedMiner("quantile", **_miner_kwargs("quantile"))
        try:
            data = _stream("quantile")
            for start in range(0, data.size, CHUNK):
                miner.ingest(data[start:start + CHUNK])
            miner.drain()
            expected = [miner.quantile(phi) for phi in PHIS]
            state = miner.snapshot()
        finally:
            miner.close()
        assert state["kind"] == "sharded-miner"
        restored = ShardedMiner.from_snapshot(state)
        assert [restored.quantile(phi) for phi in PHIS] == expected

    def test_in_process_snapshot_loads_in_mp(self):
        miner = ShardedMiner("quantile", **_miner_kwargs("quantile"))
        data = _stream("quantile")
        for start in range(0, data.size, CHUNK):
            miner.ingest(data[start:start + CHUNK])
        miner.drain()
        expected = [miner.quantile(phi) for phi in PHIS]
        restored = MpShardedMiner.from_snapshot(miner.snapshot())
        try:
            assert [restored.quantile(phi) for phi in PHIS] == expected
            assert restored.processed == miner.processed
        finally:
            restored.close()


@pytest.mark.slow
class TestWorkerPoolSpans:
    def test_traced_query_fetches_each_shard_and_merges_once(self):
        miner = MpShardedMiner("quantile", **_miner_kwargs("quantile"))
        try:
            data = _stream("quantile")
            for start in range(0, data.size, CHUNK):
                miner.ingest(data[start:start + CHUNK])
            miner.drain()
            with collecting() as col:
                miner.quantile(0.5)
            spans = col.snapshot()
        finally:
            miner.close()
        fetches = sorted((s.attrs["shard"], s.attrs["command"])
                         for s in spans if s.name == "service.state_fetch")
        assert fetches == [(shard, "state") for shard in range(SHARDS)]
        merges = [s.attrs for s in spans
                  if s.name == "service.merge_on_query"]
        assert merges == [{"op": "summary", "shards": SHARDS}]


@pytest.mark.slow
class TestPipeTransport:
    """Every mp batch is pickled onto its worker's pipe, behind one
    in-flight window."""

    def test_window_caps_pending_and_answers_match_inline(self):
        kwargs = dict(num_shards=2, backend="cpu", eps=1e-3)
        data = zipf_stream(N, seed=13)
        inline = ShardedMiner("frequency", **kwargs)
        miner = MpShardedMiner(
            "frequency", policies=ServicePolicies(max_inflight_batches=2),
            **kwargs)
        try:
            peak = 0
            for start in range(0, data.size, 500):
                chunk = data[start:start + 500]
                inline.ingest(chunk)
                miner.ingest(chunk)
                for link in miner._links:
                    assert len(link.pending) <= 2
                    peak = max(peak, len(link.pending))
            assert peak == 2  # the window filled, so dispatch waited
            inline.drain()
            miner.drain()
            assert miner.frequent_items(SUPPORT) == \
                inline.frequent_items(SUPPORT)
            assert [miner.estimate(v) for v in KIND_PROBES] == \
                [inline.estimate(v) for v in KIND_PROBES]
            shards = miner.metrics.shards
            assert sum(s.pickle_batches for s in shards) == \
                sum(s.batches for s in shards) == N // 500 * 2
        finally:
            miner.close()

    def test_batch_larger_than_the_old_ring(self):
        # 2**20 float32 was the per-shard shared-memory arena.
        data = uniform_stream((1 << 20) + 1, seed=5)
        kwargs = dict(num_shards=1, backend="cpu", eps=0.01)
        inline = ShardedMiner("quantile", **kwargs)
        inline.ingest(data)
        inline.drain()
        miner = MpShardedMiner("quantile", **kwargs)
        try:
            miner.ingest(data)
            miner.drain()
            assert [miner.quantile(phi) for phi in PHIS] == \
                [inline.quantile(phi) for phi in PHIS]
            assert miner.processed == data.size
            assert miner.metrics.shards[0].pickle_batches == 1
        finally:
            miner.close()


class TestNoBuiltinHash:
    """Builtin ``hash()`` is banned from the whole service layer."""

    def test_service_layer_never_calls_builtin_hash(self):
        package_dir = pathlib.Path(service_pkg.__file__).parent
        offenders = []
        for path in sorted(package_dir.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "hash"):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, (
            "builtin hash() is process-salted (PYTHONHASHSEED) and would "
            "break cross-process determinism; found calls at: "
            + ", ".join(offenders))
