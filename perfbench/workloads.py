"""The four closed-loop workloads.

Each workload owns a seeded stream and knows how to build its system
(``setup``), push one chunk plus its interleaved reads (``step``),
settle it (``final_drain``), account lost elements (``lost``), tear it
down, and replay the same operations on an in-process reference
(``reference``).  One producer awaits every call before it makes the
next: every caller of this library waits for its reply.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from common import HostProbe, Stream, zipf_base
from oracle import Record
from repro.core.engine import StreamMiner
from repro.gpu import GpuDevice
from repro.query import QueryFrontEnd, QuerySpec, build_service

perf = time.perf_counter

SUPPORT = 0.01
QUERY_KEY = "bench"


def query_specs() -> list[QuerySpec]:
    """The deterministic 1,000-query mix of the query-layer bench.

    It plans onto four physical sketches: streaming quantiles at 0.01,
    lossy counting at 0.1 and 0.05, and KMV.
    """
    specs: list[QuerySpec] = []
    quantile_eps = (0.01, 0.02, 0.05, 0.1)
    frequency_eps = (0.05, 0.1)
    for i in range(1_000):
        slot = i % 10
        if slot < 5:
            specs.append(QuerySpec("quantile", key=QUERY_KEY,
                                   eps=quantile_eps[i % 4],
                                   phi=(i % 99 + 1) / 100.0))
        elif slot < 7:
            specs.append(QuerySpec("heavy_hitters", key=QUERY_KEY,
                                   eps=frequency_eps[i % 2], support=0.2))
        elif slot < 8:
            specs.append(QuerySpec("top_k", key=QUERY_KEY, eps=0.1,
                                   k=5 + i % 5))
        elif slot < 9:
            specs.append(QuerySpec("estimate", key=QUERY_KEY, eps=0.1,
                                   value=float(i % 16)))
        else:
            specs.append(QuerySpec("distinct", key=QUERY_KEY,
                                   eps=(0.02, 0.05)[i % 2]))
    return specs


def spec_params(spec: QuerySpec) -> dict:
    if spec.metric == "quantile":
        return {"phi": spec.phi}
    if spec.metric == "heavy_hitters":
        return {"support": spec.support}
    if spec.metric == "top_k":
        return {"k": spec.k}
    if spec.metric == "estimate":
        return {"value": spec.value}
    return {}


@dataclass
class Run:
    """What one closed-loop run measured and received.

    Latencies are (perf_counter stamp, seconds) pairs, so the host
    probe can scale each by the host speed at that moment.
    """

    chunk_s: list[tuple[float, float]] = field(default_factory=list)
    answer_s: list[tuple[float, float]] = field(default_factory=list)
    fresh_s: list[tuple[float, float]] = field(default_factory=list)
    steps_s: list[tuple[float, float]] = field(default_factory=list)
    records: list[Record] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    probe: HostProbe = field(default_factory=HostProbe)
    chunks: int = 0
    attempted: int = 0
    since_barrier: int = 0
    barriers: int = 0
    peak_rss_mb: float = 0.0

    def ingested(self, seconds: float, elements: int) -> None:
        self.chunk_s.append((perf(), seconds))
        self.chunks += 1
        self.since_barrier += int(elements)
        self.attempted += 1

    def answered(self, seconds: float, fresh: bool, metric: str,
                 params: dict, value, eps: float) -> None:
        if fresh:
            self.fresh_s.append((perf(), seconds))
            self.since_barrier = 0
            self.barriers += 1
        else:
            self.answer_s.append((perf(), seconds))
        self.attempted += 1
        self.records.append(Record(self.chunks, self.since_barrier,
                                   self.barriers, metric, dict(params),
                                   value, float(eps), fresh))


class Workload:
    name = ""
    chunk = 4096
    base_chunks = 256
    setup_reps = 3
    ladder_chunks = 64

    def __init__(self, seed: int):
        self.stream = Stream(zipf_base(self.chunk * self.base_chunks, seed),
                             self.chunk)

    async def setup(self):
        raise NotImplementedError

    async def teardown(self, ctx) -> None:
        pass

    async def step(self, ctx, run: Run, tracer) -> None:
        raise NotImplementedError

    async def final_drain(self, ctx) -> None:
        raise NotImplementedError

    async def lost(self, ctx, elements: int) -> int:
        raise NotImplementedError

    async def reference(self, run: Run) -> list[str]:
        """Mismatches against an in-process replay (none by default)."""
        return []


# ----------------------------------------------------------------------
class QueryMix(Workload):
    """1,000 standing queries on an inline front-end over 2 shards."""

    name = "query-mix"
    chunk = 512
    base_chunks = 512
    setup_reps = 15
    ladder_chunks = 64
    answers_per_chunk = 16

    def __init__(self, seed: int):
        super().__init__(seed)
        self.specs = query_specs()

    async def setup(self):
        frontend = QueryFrontEnd(executor="inline", num_shards=2,
                                 backend="cpu")
        try:
            ids = [await frontend.register(spec) for spec in self.specs]
        except BaseException:
            await frontend.close()
            raise
        fresh_ids = [qid for qid, spec in zip(ids, self.specs)
                     if spec.metric == "quantile"]
        return frontend, ids, fresh_ids

    async def teardown(self, ctx) -> None:
        await ctx[0].close()

    async def step(self, ctx, run: Run, tracer) -> None:
        frontend, ids, fresh_ids = ctx
        k = run.chunks
        chunk = self.stream[k]
        with tracer.span("frontend.ingest", elements=chunk.size):
            began = perf()
            await frontend.ingest(chunk, QUERY_KEY)
            run.ingested(perf() - began, chunk.size)
        # Read-your-writes: settle every sketch, then answer one
        # quantile query (the same metric each time, so the latency
        # distribution has one mode).
        qid = fresh_ids[k % len(fresh_ids)]
        with tracer.span("frontend.fresh"):
            began = perf()
            await frontend.drain()
            answer = await frontend.answer(qid)
            elapsed = perf() - began
        spec = frontend.get(qid).spec
        run.answered(elapsed, True, spec.metric, spec_params(spec),
                     answer.value, answer.error_bound)
        for j in range(self.answers_per_chunk):
            qid = ids[(k * self.answers_per_chunk + j) % len(ids)]
            with tracer.span("frontend.answer"):
                began = perf()
                answer = await frontend.answer(qid)
                elapsed = perf() - began
            spec = frontend.get(qid).spec
            run.answered(elapsed, False, spec.metric, spec_params(spec),
                         answer.value, answer.error_bound)

    async def final_drain(self, ctx) -> None:
        await ctx[0].drain()

    async def lost(self, ctx, elements: int) -> int:
        return sum(abs(elements - int(handle.service.miner.processed))
                   for handle in ctx[0].cache.handles())


# ----------------------------------------------------------------------
class GpuFrequency(Workload):
    """The paper's Fig. 5 pipeline: one miner sorting on the simulated GPU."""

    name = "gpu-frequency"
    chunk = 4096
    base_chunks = 256
    setup_reps = 200
    ladder_chunks = 32
    eps = 1e-3
    estimates_per_chunk = 6
    estimate_values = tuple(float(v) for v in range(1, 65))

    def _miner(self, backend: str = "gpu") -> StreamMiner:
        device = GpuDevice() if backend == "gpu" else None
        return StreamMiner("frequency", eps=self.eps, backend=backend,
                           device=device)

    async def setup(self):
        return self._miner()

    def _reads(self, k: int, fresh: bool):
        """The (metric, params) reads after chunk ``k``, in order."""
        reads = []
        if fresh:
            reads.append(("heavy_hitters", {"support": SUPPORT}, True))
        for j in range(self.estimates_per_chunk):
            i = (k * self.estimates_per_chunk + j) % len(self.estimate_values)
            reads.append(("estimate", {"value": self.estimate_values[i]},
                          False))
        reads.append(("heavy_hitters", {"support": SUPPORT}, False))
        return reads

    @staticmethod
    def _read(miner: StreamMiner, metric: str, params: dict, fresh: bool):
        if fresh:
            miner.flush()
        if metric == "estimate":
            return miner.estimate(params["value"])
        return miner.frequent_items(params["support"])

    async def step(self, miner, run: Run, tracer) -> None:
        k = run.chunks
        chunk = self.stream[k]
        with tracer.span("engine.update", elements=chunk.size):
            began = perf()
            miner.update(chunk)
            run.ingested(perf() - began, chunk.size)
        for metric, params, fresh in self._reads(k, k % 2 == 0):
            with tracer.span("engine.fresh" if fresh else "engine.answer"):
                began = perf()
                value = self._read(miner, metric, params, fresh)
                elapsed = perf() - began
            run.answered(elapsed, fresh, metric, params, value, self.eps)

    async def final_drain(self, miner) -> None:
        miner.flush()

    async def lost(self, miner, elements: int) -> int:
        return abs(elements - int(miner.estimator.processed))

    async def reference(self, run: Run) -> list[str]:
        """Replay every read on the CPU baseline sorter: sorting is a
        pure function of the window, so all answers must be equal."""
        cpu = self._miner("cpu")
        misses: list[str] = []
        records = iter(run.records)
        rec = next(records, None)
        for k in range(run.chunks):
            cpu.update(self.stream[k])
            while rec is not None and rec.chunks == k + 1:
                value = self._read(cpu, rec.metric, rec.params, rec.fresh)
                if value != rec.value:
                    misses.append(f"gpu vs cpu sorter: {rec.metric} "
                                  f"{rec.params} after chunk {k} differs")
                rec = next(records, None)
        return misses


# ----------------------------------------------------------------------
class ScaleOut(Workload):
    """Frequency at eps 1e-3 on 2 worker processes behind the service."""

    executor = ""
    chunk = 4096
    base_chunks = 512
    setup_reps = 3
    ladder_chunks = 192
    reference_chunks = 256
    eps = 1e-3
    estimate_values = tuple(float(v) for v in range(1, 65))

    @property
    def miner_kwargs(self) -> dict:
        return {"statistic": "frequency", "eps": self.eps, "num_shards": 2,
                "backend": "cpu"}

    async def setup(self):
        service = build_service(self.executor, self.miner_kwargs)
        try:
            await service.start()
        except BaseException:
            close = getattr(service.miner, "close", None)
            if close is not None:
                close()
            raise
        return service

    async def teardown(self, service) -> None:
        try:
            await service.stop(drain=False)
        finally:
            close = getattr(service.miner, "close", None)
            if close is not None:
                close()

    async def step(self, service, run: Run, tracer) -> None:
        k = run.chunks
        chunk = self.stream[k]
        with tracer.span("service.ingest", elements=chunk.size):
            began = perf()
            await service.ingest(chunk)
            run.ingested(perf() - began, chunk.size)
        value = self.estimate_values[k % len(self.estimate_values)]
        with tracer.span("service.estimate"):
            began = perf()
            estimate = await service.estimate(value)
            elapsed = perf() - began
        run.answered(elapsed, False, "estimate", {"value": value}, estimate,
                     self.eps)
        if k % 2 == 1:
            with tracer.span("service.fresh"):
                began = perf()
                items = await service.frequent_items(SUPPORT, fresh=True)
                elapsed = perf() - began
            run.answered(elapsed, True, "heavy_hitters",
                         {"support": SUPPORT}, items, self.eps)

    async def final_drain(self, service) -> None:
        await service.drain()

    async def lost(self, service, elements: int) -> int:
        processed = int(service.miner.processed)
        return (abs(elements - processed)
                + int(service.metrics.lost_elements))

    async def reference(self, run: Run) -> list[str]:
        """An inline pool fed the same chunks, drained at the same
        points, must give bit-identical read-your-writes answers.

        Reads without a barrier see however far the workers got, so
        only the exact oracle checks those.  The replay covers the
        first ``reference_chunks`` chunks: the inline pool is barely
        faster than the workers, so a full replay would double the run.
        """
        inline = build_service("inline", self.miner_kwargs)
        await inline.start()
        misses: list[str] = []
        fresh = [rec for rec in run.records if rec.fresh]
        i = 0
        try:
            for k in range(min(run.chunks, self.reference_chunks)):
                await inline.ingest(self.stream[k])
                while i < len(fresh) and fresh[i].chunks == k + 1:
                    items = await inline.frequent_items(
                        fresh[i].params["support"], fresh=True)
                    if items != fresh[i].value:
                        misses.append(f"{self.executor} vs inline pool: "
                                      f"heavy hitters after chunk {k} "
                                      "differ")
                    i += 1
        finally:
            await inline.stop(drain=False)
        return misses


class NetScaleOut(ScaleOut):
    name = "net-scaleout"
    executor = "net"


class MpScaleOut(ScaleOut):
    name = "mp-scaleout"
    executor = "mp"


WORKLOADS = {cls.name: cls for cls in (QueryMix, GpuFrequency,
                                        NetScaleOut, MpScaleOut)}
