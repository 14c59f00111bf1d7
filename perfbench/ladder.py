"""The layer ladder: one seeded prefix pushed through each rung in turn.

Rungs, bottom to top, each through its public entry point:

1. ``sorting``        the resolved sorter's ``sort_batch`` on the windows
2. ``core.<family>``  the estimator's ``update_batch`` on sorted windows
3. ``core.engine``    ``StreamMiner.update`` + ``flush``
4. ``service.inline`` an ``inline`` pool from ``build_service``
5. ``service.<exec>`` the workload's own executor (scale-out only)
6. ``query``          ``QueryFrontEnd.ingest`` (query-mix only)

Answers climb the same way, from the estimator query up to
``QueryFrontEnd.answer``.  Rungs 1 and 2 are the two halves of rung 3,
so rung 3's self time is its wall minus both; above that a rung's self
time is its wall minus the rung below.  Fixed work (a prefix of
``ladder_chunks`` chunks) makes the counts repeat exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.histograms import histogram_from_sorted
from repro.gpu import GpuDevice
from repro.query import Planner, QueryFrontEnd, build_miner, build_service

from workloads import QUERY_KEY, SUPPORT, GpuFrequency, QueryMix, \
    ScaleOut, Workload, spec_params

perf = time.perf_counter

LADDER_READS = 10

FAMILY = {"quantile": "quantiles", "frequency": "frequencies",
          "distinct": "distinct"}


@dataclass
class Sketch:
    """One physical summary the workload keeps: what a single miner,
    an inline pool and the executor are each built with."""

    statistic: str
    eps: float
    kind: str | None
    backend: str

    def miner(self, device=None):
        return build_miner(self.statistic, eps=self.eps,
                           backend=self.backend, kind=self.kind,
                           device=device)

    def pool_kwargs(self) -> dict:
        return {"statistic": self.statistic, "eps": self.eps,
                "num_shards": 2, "backend": self.backend, "kind": self.kind}


@dataclass
class Rung:
    layer: str
    ingest_s: float
    answer_s: float | None = None


@dataclass
class Ladder:
    rungs: list[Rung] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def self_times(self, which: str) -> list[tuple[str, float]]:
        """(layer, self seconds) per rung that has a ``which`` wall."""
        out: list[tuple[str, float]] = []
        below = 0.0
        for rung in self.rungs:
            wall = getattr(rung, which)
            if wall is None:
                continue
            leaf = rung.layer in ("sorting",) or rung.layer.startswith(
                "core.") and rung.layer != "core.engine"
            if leaf:
                out.append((rung.layer, wall))
                below += wall
            else:
                out.append((rung.layer, wall - below))
                below = wall
        return out


def _space(estimator) -> int:
    if hasattr(estimator, "space"):
        return int(estimator.space())
    return len(estimator)


def _estimator_read(est, metric: str, params: dict, eps: float):
    if metric == "quantile":
        return est.quantile(float(params["phi"]))
    if metric == "heavy_hitters":
        return est.frequent_items(float(params["support"]))
    if metric == "top_k":
        return est.frequent_items(eps)[:int(params["k"])]
    if metric == "estimate":
        return est.estimate(float(params["value"]))
    return est.estimate()


def _miner_read(miner, metric: str, params: dict):
    if metric == "quantile":
        return miner.quantile(float(params["phi"]))
    if metric == "heavy_hitters":
        return miner.frequent_items(float(params["support"]))
    if metric == "top_k":
        return miner.frequent_items(miner.eps)[:int(params["k"])]
    if metric == "estimate":
        return miner.estimate(float(params["value"]))
    return miner.distinct()


def _service_metrics(services, ingest_s: float, drain_s: float,
                     answer_s: float) -> dict[str, float]:
    shards = [s for svc in services for s in svc.metrics.shards]
    busy = max((s.update_seconds for s in shards), default=0.0)
    return {
        "service.ingest_s": ingest_s,
        "service.drain_s": drain_s,
        "service.answer_s": answer_s,
        "service.busy_max_s": busy,
        "service.transport_s": sum(s.transport_seconds for s in shards),
        "service.busy_share": busy / max(ingest_s + drain_s, 1e-12),
        "service.batches": sum(s.batches for s in shards),
        "service.shm_batches": sum(s.shm_batches for s in shards),
        "service.pickle_batches": sum(s.pickle_batches for s in shards),
        "service.net_batches": sum(s.net_batches for s in shards),
        "service.queue_high_water": max(
            (s.queue_high_water for s in shards), default=0),
        "service.retries": sum(s.retries for s in shards),
        "service.replayed_batches": sum(s.replayed_batches for s in shards),
    }


class LadderRunner:
    """Runs the rungs that exist for one workload, spans around each call."""

    def __init__(self, workload: Workload, tracer):
        self.tracer = tracer
        self.chunks = [workload.stream[k]
                       for k in range(workload.ladder_chunks)]
        self.result = Ladder()
        self.metrics = self.result.metrics

    # -- plumbing --------------------------------------------------------
    def _timed(self, name: str, call, *args, **attrs):
        with self.tracer.span(name, **attrs):
            began = perf()
            out = call(*args)
            return out, perf() - began

    async def _atimed(self, name: str, coro_fn, *args, **attrs):
        with self.tracer.span(name, **attrs):
            began = perf()
            out = await coro_fn(*args)
            return out, perf() - began

    # -- the rungs -------------------------------------------------------
    def sorting(self, sketches: list[Sketch], device) -> list[list]:
        """Rung 1; returns each sketch's sorted windows for rung 2."""
        data = np.concatenate(self.chunks)
        total_s = 0.0
        elements = 0
        sorted_per_sketch = []
        with self.tracer.span("ladder.sorting"):
            for sketch in sketches:
                proto = sketch.miner(device)
                raw = data
                if sketch.statistic == "distinct":
                    raw = sketch.miner().estimator.prepare_chunk(data)
                w = int(proto.window_size)
                windows = [raw[i:i + w] for i in range(0, raw.size, w)]
                out: list = []
                for i in range(0, len(windows), 4):
                    batch = windows[i:i + 4]
                    result, wall = self._timed(
                        "sorting.sort_batch", proto.sorter.sort_batch, batch,
                        windows=len(batch))
                    out.extend(result)
                    total_s += wall
                elements += int(raw.size)
                sorted_per_sketch.append(out)
        self.metrics["sorting.sort_batch_s"] = total_s
        self.metrics["sorting.el_per_s"] = elements / max(total_s, 1e-12)
        self.result.rungs.append(Rung("sorting", total_s))
        return sorted_per_sketch

    def estimators(self, sketches, sorted_windows, reads) -> None:
        """Rung 2: ``update_batch`` on pre-sorted windows, then reads."""
        for family in FAMILY.values():
            self.metrics[f"core.{family}.update_s"] = 0.0
            self.metrics[f"core.{family}.space_entries"] = 0
        total_s = answer_s = 0.0
        with self.tracer.span("ladder.estimators"):
            estimators = []
            for sketch, windows in zip(sketches, sorted_windows):
                est = sketch.miner().estimator
                family = FAMILY[sketch.statistic]
                hists = ([histogram_from_sorted(np.asarray(w))
                          for w in windows]
                         if sketch.statistic == "frequency" else
                         [None] * len(windows))
                wall_sum = 0.0
                for window, hist in zip(windows, hists):
                    _, wall = self._timed(
                        f"core.{family}.update_batch",
                        lambda: est.update_batch(window, histogram=hist))
                    wall_sum += wall
                self.metrics[f"core.{family}.update_s"] += wall_sum
                self.metrics[f"core.{family}.space_entries"] += _space(est)
                total_s += wall_sum
                estimators.append(est)
            for index, metric, params in reads:
                sketch = sketches[index]
                est = estimators[index]
                _, wall = self._timed(
                    f"core.{FAMILY[sketch.statistic]}.query",
                    lambda: _estimator_read(est, metric, params,
                                            sketch.eps))
                answer_s += wall
        self.result.rungs.append(Rung("core.estimators", total_s, answer_s))

    def engine(self, sketches, reads) -> None:
        """Rung 3: ``StreamMiner.update`` + ``flush``, then reads."""
        total_s = answer_s = 0.0
        pipeline = {"sort": 0.0, "histogram": 0.0, "merge": 0.0}
        with self.tracer.span("ladder.engine"):
            miners = []
            for sketch in sketches:
                device = GpuDevice() if sketch.backend == "gpu" else None
                miner = sketch.miner(device)
                for chunk in self.chunks:
                    _, wall = self._timed("core.engine.update",
                                          miner.update, chunk)
                    total_s += wall
                _, wall = self._timed("core.engine.flush", miner.flush)
                total_s += wall
                for op in pipeline:
                    pipeline[op] += float(miner.report.wall.get(op, 0.0))
                miners.append(miner)
            for index, metric, params in reads:
                miner = miners[index]
                _, wall = self._timed(
                    "core.engine.query",
                    lambda: _miner_read(miner, metric, params))
                answer_s += wall
        self.metrics["core.engine.update_s"] = total_s
        for op, wall in pipeline.items():
            self.metrics[f"core.pipeline.{op}_s"] = wall
        self.result.rungs.append(Rung("core.engine", total_s, answer_s))

    async def pools(self, executor: str, sketches, reads) -> dict:
        """Rungs 4/5: one pool per sketch under ``executor``."""
        ingest_s = drain_s = answer_s = 0.0
        services = []
        layer = f"service.{executor}"
        try:
            with self.tracer.span(f"ladder.{layer}"):
                for sketch in sketches:
                    service = build_service(executor, sketch.pool_kwargs())
                    services.append(service)
                    await service.start()
                for service in services:
                    for chunk in self.chunks:
                        _, wall = await self._atimed(
                            f"{layer}.ingest", service.ingest, chunk)
                        ingest_s += wall
                    _, wall = await self._atimed(f"{layer}.drain",
                                                 service.drain)
                    drain_s += wall
                for index, metric, params in reads:
                    service = services[index]
                    _, wall = await self._atimed(
                        f"{layer}.answer",
                        lambda: service.answer(metric, **params))
                    answer_s += wall
                metrics = _service_metrics(services, ingest_s, drain_s,
                                           answer_s)
        finally:
            for service in services:
                try:
                    await service.stop(drain=False)
                finally:
                    close = getattr(service.miner, "close", None)
                    if close is not None:
                        close()
        self.result.rungs.append(Rung(layer, ingest_s + drain_s, answer_s))
        return metrics

    async def frontend(self, specs) -> None:
        """Rung 6: plan, register, ingest and answer via the front-end."""
        planner = Planner("cpu")
        began = perf()
        for spec in specs:
            planner.plan(spec)
        plan_s = perf() - began
        frontend = QueryFrontEnd(executor="inline", num_shards=2,
                                 backend="cpu")
        ingest_s = answer_s = 0.0
        try:
            with self.tracer.span("ladder.query"):
                with self.tracer.span("query.register"):
                    began = perf()
                    ids = [await frontend.register(spec) for spec in specs]
                    register_s = perf() - began
                for chunk in self.chunks:
                    _, wall = await self._atimed(
                        "query.ingest", frontend.ingest, chunk, QUERY_KEY)
                    ingest_s += wall
                _, wall = await self._atimed("query.drain", frontend.drain)
                ingest_s += wall
                for qid in ids[:LADDER_READS]:
                    _, wall = await self._atimed("query.answer",
                                                 frontend.answer, qid)
                    answer_s += wall
            metrics = frontend.metrics
            self.metrics.update({
                "query.plan_us": plan_s / len(specs) * 1e6,
                "query.register_s": register_s,
                "query.ingest_s": ingest_s,
                "query.answer_s": answer_s,
                "query.fanout": (metrics.fanout_ingests
                                 / max(metrics.ingested_chunks, 1)),
                "query.shared_ratio": metrics.shared_ratio,
            })
            self.result.notes["query.shared_ratio_base"] = metrics.registered
        finally:
            await frontend.close()
        self.result.rungs.append(Rung("query", ingest_s, answer_s))


ZERO_GPU = {"gpu.passes": 0, "gpu.fragments": 0, "gpu.bytes_moved": 0,
            "gpu.modelled_s": 0.0}
ZERO_SERVICE = _service_metrics([], 0.0, 0.0, 0.0)
ZERO_QUERY = {"query.plan_us": 0.0, "query.register_s": 0.0,
              "query.ingest_s": 0.0, "query.answer_s": 0.0,
              "query.fanout": 0.0, "query.shared_ratio": 0.0}


def _gpu_metrics(device: GpuDevice) -> dict[str, float]:
    c = device.counters
    return {
        "gpu.passes": int(c.passes),
        "gpu.fragments": int(c.fragments),
        "gpu.bytes_moved": int(c.bytes_read + c.bytes_written
                               + c.bytes_uploaded + c.bytes_readback),
        "gpu.modelled_s": float(device.cost_model.time(c)),
    }


async def _query_sketches(wl: QueryMix):
    """The physical sketches the 1,000-query mix plans onto, and which
    sketch serves each query (read off a throwaway front-end)."""
    frontend = QueryFrontEnd(executor="inline", num_shards=2, backend="cpu")
    try:
        ids = [await frontend.register(spec) for spec in wl.specs]
        handles = frontend.cache.handles()
        sketches = [Sketch(h.key.statistic, float(h.eps), h.kind, "cpu")
                    for h in handles]
        index = {id(h): i for i, h in enumerate(handles)}
        serving = [index[id(frontend.get(qid).handle)] for qid in ids]
    finally:
        await frontend.close()
    # One cycle of the mix's 10-slot pattern: every metric and sketch,
    # without 500 unmemoized quantile merges at the lower rungs.
    reads = [(serving[i], spec.metric, spec_params(spec))
             for i, spec in enumerate(wl.specs[:LADDER_READS])]
    return sketches, reads


def _frequency_reads(values) -> list[tuple]:
    reads = [(0, "estimate", {"value": v}) for v in values]
    reads += [(0, "heavy_hitters", {"support": SUPPORT})] * 8
    return reads


async def run_ladder(wl: Workload, tracer) -> Ladder:
    runner = LadderRunner(wl, tracer)
    metrics = runner.metrics
    metrics.update(ZERO_GPU)
    metrics.update(ZERO_SERVICE)
    metrics.update(ZERO_QUERY)
    device = None
    if isinstance(wl, QueryMix):
        sketches, reads = await _query_sketches(wl)
    elif isinstance(wl, GpuFrequency):
        device = GpuDevice()
        sketches = [Sketch("frequency", wl.eps, None, "gpu")]
        reads = _frequency_reads(wl.estimate_values)
    else:
        sketches = [Sketch("frequency", wl.eps, None, "cpu")]
        reads = _frequency_reads(wl.estimate_values)
    sorted_windows = runner.sorting(sketches, device)
    if device is not None:
        metrics.update(_gpu_metrics(device))
    runner.estimators(sketches, sorted_windows, reads)
    runner.engine(sketches, reads)
    if not isinstance(wl, GpuFrequency):
        service_metrics = await runner.pools("inline", sketches, reads)
        if isinstance(wl, ScaleOut):
            service_metrics = await runner.pools(wl.executor, sketches,
                                                 reads)
        metrics.update(service_metrics)
    if isinstance(wl, QueryMix):
        await runner.frontend(wl.specs)
    runner.result.notes["elements"] = wl.ladder_chunks * wl.chunk
    return runner.result
