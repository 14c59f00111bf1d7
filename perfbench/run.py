"""Repo benchmark: closed-loop workloads from the query front-end down to
the simulated GPU, plus a traced per-layer ladder.

Run from the repository root::

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` runs the same
loop twice (tracing off, then on, half the time each), then the layer
ladder, and prints every per-layer metric; the spans go to
``.perfbench-out/``.  Answers are checked against an exact oracle after
the timing.  The last line of standard output is one JSON object; the
exit code is 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import asyncio
import inspect
import json
import multiprocessing
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (OUT_DIR, PROBE_REF_S, ROOT, SRC,  # noqa: E402
                    HostProbe, NullTracer, Tracer, beyond, host_fingerprint,
                    peak_rss_mb, percentile, write_trace)

perf = time.perf_counter


def _load_program():
    """Import the package under test from ``src/`` next to this tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}; run "
                         "from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _layer_notes() -> dict:
    with open(Path(__file__).resolve().parent / "layers.json") as fh:
        return {m["name"]: m for m in json.load(fh)["per_layer"]}


def _log(line: str = "") -> None:
    print(line, flush=True)


def _failure(run, what: str) -> None:
    run.failures.append(what)
    print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)


async def _closed_loop(wl, ctx, seconds: float, tracer):
    from workloads import Run
    run = Run()
    began = perf()
    try:
        with tracer.span("loop", workload=wl.name):
            while perf() - began < seconds:
                run.probe.maybe_sample()
                with tracer.span("loop.step", chunk=run.chunks):
                    start = perf()
                    await wl.step(ctx, run, tracer)
                    run.steps_s.append((perf(), perf() - start))
            with tracer.span("loop.final_drain"):
                run.attempted += 1
                start = perf()
                await wl.final_drain(ctx)
                run.steps_s.append((perf(), perf() - start))
    except Exception:  # a broken system still gets a report
        traceback.print_exc()
        _failure(run, "exception in the timed loop")
    run.probe.sample()
    run.peak_rss_mb = peak_rss_mb()
    return run


def _rate(run, chunk: int) -> float:
    """Elements per second of step wall (probes excluded), host-scaled."""
    return run.chunks * chunk / float(run.probe.scale(run.steps_s).sum())


def _reap_workers(run) -> None:
    """A worker process still alive after a workload is a failure."""
    for proc in multiprocessing.active_children():
        _failure(run, f"worker {proc.name} (pid {proc.pid}) still alive")
        proc.terminate()
        proc.join(10)


async def _one_run(wl, seconds: float, tracer):
    """Set up, run the closed loop, count losses, tear down."""
    with tracer.span("setup", workload=wl.name):
        ctx = await wl.setup()
    try:
        run = await _closed_loop(wl, ctx, seconds, tracer)
        if not run.failures:
            lost = await wl.lost(ctx, run.chunks * wl.chunk)
            if lost:
                _failure(run, f"{lost} elements lost")
    finally:
        await wl.teardown(ctx)
    _reap_workers(run)
    return run


async def _setup_reps(wl, reps: int, times: list, probe) -> None:
    for _ in range(reps):
        probe.sample()
        began = perf()
        ctx = await wl.setup()
        times.append((perf(), perf() - began))
        await wl.teardown(ctx)
    probe.sample()


async def _check(wl, run) -> None:
    """Oracle and reference checks, after the timing."""
    from oracle import check_all
    for miss in check_all(wl.stream, run.records):
        _failure(run, f"bound: {miss}")
    for miss in await wl.reference(run):
        _failure(run, f"reference: {miss}")


def _end_to_end(run, setup: np.ndarray, chunk: int):
    """Every end-to-end value (host-scaled), and the raw p50s and sample
    counts printed beside them."""
    chunk_s = run.probe.scale(run.chunk_s)
    answer_s = run.probe.scale(run.answer_s)
    fresh_s = run.probe.scale(run.fresh_s)
    metrics = {
        "setup_s": float(np.median(setup)),
        "ingest_el_per_s": _rate(run, chunk),
        "chunk_mean_ms": chunk_s.mean() * 1e3,
        "chunk_p90_ms": percentile(chunk_s, 90) * 1e3,
        "answer_mean_us": answer_s.mean() * 1e6,
        "answer_p99_us": percentile(answer_s, 99) * 1e6,
        "fresh_mean_ms": fresh_s.mean() * 1e3,
        "fresh_p90_ms": percentile(fresh_s, 90) * 1e3,
        "peak_rss_mb": run.peak_rss_mb,
    }
    raw = {name: [seconds for _, seconds in samples] for name, samples in
           (("chunk", run.chunk_s), ("answer", run.answer_s),
            ("fresh", run.fresh_s))}
    notes = {"setup_s": f"median of {setup.size} set-ups"}
    for name, scale, unit in (("chunk", 1e3, "ms"), ("answer", 1e6, "us"),
                              ("fresh", 1e3, "ms")):
        samples = raw[name]
        notes[f"{name}_mean_{unit}"] = (
            f"n={len(samples)}; raw mean {np.mean(samples) * scale:.4g}, "
            f"raw p50 {percentile(samples, 50) * scale:.4g} {unit}")
        q = 99 if name == "answer" else 90
        tail = beyond(samples, q)
        notes[f"{name}_p{q}_{unit}"] = (
            f"n={len(samples)}, {tail} beyond; raw "
            f"{percentile(samples, q) * scale:.4g} {unit}"
            + ("; WARNING: fewer than 10 samples beyond" if tail < 10
               else ""))
    return metrics, notes


def _print_ladder(ladder) -> None:
    elements = ladder.notes["elements"]
    _log(f"layer ladder over {elements:,} elements (self = rung minus the "
         "rung below; sorting and the estimators are rung 3's two parts):")
    _log(f"  {'rung':<18} {'ingest_s':>10} {'el/s':>12} {'self_s':>10}"
         f" {'answer_s':>10} {'self_s':>10}")
    ingest_self = dict(ladder.self_times("ingest_s"))
    answer_self = dict(ladder.self_times("answer_s"))
    for rung in ladder.rungs:
        ans = ("" if rung.answer_s is None else
               f"{rung.answer_s:>10.4f} {answer_self[rung.layer]:>10.4f}")
        rate = elements / rung.ingest_s if rung.ingest_s else 0.0
        _log(f"  {rung.layer:<18} {rung.ingest_s:>10.4f} {rate:>12,.0f}"
             f" {ingest_self[rung.layer]:>10.4f} {ans}")
    for which, selfs in (("ingest", ingest_self), ("answer", answer_self)):
        if selfs:
            layer, wall = max(selfs.items(), key=lambda kv: kv[1])
            _log(f"  largest {which} self time: {layer} ({wall:.4f} s)")


async def _trace0(args, wl, contract) -> tuple[dict, list]:
    probe = HostProbe()
    setup_times: list = []
    await _setup_reps(wl, wl.setup_reps, setup_times, probe)
    run = await _one_run(wl, args.seconds, NullTracer())
    run.attempted += len(setup_times)
    await _check(wl, run)
    metrics, notes = _end_to_end(run, probe.scale(setup_times), wl.chunk)
    wall = sum(seconds for _, seconds in run.steps_s)
    host = PROBE_REF_S / float(np.median(run.probe.took))
    _log(f"end-to-end ({wl.name}: {wl.chunk}-element chunks, {run.chunks} "
         f"chunks in {wall:.3f} s, closed loop, one producer; timings "
         f"scaled by the host probe, median factor {host:.3f}):")
    for spec in contract["end_to_end"]:
        name = spec["name"]
        note = f"  ({notes[name]})" if name in notes else ""
        _log(f"  {name:<22} {metrics[name]:>14.6g} {spec['unit']:<5}{note}")
    return metrics, [run]


async def _trace1(args, wl, contract) -> tuple[dict, list]:
    from ladder import run_ladder
    from repro.obs import collecting
    half = args.seconds / 2.0
    plain = await _one_run(wl, half, NullTracer())
    tracer = Tracer()
    with collecting() as program_spans:
        traced = await _one_run(wl, half, tracer)
        ladder = await run_ladder(wl, tracer)
    _reap_workers(traced)
    for run in (plain, traced):
        await _check(wl, run)
    rate = [_rate(run, wl.chunk) for run in (plain, traced)]
    metrics = dict(ladder.metrics)
    metrics["obs.tracing_overhead"] = rate[1] / rate[0]
    notes = _layer_notes()
    _log(f"per-layer ({wl.name}; traced loop {traced.chunks} chunks, "
         f"untraced {plain.chunks} chunks, {half:.1f} s each):")
    for spec in contract["per_layer"]:
        name = spec["name"]
        _log(f"  {name:<30} {metrics[name]:>14.6g} {spec['unit']:<8} "
             f"{notes[name]['moves']}")
    _log("  query.shared_ratio base: "
         f"{ladder.notes.get('query.shared_ratio_base', 0)} registered "
         "queries")
    _print_ladder(ladder)
    path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace.json"
    write_trace(path, {"workload": wl.name, "seed": args.seed,
                       "host": args.host},
                tracer.merged_with(program_spans.snapshot()))
    _log(f"spans written to {path.relative_to(ROOT)}")
    return metrics, [plain, traced]


def _stop_helpers() -> None:
    """Stop the shared-memory resource tracker multiprocessing started."""
    try:
        from multiprocessing import resource_tracker
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception:  # pragma: no cover - best effort at exit
        traceback.print_exc()


def main(argv=None) -> int:
    workloads = _load_program()
    contract = _contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.service.mp_executor import MpShardedMiner
    pool_method = inspect.signature(MpShardedMiner).parameters[
        "mp_context"].default
    args.host = host_fingerprint(pool_method)
    _log("host " + json.dumps({**args.host, "seed": args.seed,
                               "workload": args.workload,
                               "seconds": args.seconds,
                               "trace": args.trace}))
    wl = workloads.WORKLOADS[args.workload](args.seed)
    phase = _trace1 if args.trace else _trace0
    try:
        metrics, runs = asyncio.run(phase(args, wl, contract))
    finally:
        _stop_helpers()
    specs = contract["per_layer" if args.trace else "end_to_end"]
    attempted = sum(run.attempted for run in runs)
    failed = sum(len(run.failures) for run in runs)
    checked = sum(len(run.records) for run in runs)
    _log(f"answers checked {checked}; failed_op_ratio "
         f"{failed / max(attempted, 1):.6g} ({failed} of {attempted} "
         "operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {spec["name"]: {"value": float(metrics[spec["name"]]),
                                   "unit": spec["unit"]}
                    for spec in specs},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
