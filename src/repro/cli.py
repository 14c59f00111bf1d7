"""Command-line interface.

Usage::

    python -m repro sort      --n 100000 --backend gpu
    python -m repro quantiles --n 500000 --eps 0.01 --phi 0.5 0.9 0.99
    python -m repro frequent  --n 500000 --eps 0.001 --support 0.01
    python -m repro distinct  --n 500000 --universe 50000
    python -m repro serve     --n 200000 --shards 4 --producers 2
    python -m repro serve     --n 200000 --metrics-port 9107
    python -m repro serve     --n 200000 --query-port 9108 --linger 30
    python -m repro query     register quantile --phi 0.99
    python -m repro query     list
    python -m repro query     answer --fresh
    python -m repro trace     --n 100000 --statistic quantile
    python -m repro figures   --fast

Each subcommand generates a synthetic stream (``--workload`` picks the
generator), runs the corresponding pipeline, and prints results plus the
modelled paper-hardware timing.  ``repro query`` is different: it is an
HTTP client for the standing-query control plane of an already-running
``repro serve --query-port`` process.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .backends import registered_backends, resolve_sorter
from .bench.report import build_all
from .core.distinct import WindowedDistinctCounter
from .core.estimators import (QUERY_METRICS, estimator_capabilities,
                              registered_capabilities)
from .core.pipeline.timing import OPERATIONS
from .errors import QueryError, ServiceError
from .obs import collecting, render_tree, stage_shares
from .query import (QuerySpec, answer_query, build_miner, list_queries,
                    register_query, unregister_query)
from .service.executors import registered_executors
from .service.policies import ServicePolicies
from .service.runner import format_result, run_service_demo
from .sorting.cpu import optimized_sort
from .streams.generators import GENERATORS


def _add_backend_arg(parser: argparse.ArgumentParser,
                     default: str) -> None:
    """``--backend`` offering every registered sorter, not a fixed pair."""
    parser.add_argument("--backend", choices=list(registered_backends()),
                        default=default,
                        help="sorting backend from the registry "
                             f"(default {default})")


def _add_stream_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=100_000,
                        help="stream length (default 100000)")
    parser.add_argument("--workload", choices=sorted(GENERATORS),
                        default="uniform", help="synthetic generator")
    parser.add_argument("--seed", type=int, default=0)


def _make_stream(args: argparse.Namespace) -> np.ndarray:
    return GENERATORS[args.workload](args.n, seed=args.seed)


def cmd_sort(args: argparse.Namespace) -> int:
    """``repro sort``: sort a synthetic stream, print counters + timing."""
    data = _make_stream(args)
    start = time.perf_counter()
    if args.backend == "gpu":
        sorter = resolve_sorter("gpu", network=args.network)
        out = sorter.sort(data)
        wall = time.perf_counter() - start
        counters = sorter.last_counters
        breakdown = sorter.modelled_time()
        print(f"sorted {data.size:,} values ({args.workload}) on the "
              f"simulated GPU [{args.network}]")
        print(f"  wall time (simulator)     : {wall:.3f} s")
        print(f"  rendering passes          : {counters.passes:,}")
        print(f"  blend ops                 : {counters.blend_ops:,}")
        print(f"  modelled GeForce-6800 time: {breakdown.total * 1e3:.2f} ms")
    elif args.backend == "cpu":
        out = optimized_sort(data)
        wall = time.perf_counter() - start
        print(f"sorted {data.size:,} values ({args.workload}) on the CPU")
        print(f"  wall time: {wall:.3f} s")
    else:
        sorter = resolve_sorter(args.backend)
        out = (sorter.sort(data) if hasattr(sorter, "sort")
               else sorter.sort_batch([data])[0])
        wall = time.perf_counter() - start
        print(f"sorted {data.size:,} values ({args.workload}) with the "
              f"{args.backend} backend")
        print(f"  wall time: {wall:.3f} s")
    assert np.all(out[1:] >= out[:-1])
    return 0


def cmd_quantiles(args: argparse.Namespace) -> int:
    """``repro quantiles``: streaming phi-quantiles over a synthetic stream."""
    data = _make_stream(args)
    miner = build_miner("quantile", eps=args.eps, backend=args.backend,
                        window_size=args.window,
                        stream_length_hint=args.n, kind=args.kind)
    miner.process(data)
    family = f", kind={args.kind}" if args.kind else ""
    print(f"{args.n:,} elements ({args.workload}), eps={args.eps}, "
          f"backend={miner.backend}{family}")
    for phi in args.phi:
        print(f"  phi={phi:<6g} -> {miner.quantile(phi):.6g}")
    _print_report(miner)
    return 0


def cmd_frequent(args: argparse.Namespace) -> int:
    """``repro frequent``: heavy hitters over a synthetic stream."""
    data = _make_stream(args)
    miner = build_miner("frequency", eps=args.eps, backend=args.backend,
                        kind=args.kind)
    miner.process(data)
    family = f", kind={args.kind}" if args.kind else ""
    if args.estimate:
        bound = (estimator_capabilities(args.kind).bound_type
                 if args.kind else "count-under")
        print(f"{args.n:,} elements ({args.workload}), eps={args.eps}"
              f"{family}: point estimates ({bound} bound)")
        for value in args.estimate:
            print(f"  count({value:g}) ~ {miner.estimate(value):,}")
        _print_report(miner)
        return 0
    try:
        items = miner.frequent_items(args.support)
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: query point estimates instead, e.g. "
              "`repro frequent --kind count-min --estimate 3 7`",
              file=sys.stderr)
        return 1
    print(f"{args.n:,} elements ({args.workload}), eps={args.eps}, "
          f"support={args.support}{family}: {len(items)} frequent items")
    for value, count in items[:args.top]:
        print(f"  {value:>12g} : >= {count:,}")
    _print_report(miner)
    return 0


def cmd_distinct(args: argparse.Namespace) -> int:
    """``repro distinct``: KMV cardinality estimate vs the exact count."""
    rng = np.random.default_rng(args.seed)
    data = rng.integers(0, args.universe, args.n).astype(np.float32)
    counter = WindowedDistinctCounter(k=args.k, window_size=args.window)
    counter.update(data)
    estimate = counter.estimate()
    exact = len(np.unique(data))
    print(f"{args.n:,} elements over a {args.universe:,}-value universe")
    print(f"  KMV estimate : {estimate:,.0f}")
    print(f"  exact        : {exact:,}")
    print(f"  error        : {abs(estimate - exact) / max(exact, 1):.2%} "
          f"(2-sigma bound {counter.error_bound():.2%})")
    return 0


def _build_policies(args: argparse.Namespace) -> ServicePolicies | None:
    """A ServicePolicies bundle from the serve flags, or None when every
    flag is at its default (constructor defaults then apply)."""
    overrides = {}
    for flag, field in (("snapshot_every", "snapshot_every"),
                        ("max_restarts", "max_restarts"),
                        ("heartbeat_interval", "heartbeat_interval"),
                        ("liveness_timeout", "liveness_timeout"),
                        ("io_deadline", "io_deadline")):
        value = getattr(args, flag)
        if value is not None:
            overrides[field] = value
    if args.no_takeover:
        overrides["takeover"] = False
    return ServicePolicies(**overrides) if overrides else None


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: drive the sharded asyncio service end to end.

    Exits 0 when every answer is within its bound, 1 when one is not,
    and 2 when the service refuses its settings or a shard fails.
    """
    try:
        result = run_service_demo(
            statistic=args.statistic, n=args.n, eps=args.eps,
            num_shards=args.shards, producers=args.producers,
            backend=args.backend, window_size=args.window,
            workload=args.workload, seed=args.seed,
            executor=args.executor, workers=args.workers, kind=args.kind,
            chunk_size=args.chunk, shed_capacity=args.shed_capacity,
            phi=tuple(args.phi), support=args.support,
            fault_rate=args.fault_rate,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            metrics_port=args.metrics_port,
            policies=_build_policies(args),
            query_port=args.query_port, linger=args.linger)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_result(result))
    return 0 if result.all_within_bounds else 1


#: Default control-plane address `repro query` talks to — matches the
#: docstring's `repro serve --query-port 9108` example.
_QUERY_URL = "http://127.0.0.1:9108"


def _query_errors(fn):
    """Turn client-side failures into exit code 1 + a stderr line."""
    def wrapper(args: argparse.Namespace) -> int:
        try:
            return fn(args)
        except QueryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: cannot reach {args.url}: {exc}", file=sys.stderr)
            return 1
    return wrapper


def _query_line(state: dict) -> str:
    """One listing line for a registration state dict."""
    spec = state["spec"]
    detail = {
        "quantile": lambda s: f"phi={s['phi']:g}",
        "heavy_hitters": lambda s: f"support={s['support']:g}",
        "top_k": lambda s: f"k={s['k']}",
        "estimate": lambda s: f"value={s['value']:g}",
        "distinct": lambda s: "",
    }[spec["metric"]](spec)
    window = f", window={spec['window']}" if spec.get("window") else ""
    shared = "  [shared]" if state.get("shared") else ""
    return (f"{state['id']:<6} {spec['metric']}({detail}) on "
            f"{spec['key']!r}{window} -> {state['kind']} @ eps "
            f"{state['error_bound']:g}{shared}")


def _format_answer_value(value) -> str:
    if isinstance(value, list):
        pairs = ", ".join(f"{v:g}: >={c:,.0f}" for v, c in value[:8])
        more = f" (+{len(value) - 8} more)" if len(value) > 8 else ""
        return f"[{pairs}]{more}"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@_query_errors
def cmd_query_register(args: argparse.Namespace) -> int:
    """``repro query register``: add one standing query to a live serve."""
    spec = QuerySpec(args.metric, key=args.key, eps=args.eps, phi=args.phi,
                     support=args.support, k=args.k, value=args.value,
                     window=args.window, tenant=args.tenant)
    state = register_query(args.url, spec.to_state())
    print(_query_line(state))
    return 0


@_query_errors
def cmd_query_list(args: argparse.Namespace) -> int:
    """``repro query list``: live registrations + sharing headline."""
    listing = list_queries(args.url)
    for state in listing["queries"]:
        print(_query_line(state))
    metrics = listing["metrics"]
    print(f"{metrics['registered']} queries over "
          f"{metrics['physical_sketches']} physical sketch(es), "
          f"shared ratio {metrics['shared_ratio']:.0%}")
    return 0


@_query_errors
def cmd_query_answer(args: argparse.Namespace) -> int:
    """``repro query answer``: evaluate queries (all live ones by default)."""
    ids = args.ids or [state["id"]
                       for state in list_queries(args.url)["queries"]]
    if not ids:
        print("no registered queries")
        return 0
    failures = 0
    for query_id in ids:
        try:
            answer = answer_query(args.url, query_id, fresh=args.fresh)
        except QueryError as exc:
            print(f"{query_id:<6} error: {exc}", file=sys.stderr)
            failures += 1
            continue
        flags = "".join(f"  [{flag}]" for flag in ("shared", "randomized")
                        if answer.get(flag))
        print(f"{answer['id']:<6} {answer['metric']:<13} "
              f"{_format_answer_value(answer['value'])}   "
              f"(eps {answer['error_bound']:g}, {answer['kind']}){flags}")
    return 1 if failures else 0


@_query_errors
def cmd_query_unregister(args: argparse.Namespace) -> int:
    """``repro query unregister``: drop registrations (frees idle sketches)."""
    for query_id in args.ids:
        unregister_query(args.url, query_id)
        print(f"unregistered {query_id}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run a workload under tracing, print a live Fig. 4.

    The span tree shows where the simulator's wall time went; the stage
    table recomputes Figure 4/6's operation percentages from the
    ``modelled`` attributes the pipeline spans carry and checks them
    against the :class:`~repro.core.pipeline.timing.EngineReport` the
    engine billed for the same run.
    """
    data = _make_stream(args)
    start = time.perf_counter()
    with collecting() as col:
        miner = build_miner(args.statistic, eps=args.eps,
                            backend=args.backend, window_size=args.window,
                            stream_length_hint=args.n)
        miner.process(data)
        if args.statistic == "quantile":
            for phi in args.phi:
                miner.quantile(phi)
        elif args.statistic == "frequency":
            miner.frequent_items(args.support)
        else:
            miner.distinct()
        spans = col.snapshot()
    wall = time.perf_counter() - start

    print(f"trace: {args.n:,} elements ({args.workload}), "
          f"statistic={args.statistic}, backend={miner.backend}, "
          f"eps={args.eps}, {len(spans)} spans in {wall:.3f} s")
    print()
    print(render_tree(spans, total=wall))
    print()

    live = stage_shares(spans)
    modelled = miner.report.modelled_shares()
    print("stage breakdown (modelled paper-hardware seconds, Fig. 4/6):")
    print(f"  {'stage':<10} {'live spans':>10} {'engine':>10} {'delta':>8}")
    worst = 0.0
    for stage in OPERATIONS:
        delta = abs(live.get(stage, 0.0) - modelled.get(stage, 0.0))
        worst = max(worst, delta)
        print(f"  {stage:<10} {live.get(stage, 0.0):>10.2%} "
              f"{modelled.get(stage, 0.0):>10.2%} {delta:>8.2%}")
    if worst > 0.05:
        print(f"  MISMATCH: live spans diverge from the engine report "
              f"by {worst:.2%}")
        return 1
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: regenerate every figure of the paper."""
    for table in build_all(fast=args.fast):
        print(table.render())
        print()
    return 0


def _print_report(miner) -> None:
    report = miner.report
    shares = report.modelled_shares()
    print(f"  modelled paper-hardware time: {report.modelled_total:.4f} s "
          f"(sort {shares['sort']:.0%}, transfer {shares['transfer']:.0%}, "
          f"merge {shares['merge']:.0%})")


def _kind_choices(statistic: str) -> list[str]:
    """Registered driver kinds for ``statistic`` (the ``--kind`` menu)."""
    return sorted(kind for kind, caps in registered_capabilities().items()
                  if caps.statistic == statistic and caps.driver is not None)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-accelerated approximate stream mining "
                    "(SIGMOD 2005 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", help="sort a synthetic stream")
    _add_stream_args(p)
    _add_backend_arg(p, default="gpu")
    p.add_argument("--network", choices=["pbsn", "bitonic"], default="pbsn")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("quantiles", help="streaming quantile estimation")
    _add_stream_args(p)
    _add_backend_arg(p, default="gpu")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--window", type=int, default=4096)
    p.add_argument("--phi", type=float, nargs="+",
                   default=[0.25, 0.5, 0.75, 0.99])
    p.add_argument("--kind", choices=_kind_choices("quantile"),
                   default=None,
                   help="estimator family (default: the registry's "
                        "default for the statistic)")
    p.set_defaults(func=cmd_quantiles)

    p = sub.add_parser("frequent", help="frequent-item estimation")
    _add_stream_args(p)
    _add_backend_arg(p, default="gpu")
    p.add_argument("--eps", type=float, default=0.001)
    p.add_argument("--support", type=float, default=0.01)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--kind", choices=_kind_choices("frequency"),
                   default=None,
                   help="estimator family (default: the registry's "
                        "default for the statistic)")
    p.add_argument("--estimate", type=float, nargs="+", default=None,
                   metavar="VALUE",
                   help="report point estimates for these values instead "
                        "of enumerating heavy hitters (the only query "
                        "count-min answers)")
    p.set_defaults(func=cmd_frequent)

    p = sub.add_parser("distinct", help="distinct-count estimation")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--universe", type=int, default=50_000)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--window", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_distinct)

    p = sub.add_parser("serve",
                       help="sharded stream-mining service answering "
                            "standing continuous queries")
    _add_stream_args(p)
    p.add_argument("--statistic",
                   choices=["quantile", "frequency", "distinct"],
                   default="quantile")
    p.add_argument("--kind", default=None,
                   choices=sorted(set(_kind_choices("quantile")
                                      + _kind_choices("frequency")
                                      + _kind_choices("distinct"))),
                   help="estimator family for the shard pool (must serve "
                        "--statistic; default: the registry's default "
                        "for the statistic)")
    _add_backend_arg(p, default="cpu")
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--executor", choices=list(registered_executors()),
                   default="async",
                   help="where the shards run: inline (synchronous "
                        "baseline), async (in-process queues), mp "
                        "(one worker process per shard over shared "
                        "memory), or net (worker processes over framed "
                        "TCP with reconnect/takeover)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker/shard count override (alias for "
                        "--shards, reads naturally with --executor mp)")
    p.add_argument("--producers", type=int, default=2)
    p.add_argument("--window", type=int, default=None,
                   help="per-shard window width (quantile/distinct)")
    p.add_argument("--chunk", type=int, default=2048,
                   help="producer chunk size (elements per ingest call)")
    p.add_argument("--shed-capacity", type=int, default=None,
                   help="enable load shedding at this many elements per "
                        "shard per ingest tick")
    p.add_argument("--phi", type=float, nargs="+", default=[0.5, 0.99])
    p.add_argument("--support", type=float, default=0.05)
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="inject seeded transient GPU faults at this "
                        "per-transfer probability (gpu backend only)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="persist periodic + final service checkpoints "
                        "to this directory")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   help="seconds between periodic checkpoints (needs "
                        "--checkpoint-dir; default: final only)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve Prometheus /metrics and /healthz on this "
                        "port for the duration of the run (0 = ephemeral)")
    p.add_argument("--query-port", type=int, default=None,
                   help="serve the standing-query control plane on this "
                        "port for the duration of the run (0 = "
                        "ephemeral); `repro query register/list/answer` "
                        "are its clients")
    p.add_argument("--linger", type=float, default=0.0,
                   help="keep the drained service (and its control "
                        "plane) alive this many extra seconds after "
                        "the demo stream completes")
    p.add_argument("--snapshot-every", type=int, default=None,
                   help="acks between internal worker snapshots "
                        "(replay-log bound; mp/net executors)")
    p.add_argument("--max-restarts", type=int, default=None,
                   help="worker deaths tolerated per shard before "
                        "takeover or permanent failure")
    p.add_argument("--heartbeat-interval", type=float, default=None,
                   help="seconds of inbound silence before a net worker "
                        "sends a heartbeat")
    p.add_argument("--liveness-timeout", type=float, default=None,
                   help="seconds of silence on a net connection before "
                        "it is declared dead")
    p.add_argument("--io-deadline", type=float, default=None,
                   help="per-frame send/recv deadline on net channels, "
                        "seconds")
    p.add_argument("--no-takeover", action="store_true",
                   help="fail a shard permanently instead of "
                        "reassigning its keyspace to survivors "
                        "(net executor)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("query",
                       help="client for a running serve's standing-query "
                            "control plane (--query-port)")
    qsub = p.add_subparsers(dest="query_command", required=True)

    q = qsub.add_parser("register", help="register one standing query")
    q.add_argument("metric", choices=sorted(QUERY_METRICS))
    q.add_argument("--url", default=_QUERY_URL,
                   help=f"control-plane base URL (default {_QUERY_URL})")
    q.add_argument("--key", default="serve",
                   help="ingest stream key the query watches (the serve "
                        "demo feeds 'serve')")
    q.add_argument("--eps", type=float, default=0.01,
                   help="requested approximation fraction")
    q.add_argument("--phi", type=float, default=None,
                   help="quantile rank in [0, 1] (metric=quantile)")
    q.add_argument("--support", type=float, default=None,
                   help="support threshold (metric=heavy_hitters)")
    q.add_argument("--k", type=int, default=None,
                   help="result size (metric=top_k)")
    q.add_argument("--value", type=float, default=None,
                   help="tracked value (metric=estimate)")
    q.add_argument("--window", type=int, default=None,
                   help="sliding-window width; default full history")
    q.add_argument("--tenant", default="default",
                   help="namespace label for listings and metrics")
    q.set_defaults(func=cmd_query_register)

    q = qsub.add_parser("list", help="list live standing queries")
    q.add_argument("--url", default=_QUERY_URL,
                   help=f"control-plane base URL (default {_QUERY_URL})")
    q.set_defaults(func=cmd_query_list)

    q = qsub.add_parser("answer", help="evaluate standing queries")
    q.add_argument("ids", nargs="*",
                   help="query ids (default: every live query)")
    q.add_argument("--url", default=_QUERY_URL,
                   help=f"control-plane base URL (default {_QUERY_URL})")
    q.add_argument("--fresh", action="store_true",
                   help="drain pending ingest before answering")
    q.set_defaults(func=cmd_query_answer)

    q = qsub.add_parser("unregister", help="drop standing queries")
    q.add_argument("ids", nargs="+", help="query ids to drop")
    q.add_argument("--url", default=_QUERY_URL,
                   help=f"control-plane base URL (default {_QUERY_URL})")
    q.set_defaults(func=cmd_query_unregister)

    p = sub.add_parser("trace",
                       help="trace a workload and print the span tree")
    _add_stream_args(p)
    p.add_argument("--statistic",
                   choices=["quantile", "frequency", "distinct"],
                   default="quantile")
    _add_backend_arg(p, default="gpu")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--phi", type=float, nargs="+", default=[0.5, 0.99])
    p.add_argument("--support", type=float, default=0.01)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("figures", help="regenerate the paper's figures")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
