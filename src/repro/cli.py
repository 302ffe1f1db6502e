"""Command-line interface: ``repro-igp``.

Subcommands:

* ``repro-igp fig11 [--scale S] [--no-parallel]`` — regenerate the
  Figure 11 table (dataset A).
* ``repro-igp fig14 [--scale S] [--no-parallel]`` — regenerate the
  Figure 14 table (dataset B).
* ``repro-igp speedup [--scale S]`` — the CM-5 speedup curve (E5).
* ``repro-igp partition GRAPH.metis -p P [-o OUT]`` — partition a METIS
  file with RSB and print/save the vector.
* ``repro-igp stream [--source dataset-a|churn|bursty] [--shards N]`` —
  run a streaming repartition session (batched deltas under a flush
  policy) and print the per-batch log; ``--shards N`` runs it over a
  sharded graph (optionally on disk via ``--shard-dir``/``--resident``).
* ``repro-igp shard split (GRAPH.metis | --source ...) -o DIR --shards N``
  — split a graph into per-shard npz blocks under ``DIR``.
* ``repro-igp shard inspect DIR`` — per-shard table (sizes, halo,
  revisions) plus cross-shard validation.
* ``repro-igp backends`` — list registered LP backends with their
  warm-start capability flags.
* ``repro-igp session save SNAP [--upto K]`` — open a session over a
  delta stream, consume the first K deltas, write a durable snapshot.
* ``repro-igp session load SNAP`` — inspect a snapshot (state, history,
  carried warm bases).
* ``repro-igp session resume SNAP`` — reload a snapshot, replay the rest
  of its recorded stream, repartition, and report.
* ``repro-igp serve --root DIR [--port P | --uds PATH] [--resident N]``
  — run the partition service: many named sessions over TCP or a Unix
  socket, WAL durability, LRU eviction, background checkpoints.
* ``repro-igp gateway (--root DIR | --proxy-port P) [--port P | --uds
  PATH] [--token NAME=SECRET] [--rate R]`` — run the HTTP/REST gateway:
  every service op as a REST route with bearer auth, per-token rate
  limiting and a Prometheus ``GET /metrics`` exposition; in-process
  sessions (``--root``) or fronting a running TCP service (``--proxy-*``).
* ``repro-igp client [--port P | --uds PATH] [--http [--token T]]
  create|feed|flush|repartition|quality|query|save|close|stats|shutdown
  ...`` — drive a running service (wire protocol) or gateway (--http).
* ``repro-igp lint [PATHS...] [--baseline F] [--format text|json]`` —
  run the repro.analysis checker suite (determinism, error taxonomy,
  lock discipline, async hygiene, broad-except, monolith assembly,
  timing discipline) over the package.  Exit 0 clean, 1 findings, 2
  usage/internal error.
* ``repro-igp trace tail|summarize|export TRACE.jsonl`` — read a span
  trace recorded with ``--trace-file`` (tail the last spans, aggregate
  per span name, or ``export --chrome`` to Chrome trace-event JSON
  for Perfetto / ``chrome://tracing``).

``stream``, ``serve`` and ``gateway`` all accept ``--trace`` (record
spans in-process), ``--trace-file PATH`` (mirror finished spans to a
JSONL sink; implies ``--trace``) and ``--trace-slow-ms MS`` (log any
span at or over the threshold).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_fig11(args) -> int:
    from repro.bench.harness import run_figure11
    from repro.bench.tables import format_paper_table
    from repro.mesh.sequences import dataset_a

    seq = dataset_a(scale=args.scale)
    rows = run_figure11(
        seq,
        num_partitions=args.partitions,
        with_parallel=not args.no_parallel,
        parallel_ranks=args.ranks,
        lp_backend=args.lp_backend,
    )
    print(format_paper_table(rows, title="Figure 11 — dataset A"))
    return 0


def _cmd_fig14(args) -> int:
    from repro.bench.harness import run_figure14
    from repro.bench.tables import format_paper_table
    from repro.mesh.sequences import dataset_b

    seq = dataset_b(scale=args.scale)
    rows = run_figure14(
        seq,
        num_partitions=args.partitions,
        with_parallel=not args.no_parallel,
        parallel_ranks=args.ranks,
        lp_backend=args.lp_backend,
    )
    print(format_paper_table(rows, title="Figure 14 — dataset B"))
    return 0


def _cmd_speedup(args) -> int:
    from repro.bench.harness import run_speedup_curve
    from repro.graph.incremental import apply_delta, carry_partition
    from repro.mesh.sequences import dataset_a
    from repro.spectral.rsb import rsb_partition

    seq = dataset_a(scale=args.scale)
    g0 = seq.graphs[0]
    base = rsb_partition(g0, args.partitions, seed=0)
    inc = apply_delta(g0, seq.deltas[0])
    carried = carry_partition(base, inc)
    curve = run_speedup_curve(
        inc.graph, carried, num_partitions=args.partitions,
        lp_backend=args.lp_backend,
    )
    print(f"{'ranks':>6}{'Time-p (s)':>12}{'speedup':>9}{'messages':>10}")
    for row in curve:
        print(
            f"{row['ranks']:>6}{row['sim_time']:>12.4f}"
            f"{row['speedup']:>9.1f}{row['messages']:>10}"
        )
    return 0


def _cmd_partition(args) -> int:
    from repro.core.quality import evaluate_partition
    from repro.graph.io import read_metis
    from repro.spectral.rsb import rsb_partition

    graph = read_metis(args.graph)
    part = rsb_partition(graph, args.partitions, seed=args.seed)
    q = evaluate_partition(graph, part, args.partitions)
    print(f"partitioned |V|={graph.num_vertices} |E|={graph.num_edges}: {q}")
    if args.output:
        np.savetxt(args.output, part, fmt="%d")
        print(f"partition vector written to {args.output}")
    else:
        print(" ".join(map(str, part.tolist())))
    return 0


def _make_stream(source: str, scale: float, steps: int, seed: int):
    """Deterministically (re)generate a delta stream for the CLI flows."""
    from repro.bench.workloads import make_stream

    return make_stream(source, scale, steps, seed)


def _stream_policy(args):
    from repro.core.streaming import FlushPolicy

    if args.per_delta:
        return FlushPolicy(
            weight_fraction=None, imbalance_limit=None, max_pending=1
        )
    return FlushPolicy(
        weight_fraction=args.flush_weight,
        imbalance_limit=args.flush_imbalance,
        max_pending=args.max_pending,
    )


def _session_graph(base, args):
    """Wrap the stream's base graph in shards when ``--shards`` asks."""
    if not getattr(args, "shards", 0):
        if getattr(args, "shard_dir", None) or getattr(args, "resident", None):
            raise SystemExit(
                "--shard-dir/--resident only apply to sharded runs; "
                "pass --shards N as well"
            )
        return base
    from repro.graph import DirectoryShardStore, ShardedCSRGraph

    store = None
    if args.shard_dir:
        store = DirectoryShardStore(args.shard_dir, max_resident=args.resident)
    return ShardedCSRGraph.from_csr(base, args.shards, store=store)


def _apply_trace_flags(args) -> None:
    """Configure the process tracer from ``--trace*`` flags (no-op when
    none are passed, leaving ``REPRO_TRACE*`` env config in charge)."""
    trace = getattr(args, "trace", False)
    trace_file = getattr(args, "trace_file", None)
    slow_ms = getattr(args, "trace_slow_ms", None)
    if not (trace or trace_file or slow_ms):
        return
    from repro.obs import configure

    configure(
        enabled=True,
        sink=trace_file,
        slow_s=(slow_ms / 1000.0) if slow_ms else None,
    )


def _cmd_stream(args) -> int:
    from repro.session import open_session

    _apply_trace_flags(args)
    base, deltas = _make_stream(args.source, args.scale, args.steps, args.seed)
    session = open_session(
        _session_graph(base, args),
        args.partitions,
        policy=_stream_policy(args),
        seed=args.seed,
        lp_backend=args.lp_backend,
    )
    session.extend(deltas)
    session.flush()
    print(session.describe())
    fallbacks = sum(1 for r in session.history() if r.fallback)
    print(
        f"{len(deltas)} deltas -> {session.num_batches} repartition batches "
        f"({fallbacks} chunked fallbacks), "
        f"repartition wall-time {session.total_wall_s():.3f}s"
    )
    return 0


def _cmd_backends(args) -> int:
    from repro.lp.backends import available_backends, get_backend_spec

    names = available_backends()
    width = max(len(n) for n in names)
    print(f"{'backend':<{width}}  warm-start  description")
    for name in names:
        spec = get_backend_spec(name)
        warm = "yes" if spec.supports_warm_start else "no"
        print(f"{name:<{width}}  {warm:<10}  {spec.description}")
    print(
        "\nselect with --lp-backend NAME (CLI) or IGPConfig(lp_backend=NAME); "
        "warm-start backends reuse carried bases across stages, batches and "
        "restored sessions"
    )
    return 0


def _session_user_meta(args, num_pushed: int) -> dict:
    return {
        "source": args.source,
        "scale": args.scale,
        "steps": args.steps,
        "seed": args.seed,
        "partitions": args.partitions,
        "num_stream_deltas_total": None,  # filled by the caller
        "num_pushed_at_save": num_pushed,
    }


def _cmd_session_save(args) -> int:
    from repro.session import open_session

    base, deltas = _make_stream(args.source, args.scale, args.steps, args.seed)
    upto = len(deltas) // 2 if args.upto is None else min(args.upto, len(deltas))
    session = open_session(
        _session_graph(base, args),
        args.partitions,
        policy=_stream_policy(args),
        seed=args.seed,
        lp_backend=args.lp_backend,
    )
    session.extend(deltas[:upto])
    meta = _session_user_meta(args, session.num_pushed)
    meta["num_stream_deltas_total"] = len(deltas)
    session.save(args.snapshot, user_meta=meta)
    print(session.describe())
    print(
        f"snapshot written to {args.snapshot} after {upto}/{len(deltas)} "
        f"deltas ({session.num_pending} pending, "
        f"{'warm' if session.warm_bases[0] is not None else 'no'} balance basis)"
    )
    return 0


def _cmd_session_load(args) -> int:
    from repro.session import PartitionSession

    session = PartitionSession.load(args.snapshot)
    print(session.describe())
    balance, refine = session.warm_bases
    print(
        f"carried bases: balance="
        f"{'none' if balance is None else f'{balance.num_basic} basic'}"
        f", refine={'none' if refine is None else f'{refine.num_basic} basic'}"
    )
    if session.user_meta:
        print(f"user meta: {session.user_meta}")
    return 0


def _cmd_session_resume(args) -> int:
    from repro.session import PartitionSession

    session = PartitionSession.load(args.snapshot)
    meta = session.user_meta
    if not meta or "source" not in meta:
        print(
            "snapshot carries no stream metadata (was it written by "
            "'session save'?); loaded state only",
        )
        print(session.describe())
        return 1
    _, deltas = _make_stream(
        meta["source"], meta["scale"], meta["steps"], meta["seed"]
    )
    remaining = deltas[session.num_pushed :]
    session.extend(remaining)
    session.repartition()
    print(session.describe())
    print(
        f"resumed {len(remaining)} deltas from {args.snapshot}; "
        f"final imbalance {session.quality().imbalance:.3f}"
    )
    if args.output:
        session.save(args.output, user_meta=meta)
        print(f"updated snapshot written to {args.output}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.manager import SessionManager
    from repro.service.server import PartitionServer

    _apply_trace_flags(args)
    manager = SessionManager(
        args.root,
        max_resident=args.resident,
        checkpoint_interval=args.checkpoint_interval,
        fsync=not args.no_fsync,
    )
    server = PartitionServer(
        manager, host=args.host, port=args.port, uds=args.uds
    )

    def banner(srv):
        # Printed only after bind, so --port 0 reports the real port.
        endpoint = srv.uds if srv.uds is not None else f"{srv.host}:{srv.port}"
        print(
            f"serving partition sessions from {args.root} on "
            f"{endpoint} (resident budget: "
            f"{args.resident if args.resident is not None else 'unbounded'}, "
            f"checkpoint every "
            f"{args.checkpoint_interval if args.checkpoint_interval is not None else '—'}s); "
            f"stop with SIGTERM/Ctrl-C or `repro-igp client shutdown`",
            flush=True,
        )

    server.run(on_ready=banner)
    print("partition service stopped; all sessions checkpointed")
    return 0


def _cmd_gateway(args) -> int:
    from repro.gateway import LocalBackend, PartitionGateway, RemoteBackend

    _apply_trace_flags(args)
    proxy = args.proxy_uds is not None or args.proxy_port is not None
    if proxy and args.root:
        raise SystemExit(
            "--root (in-process sessions) and --proxy-port/--proxy-uds "
            "(front an existing TCP service) are mutually exclusive"
        )
    if proxy:
        backend = RemoteBackend(
            args.proxy_host,
            args.proxy_port if args.proxy_port is not None else 7421,
            uds=args.proxy_uds,
        )
    else:
        if not args.root:
            raise SystemExit(
                "pass --root DIR to host sessions in-process, or "
                "--proxy-port/--proxy-uds to front a running service"
            )
        from repro.service.manager import SessionManager

        backend = LocalBackend(
            SessionManager(
                args.root,
                max_resident=args.resident,
                checkpoint_interval=args.checkpoint_interval,
                fsync=not args.no_fsync,
            )
        )
    gateway = PartitionGateway(
        backend,
        host=args.host,
        port=args.port,
        uds=args.uds,
        tokens=PartitionGateway.parse_tokens(args.token),
        rate=args.rate,
        burst=args.burst,
    )

    def banner(gw):
        endpoint = (
            gw.uds if gw.uds is not None else f"http://{gw.host}:{gw.port}"
        )
        auth = "open (no tokens)" if gw.auth.open_mode else "bearer tokens"
        print(
            f"partition gateway on {endpoint} ({backend.describe()}, "
            f"auth: {auth}); metrics at GET /metrics; stop with "
            f"SIGTERM/Ctrl-C or POST /shutdown",
            flush=True,
        )

    gateway.run(on_ready=banner)
    print("partition gateway stopped; sessions checkpointed")
    return 0


def _client(args):
    if args.http:
        from repro.gateway import GatewayClient

        port = args.port if args.port is not None else 8421
        return GatewayClient(
            args.host, port, uds=args.uds, token=args.token
        )
    from repro.service.client import ServiceClient

    port = args.port if args.port is not None else 7421
    return ServiceClient(args.host, port, uds=args.uds)


def _client_policy(args):
    if args.per_delta:
        return {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
    policy = {
        "weight_fraction": args.flush_weight,
        "imbalance_limit": args.flush_imbalance,
        "max_pending": args.max_pending,
    }
    return policy


def _cmd_client_create(args) -> int:
    with _client(args) as svc:
        info = svc.create(
            args.name,
            partitions=args.partitions,
            source={
                "source": args.source,
                "scale": args.scale,
                "steps": args.steps,
                "seed": args.seed,
            },
            seed=args.seed,
            policy=_client_policy(args),
            config={"lp_backend": args.lp_backend},
            shards=args.shards or None,
            max_resident=args.resident,
        )
    print(
        f"created session {args.name!r}: |V|={info['num_vertices']} "
        f"|E|={info['num_edges']} k={info['k']} (initial={info['initial']})"
    )
    return 0


def _cmd_client_feed(args) -> int:
    """Regenerate the session's recorded workload stream and push the
    next chunk of it — the client-side twin of ``session resume``."""
    with _client(args) as svc:
        info = svc.query(args.name)
        source = info.get("source")
        if not source:
            print(
                f"session {args.name!r} was not created from a named workload "
                f"source; feed it programmatically via ServiceClient.push",
                file=sys.stderr,
            )
            return 1
        _, deltas = _make_stream(
            source["source"], source["scale"], source["steps"], source["seed"]
        )
        start = info["num_pushed"] if args.start is None else args.start
        upto = len(deltas) if args.upto is None else min(args.upto, len(deltas))
        flushes = 0
        for delta in deltas[start:upto]:
            ack = svc.push(args.name, delta)
            if ack["flushed"]:
                flushes += 1
                print(f"  flush: {ack['batch']}")
        print(
            f"pushed deltas [{start}:{upto}) of {len(deltas)} to {args.name!r} "
            f"({flushes} flushes fired)"
        )
    return 0


def _cmd_client_flush(args) -> int:
    with _client(args) as svc:
        out = svc.flush(args.name)
    print(out["batch"] if out["flushed"] else "nothing pending")
    return 0


def _cmd_client_repartition(args) -> int:
    with _client(args) as svc:
        out = svc.repartition(args.name)
    print(out["batch"])
    return 0


def _cmd_client_quality(args) -> int:
    with _client(args) as svc:
        q = svc.quality(args.name)
    print(
        f"cut total={q['cut_total']:.0f} max={q['cut_max']:.0f} "
        f"min={q['cut_min']:.0f} imbalance={q['imbalance']:.3f} "
        f"(k={q['num_partitions']})"
    )
    return 0


def _cmd_client_query(args) -> int:
    with _client(args) as svc:
        info = svc.query(args.name, labels=args.labels)
    labels = info.pop("labels", None)
    for key in ("name", "num_vertices", "num_edges", "k", "initial",
                "num_pending", "num_batches", "num_pushed", "resident",
                "wal_seq"):
        print(f"{key:>14}: {info[key]}")
    for row in info["history"]:
        print(
            f"  batch[{row['num_deltas']} deltas, {row['trigger']}] "
            f"cut={row['cut_total']:.0f} imbal={row['imbalance']:.3f} "
            f"pivots={row['lp_pivots']}"
        )
    if labels is not None:
        print(" ".join(map(str, labels.tolist())))
    return 0


def _cmd_client_save(args) -> int:
    with _client(args) as svc:
        out = svc.save(args.name)
    print(f"checkpointed to {out['snapshot']} (wal_seq={out['wal_seq']})")
    return 0


def _cmd_client_close(args) -> int:
    with _client(args) as svc:
        svc.close_session(args.name)
    print(f"session {args.name!r} checkpointed and released")
    return 0


def _cmd_client_stats(args) -> int:
    with _client(args) as svc:
        stats = svc.stats()
    print(
        f"root={stats['root']} resident={stats['resident']}"
        f"/{stats['max_resident'] if stats['max_resident'] is not None else '∞'}"
    )
    for key, value in sorted(stats["counters"].items()):
        print(f"{key:>14}: {value}")
    for name, entry in sorted(stats["sessions"].items()):
        print(f"  {name}: {entry}")
    return 0


def _cmd_client_shutdown(args) -> int:
    with _client(args) as svc:
        svc.shutdown()
    print("server is shutting down (sessions checkpointed)")
    return 0


def _cmd_shard_split(args) -> int:
    from repro.graph import DirectoryShardStore, ShardedCSRGraph

    if args.graph:
        from repro.graph.io import read_metis

        graph = read_metis(args.graph)
    else:
        graph, _ = _make_stream(args.source, args.scale, args.steps, args.seed)
    store = DirectoryShardStore(args.output, max_resident=args.resident)
    sharded = ShardedCSRGraph.from_csr(graph, args.shards, store=store)
    sharded.save_meta()
    print(sharded.describe())
    print(f"sharded graph ({args.shards} shards) written to {args.output}")
    return 0


def _cmd_shard_inspect(args) -> int:
    from repro.graph import ShardedCSRGraph

    sharded = ShardedCSRGraph.open_dir(args.directory, max_resident=args.resident)
    print(sharded.describe())
    sharded.validate()
    print("cross-shard validation OK")
    return 0


def _cmd_trace_tail(args) -> int:
    from repro.obs import export as obs_export

    rows = obs_export.read_jsonl(args.file)
    for row in rows[-args.n:]:
        dur_ms = float(row.get("dur_us", 0)) / 1000.0
        line = (
            f"{row.get('trace_id') or '-':<24} "
            f"{row.get('name', '?'):<20} {dur_ms:>10.3f}ms"
        )
        if row.get("status", "ok") != "ok":
            line += f"  [{row['status']}: {row.get('error', '')}]"
        attrs = row.get("attrs") or {}
        if attrs:
            line += "  " + " ".join(f"{k}={v}" for k, v in attrs.items())
        print(line)
    print(f"({min(args.n, len(rows))} of {len(rows)} spans from {args.file})")
    return 0


def _cmd_trace_summarize(args) -> int:
    from repro.obs import export as obs_export

    rows = obs_export.read_jsonl(args.file)
    summary = obs_export.summarize(rows)
    if not summary:
        print(f"no spans in {args.file}")
        return 0
    width = max(len(r["name"]) for r in summary)
    print(
        f"{'span':<{width}}  {'count':>6}  {'errors':>6}  "
        f"{'total_s':>9}  {'max_s':>9}  {'p50_s':>9}"
    )
    for r in summary:
        print(
            f"{r['name']:<{width}}  {r['count']:>6}  {r['errors']:>6}  "
            f"{r['total_s']:>9.4f}  {r['max_s']:>9.4f}  {r['p50_s']:>9.4f}"
        )
    n_traces = len(obs_export.trace_groups(rows))
    print(f"\n{len(rows)} spans across {n_traces} trace(s)")
    return 0


def _cmd_trace_export(args) -> int:
    from repro.obs import export as obs_export

    rows = obs_export.read_jsonl(args.file)
    if args.chrome:
        text = obs_export.chrome_json(rows)
    else:
        text = obs_export.to_jsonl(rows)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        fmt = "chrome trace-event JSON" if args.chrome else "JSONL"
        print(f"{len(rows)} spans -> {args.output} ({fmt})")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import AnalysisCache, Baseline, analyze_paths
    from repro.errors import AnalysisError

    try:
        baseline = None
        if args.baseline and not args.write_baseline:
            baseline = Baseline.load(args.baseline)
        cache = None if args.no_cache else AnalysisCache(args.cache_dir)
        report = analyze_paths(
            args.paths or None,
            select=args.select,
            baseline=baseline,
            cache=cache,
            jobs=args.jobs,
        )
        if args.write_baseline:
            if not args.baseline:
                print(
                    "--write-baseline requires --baseline FILE",
                    file=sys.stderr,
                )
                return 2
            Baseline.from_findings(report.findings).dump(args.baseline)
            print(
                f"baseline with {len(report.findings)} finding(s) written "
                f"to {args.baseline}"
            )
            return 0
    except AnalysisError as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    if args.format == "sarif":
        from repro.analysis.sarif import report_to_sarif

        print(report_to_sarif(report))
    elif args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    ap = argparse.ArgumentParser(
        prog="repro-igp",
        description="Incremental graph partitioning via LP (Ou & Ranka, SC'94)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale factor (1.0 = paper size)")
    common.add_argument("-p", "--partitions", type=int, default=32)
    common.add_argument("--ranks", type=int, default=32,
                        help="virtual CM-5 ranks for Time-p")
    common.add_argument("--no-parallel", action="store_true",
                        help="skip the simulated-machine timings")
    common.add_argument("--lp-backend", default="tableau",
                        dest="lp_backend",
                        help="LP solver backend for the balance/refinement "
                             "LPs (e.g. tableau, revised, scipy; see "
                             "repro.lp.available_backends())")

    sub.add_parser("fig11", parents=[common]).set_defaults(fn=_cmd_fig11)
    sub.add_parser("fig14", parents=[common]).set_defaults(fn=_cmd_fig14)
    sub.add_parser("speedup", parents=[common]).set_defaults(fn=_cmd_speedup)

    from repro.bench.workloads import STREAM_SOURCES

    source_common = argparse.ArgumentParser(add_help=False)
    source_common.add_argument(
        "--source", choices=STREAM_SOURCES,
        default="dataset-a",
        help="delta stream: the dataset-A refinement chain, a social-graph "
             "churn stream, the bursty hub-deletion/flash-crowd stream, or "
             "the adversarial one-partition weight-pile-up stream")
    source_common.add_argument("--steps", type=int, default=10,
                               help="churn stream length (ignored for "
                                    "dataset-a)")
    source_common.add_argument("--seed", type=int, default=0)

    flush_common = argparse.ArgumentParser(add_help=False)
    flush_common.add_argument(
        "--flush-weight", type=float, default=0.5,
        help="flush when pending churn weight exceeds this fraction of the "
             "average partition load")
    flush_common.add_argument(
        "--flush-imbalance", type=float, default=2.0,
        help="flush when the estimated imbalance exceeds this")
    flush_common.add_argument("--max-pending", type=int, default=None,
                              help="flush after this many pending deltas")
    flush_common.add_argument(
        "--per-delta", action="store_true",
        help="repartition after every delta (paper regime; disables the "
             "batching policy)")

    trace_common = argparse.ArgumentParser(add_help=False)
    trace_common.add_argument(
        "--trace", action="store_true",
        help="record repro.obs spans in-process (flush phases, WAL "
             "fsyncs, request handling)")
    trace_common.add_argument(
        "--trace-file", default=None, metavar="PATH",
        help="mirror finished spans to this JSONL file (implies "
             "--trace); read back with `repro-igp trace ...`")
    trace_common.add_argument(
        "--trace-slow-ms", type=float, default=None, metavar="MS",
        help="log a warning for any span at or over this duration "
             "(implies --trace)")

    stream_common = argparse.ArgumentParser(
        add_help=False, parents=[source_common, flush_common, trace_common])
    stream_common.add_argument(
        "--shards", type=int, default=0,
        help="run over a sharded graph with this many shards (0 = "
             "monolithic); session snapshots become format-v2 "
             "directories")
    stream_common.add_argument(
        "--shard-dir", default=None,
        help="store shard blocks on disk under this directory instead of "
             "in memory (requires --shards)")
    stream_common.add_argument(
        "--resident", type=int, default=None,
        help="LRU budget: max shard blocks decoded in memory at once "
             "(with --shard-dir)")

    st = sub.add_parser("stream", parents=[common, stream_common],
                        help="streaming repartition session (batched deltas)")
    st.set_defaults(fn=_cmd_stream)

    sh = sub.add_parser("shard",
                        help="sharded graph storage: split a graph into "
                             "per-shard npz blocks, inspect a shard dir")
    shsub = sh.add_subparsers(dest="shard_command", required=True)
    sp_split = shsub.add_parser(
        "split",
        help="split a graph into per-shard blocks under a directory")
    sp_split.add_argument("graph", nargs="?", default=None,
                          help="METIS-format graph file (omit to use "
                               "--source/--scale like `stream`)")
    sp_split.add_argument("-o", "--output", required=True,
                          help="directory to write shard blocks into")
    sp_split.add_argument("--shards", type=int, default=4,
                          help="number of shards (default 4)")
    sp_split.add_argument("--source", choices=STREAM_SOURCES,
                          default="churn")
    sp_split.add_argument("--scale", type=float, default=1.0)
    sp_split.add_argument("--steps", type=int, default=10)
    sp_split.add_argument("--seed", type=int, default=0)
    sp_split.add_argument("--resident", type=int, default=None,
                          help="LRU budget while writing")
    sp_split.set_defaults(fn=_cmd_shard_split)
    sp_ins = shsub.add_parser("inspect",
                              help="describe and validate a shard directory")
    sp_ins.add_argument("directory")
    sp_ins.add_argument("--resident", type=int, default=None)
    sp_ins.set_defaults(fn=_cmd_shard_inspect)

    be = sub.add_parser("backends",
                        help="list registered LP backends and their "
                             "warm-start capability")
    be.set_defaults(fn=_cmd_backends)

    se = sub.add_parser("session",
                        help="durable partition sessions: save / load / "
                             "resume snapshots")
    sesub = se.add_subparsers(dest="session_command", required=True)

    ss = sesub.add_parser("save", parents=[common, stream_common],
                          help="consume part of a delta stream, then write "
                               "a durable snapshot")
    ss.add_argument("snapshot", help="snapshot file to write (e.g. s.igps)")
    ss.add_argument("--upto", type=int, default=None,
                    help="number of stream deltas to consume before saving "
                         "(default: half the stream)")
    ss.set_defaults(fn=_cmd_session_save)

    sl = sesub.add_parser("load", help="inspect a session snapshot")
    sl.add_argument("snapshot")
    sl.set_defaults(fn=_cmd_session_load)

    sr = sesub.add_parser("resume",
                          help="reload a snapshot, replay the rest of its "
                               "stream, repartition")
    sr.add_argument("snapshot")
    sr.add_argument("-o", "--output", default=None,
                    help="write the post-resume state to a new snapshot")
    sr.set_defaults(fn=_cmd_session_resume)

    sv = sub.add_parser(
        "serve", parents=[trace_common],
        help="run the partition service: host many named sessions over "
             "TCP with WAL durability and LRU eviction")
    sv.add_argument("--root", required=True,
                    help="directory holding the session state "
                         "(meta/snapshot/WAL per session)")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7421,
                    help="TCP port (0 = pick a free one; default 7421)")
    sv.add_argument("--resident", type=int, default=None,
                    help="LRU budget: max sessions resident in memory at "
                         "once (idle ones are checkpointed and evicted)")
    sv.add_argument("--checkpoint-interval", type=float, default=30.0,
                    help="seconds between background checkpoints of dirty "
                         "sessions (bounds WAL replay after a crash)")
    sv.add_argument("--no-fsync", action="store_true",
                    help="skip per-operation WAL fsync (faster, but an OS "
                         "crash may lose acknowledged operations)")
    sv.add_argument("--uds", default=None,
                    help="serve on a Unix domain socket at this path "
                         "instead of TCP")
    sv.set_defaults(fn=_cmd_serve)

    gw = sub.add_parser(
        "gateway", parents=[trace_common],
        help="run the HTTP/REST gateway: every service op as a REST "
             "route with bearer auth, rate limiting and a Prometheus "
             "/metrics exposition")
    gw.add_argument("--root", default=None,
                    help="host sessions in-process from this directory "
                         "(the single-process production shape)")
    gw.add_argument("--host", default="127.0.0.1")
    gw.add_argument("--port", type=int, default=8421,
                    help="HTTP port (0 = pick a free one; default 8421)")
    gw.add_argument("--uds", default=None,
                    help="serve HTTP on a Unix domain socket at this path "
                         "instead of TCP (curl --unix-socket)")
    gw.add_argument("--token", action="append", default=None,
                    metavar="NAME=SECRET",
                    help="accept this bearer token (repeatable); no tokens "
                         "means open dev mode")
    gw.add_argument("--rate", type=float, default=None,
                    help="per-principal rate limit in requests/second "
                         "(default: unlimited)")
    gw.add_argument("--burst", type=int, default=20,
                    help="rate-limit burst capacity (default 20)")
    gw.add_argument("--proxy-host", default="127.0.0.1",
                    help="with --proxy-port/--proxy-uds: the TCP service "
                         "to front")
    gw.add_argument("--proxy-port", type=int, default=None,
                    help="proxy ops to the TCP service on this port "
                         "instead of hosting sessions in-process")
    gw.add_argument("--proxy-uds", default=None,
                    help="proxy ops to the service on this Unix socket")
    gw.add_argument("--resident", type=int, default=None,
                    help="(with --root) LRU budget: max sessions resident")
    gw.add_argument("--checkpoint-interval", type=float, default=30.0,
                    help="(with --root) seconds between background "
                         "checkpoints of dirty sessions")
    gw.add_argument("--no-fsync", action="store_true",
                    help="(with --root) skip per-operation WAL fsync")
    gw.set_defaults(fn=_cmd_gateway)

    cl = sub.add_parser(
        "client",
        help="talk to a running partition service "
             "(create/feed/flush/repartition/quality/query/save/close/"
             "stats/shutdown)")
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=None,
                    help="service port (default 7421, or 8421 with --http)")
    cl.add_argument("--uds", default=None,
                    help="connect over a Unix domain socket at this path")
    cl.add_argument("--http", action="store_true",
                    help="talk to an HTTP gateway instead of the TCP wire "
                         "protocol")
    cl.add_argument("--token", default=None,
                    help="bearer token for --http (secret or NAME=SECRET)")
    clsub = cl.add_subparsers(dest="client_command", required=True)

    cc = clsub.add_parser("create", parents=[source_common, flush_common],
                          help="create a named session from a workload "
                               "source")
    cc.add_argument("name")
    cc.add_argument("--scale", type=float, default=1.0)
    cc.add_argument("-p", "--partitions", type=int, default=8)
    cc.add_argument("--lp-backend", default="revised", dest="lp_backend")
    cc.add_argument("--shards", type=int, default=0,
                    help="create the session sharded server-side (v2 "
                         "directory snapshots; 0 = monolithic)")
    cc.add_argument("--resident", type=int, default=None,
                    help="(with --shards) server-side LRU budget: max "
                         "shard blocks paged in per session")
    cc.set_defaults(fn=_cmd_client_create)

    cf = clsub.add_parser("feed",
                          help="push the next chunk of the session's "
                               "recorded workload stream")
    cf.add_argument("name")
    cf.add_argument("--start", type=int, default=None,
                    help="stream index to start from (default: resume "
                         "after what the session has already seen)")
    cf.add_argument("--upto", type=int, default=None,
                    help="stream index to stop before (default: the end)")
    cf.set_defaults(fn=_cmd_client_feed)

    for verb, fn, help_text in (
        ("flush", _cmd_client_flush, "flush the pending composed delta"),
        ("repartition", _cmd_client_repartition,
         "flush pending or re-run the LP pipeline now"),
        ("quality", _cmd_client_quality, "cut/balance of the current "
                                         "partition"),
        ("save", _cmd_client_save, "checkpoint (snapshot + WAL truncate)"),
        ("close", _cmd_client_close, "checkpoint and release residency"),
    ):
        cp = clsub.add_parser(verb, help=help_text)
        cp.add_argument("name")
        cp.set_defaults(fn=fn)

    cq = clsub.add_parser("query", help="session info, history, labels")
    cq.add_argument("name")
    cq.add_argument("--labels", action="store_true",
                    help="also print the partition vector")
    cq.set_defaults(fn=_cmd_client_query)

    cs = clsub.add_parser("stats", help="server-wide counters and sessions")
    cs.set_defaults(fn=_cmd_client_stats)
    cd = clsub.add_parser("shutdown", help="stop the server cleanly")
    cd.set_defaults(fn=_cmd_client_shutdown)

    ln = sub.add_parser(
        "lint",
        help="run the repro.analysis static-contract checkers "
             "(RPR1xx–RPR7xx, incl. project-level call-graph rules) "
             "over the package source")
    ln.add_argument("paths", nargs="*",
                    help="files or directories to analyze (default: the "
                         "installed repro package)")
    ln.add_argument("--baseline", default=None,
                    help="baseline JSON file: known findings waived by "
                         "(path, code) count")
    ln.add_argument("--write-baseline", action="store_true",
                    help="write the current findings to --baseline FILE "
                         "instead of reporting them")
    ln.add_argument("--select", default=None,
                    help="comma-separated code list or prefixes "
                         "(e.g. RPR5 or RPR501,RPR201)")
    ln.add_argument("--format", choices=("text", "json", "sarif"),
                    default="text",
                    help="report format (default text; sarif emits a "
                         "SARIF 2.1.0 log for code-scanning upload)")
    ln.add_argument("--jobs", type=int, default=1,
                    help="worker processes for per-module analysis "
                         "(output is byte-identical to serial)")
    ln.add_argument("--no-cache", action="store_true",
                    help="bypass the incremental analysis cache")
    ln.add_argument("--cache-dir", default=".repro-analysis-cache",
                    help="incremental cache directory (default "
                         ".repro-analysis-cache)")
    ln.set_defaults(fn=_cmd_lint)

    tr = sub.add_parser(
        "trace",
        help="read back a span trace recorded with --trace-file "
             "(tail / summarize / export --chrome)")
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    tt = trsub.add_parser("tail", help="print the last N spans")
    tt.add_argument("file", help="JSONL trace file (--trace-file output)")
    tt.add_argument("-n", type=int, default=20,
                    help="how many spans to show (default 20)")
    tt.set_defaults(fn=_cmd_trace_tail)
    ts = trsub.add_parser(
        "summarize",
        help="per-span-name aggregates (count, errors, total/max/p50)")
    ts.add_argument("file", help="JSONL trace file (--trace-file output)")
    ts.set_defaults(fn=_cmd_trace_summarize)
    te = trsub.add_parser(
        "export",
        help="re-serialize a trace (JSONL, or --chrome for the Chrome "
             "trace-event format Perfetto loads)")
    te.add_argument("file", help="JSONL trace file (--trace-file output)")
    te.add_argument("--chrome", action="store_true",
                    help="emit Chrome trace-event JSON instead of JSONL")
    te.add_argument("-o", "--output", default=None,
                    help="write here instead of stdout")
    te.set_defaults(fn=_cmd_trace_export)

    pp = sub.add_parser("partition")
    pp.add_argument("graph", help="METIS-format graph file")
    pp.add_argument("-p", "--partitions", type=int, default=32)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("-o", "--output", default=None)
    pp.set_defaults(fn=_cmd_partition)
    return ap


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Library failures (:class:`~repro.errors.ReproError` — corrupted
    snapshots, invalid graphs, unreachable service...) exit non-zero
    with a one-line message instead of a traceback; tracebacks are
    reserved for actual bugs.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, OSError) as exc:
        kind = type(exc).__name__
        print(f"error ({kind}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
