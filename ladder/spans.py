"""Per-layer attribution from ``repro.obs`` JSONL span sinks.

Every process of a traced run (the benchmark itself and each gateway
subprocess) mirrors its finished spans to one JSONL file.  This module
reads those files, proves nothing was dropped, and folds the spans into
the per-layer metrics listed in ``BENCHMARK.json``.  A span's *self*
time is its duration minus the part of its interval that its child
spans cover (children may overlap, e.g. across threads, so the covered
part is the union of their intervals).
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

LP_PHASES = ("assign", "layer", "balance", "move", "refine")
TRIGGERS = ("weight", "imbalance", "explicit", "max_pending")

#: name -> unit, in report order.  Every traced run reports all of them;
#: a layer the workload never enters reads 0.
PER_LAYER_UNITS = {
    "gateway.http_self_ms_p50": "ms",
    "gateway.client_gap_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.batch_mean": "count",
    "service.push_self_ms_p50": "ms",
    "service.read_ms_p50": "ms",
    "service.open_s": "s",
    "wal.append_ms_p50": "ms",
    "wal.fsync_ms_p50": "ms",
    "wal.fsyncs": "count",
    "wal.bytes": "B",
    "session.save_ms_p50": "ms",
    "session.load_ms": "ms",
    "flush.count": "count",
    **{f"flush.trigger.{t}": "count" for t in TRIGGERS},
    "flush.fallbacks": "count",
    "flush.self_ms_p50": "ms",
    "flush.apply_ms_p50": "ms",
    "shard.loads": "count",
    "shard.load_ms_total": "ms",
    "shard.evicts": "count",
    "frame.hit_ratio": "ratio",
    "frame.lookups": "count",
    **{f"lp.{p}_ms_total": "ms" for p in LP_PHASES},
    **{f"lp.{p}_share": "ratio" for p in LP_PHASES},
    "lp.stages": "count",
    "lp.refine_rounds": "count",
    "lp.balance_pivots": "count",
    "lp.refine_pivots": "count",
    "lp.pivots_per_ms": "1/ms",
    "init.partition_s": "s",
    "trace.overhead": "ratio",
}


class SpanLossError(RuntimeError):
    """A span sink is missing spans the process finished."""


def read_sink(path: Path) -> list[dict]:
    """All rows of one process's sink, checked gap-free: the tracer
    numbers finished spans 1, 2, 3, ... per process, so a sink whose
    ``seq`` values are not consecutive lost spans."""
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    seqs = [row["seq"] for row in rows]
    if seqs and seqs != list(range(seqs[0], seqs[0] + len(seqs))):
        raise SpanLossError(f"{path.name}: span seq numbers have gaps")
    return rows


def pct(values, q: float) -> float:
    """``np.percentile`` that reads 0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _self_s(span: dict, kids: list[dict]) -> float:
    start, end = span["start_us"], span["start_us"] + span["dur_us"]
    covered, reach = 0, start
    for kid in sorted(kids, key=lambda k: k["start_us"]):
        lo = max(kid["start_us"], reach)
        hi = min(kid["start_us"] + kid["dur_us"], end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span["dur_us"] - covered) / 1e6


class SpanSet:
    """Spans of one traced run, indexed for parent/child lookups.  Span
    ids are per process, so every key is ``(pid, span_id)``."""

    def __init__(self, rows: list[dict]):
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.by_id: dict[tuple, dict] = {}
        self.kids: dict[tuple, list[dict]] = defaultdict(list)
        for row in rows:
            self.by_name[row["name"]].append(row)
            self.by_id[(row["pid"], row["span_id"])] = row
            if row["parent_id"] is not None:
                self.kids[(row["pid"], row["parent_id"])].append(row)

    def durs(self, name: str) -> list[float]:
        return [row["dur_us"] / 1e6 for row in self.by_name[name]]

    def self_times(self, name: str) -> list[float]:
        return [
            _self_s(row, self.kids[(row["pid"], row["span_id"])])
            for row in self.by_name[name]
        ]

    def attr_sum(self, name: str, key: str) -> float:
        return float(sum(row.get("attrs", {}).get(key, 0) for row in self.by_name[name]))

    def parent(self, row: dict) -> dict | None:
        if row["parent_id"] is None:
            return None
        return self.by_id.get((row["pid"], row["parent_id"]))


def per_layer(spans: SpanSet, extra: dict[str, float]) -> dict[str, float]:
    """Fold a run's spans into the per-layer metrics.  ``extra`` carries
    the values measured outside the spans (client gaps, WAL bytes, the
    trace overhead) and overrides span-derived ones of the same name."""
    ms = 1e3
    out: dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)

    # repro.gateway / repro.service: the HTTP edge and the micro-batcher.
    out["gateway.http_self_ms_p50"] = pct(spans.self_times("http.request"), 50) * ms
    waits = []
    for batch in spans.by_name["push.batch"]:
        request = spans.parent(batch)
        if request is not None and request["name"] == "http.request":
            waits.append((batch["start_us"] - request["start_us"]) / 1e3)
    out["service.queue_wait_ms_p50"] = pct(waits, 50)
    out["service.queue_wait_ms_p99"] = pct(waits, 99)
    batched = [row.get("attrs", {}).get("batched", 0) for row in spans.by_name["push.batch"]]
    out["service.batch_mean"] = float(np.mean(batched)) if batched else 0.0
    out["service.push_self_ms_p50"] = pct(spans.self_times("service.push"), 50) * ms
    reads = spans.durs("service.quality") + spans.durs("service.query")
    out["service.read_ms_p50"] = pct(reads, 50) * ms
    opens = spans.durs("service.open")
    out["service.open_s"] = float(np.median(opens)) if opens else 0.0

    # repro.service.wal
    out["wal.append_ms_p50"] = pct(spans.durs("wal.append"), 50) * ms
    out["wal.fsync_ms_p50"] = pct(spans.durs("wal.fsync"), 50) * ms
    out["wal.fsyncs"] = float(len(spans.by_name["wal.fsync"]))

    # repro.session: saves and loads (benchmark spans in-process, the
    # service checkpoint behind the gateway).
    saves = spans.durs("bench.save") or spans.durs("service.save")
    out["session.save_ms_p50"] = pct(saves, 50) * ms
    loads = spans.durs("bench.load")
    out["session.load_ms"] = float(np.median(loads)) * ms if loads else 0.0

    # repro.core.streaming: flush triggers, self time and delta apply.
    flushes = spans.by_name["flush"]
    out["flush.count"] = float(len(flushes))
    for trigger in TRIGGERS:
        out[f"flush.trigger.{trigger}"] = float(
            sum(row.get("attrs", {}).get("trigger") == trigger for row in flushes)
        )
    out["flush.fallbacks"] = float(
        sum(bool(row.get("attrs", {}).get("fallback")) for row in flushes)
    )
    out["flush.self_ms_p50"] = pct(spans.self_times("flush"), 50) * ms
    out["flush.apply_ms_p50"] = pct(spans.durs("flush.apply"), 50) * ms

    # repro.graph.sharded / repro.graph.frame
    out["shard.loads"] = float(len(spans.by_name["shard.load"]))
    out["shard.load_ms_total"] = sum(spans.durs("shard.load")) * ms
    out["shard.evicts"] = spans.attr_sum("shard.evict", "evicted")
    hits = spans.attr_sum("flush", "frame_hits")
    lookups = hits + spans.attr_sum("flush", "frame_fetches")
    out["frame.lookups"] = lookups
    out["frame.hit_ratio"] = hits / lookups if lookups else 0.0

    # repro.core phases and repro.lp pivots.
    repartition_s = sum(spans.durs("flush.repartition"))
    for phase in LP_PHASES:
        total = sum(spans.durs(f"lp.{phase}"))
        out[f"lp.{phase}_ms_total"] = total * ms
        out[f"lp.{phase}_share"] = total / repartition_s if repartition_s else 0.0
    out["lp.stages"] = spans.attr_sum("flush", "stages")
    out["lp.refine_rounds"] = spans.attr_sum("lp.refine", "rounds")
    out["lp.balance_pivots"] = spans.attr_sum("lp.balance", "pivots")
    out["lp.refine_pivots"] = spans.attr_sum("lp.refine", "pivots")
    lp_ms = out["lp.balance_ms_total"] + out["lp.refine_ms_total"]
    pivots = out["lp.balance_pivots"] + out["lp.refine_pivots"]
    out["lp.pivots_per_ms"] = pivots / lp_ms if lp_ms else 0.0

    # repro.spectral: the initial partition inside session set-up.
    inits = spans.durs("bench.open_session") or spans.durs("service.create")
    out["init.partition_s"] = float(np.median(inits)) if inits else 0.0

    out.update(extra)
    return out
