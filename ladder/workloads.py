"""The three ladder workloads.

Each workload drives the program only through its public calls
(``open_session`` / ``PartitionSession`` in-process, ``GatewayClient``
against a ``repro-igp gateway`` subprocess), times every call under a
benchmark span, checks the outputs, and fills a :class:`record.Run`
with the end-to-end metrics of ``BENCHMARK.json``.  ``README.md`` in
this directory says why each workload exists and which layers it loads.
"""

from __future__ import annotations

import gc
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from record import SETUP_REPEATS, Run, StableIds, labels_ok, migrated_fraction

REPO = Path(__file__).resolve().parent.parent
SESSION = "churn"
#: Open-loop offered rate of gateway-churn, in pushes per second: about
#: half of the closed-loop ``deltas_per_s`` (~200/s) the gateway reached
#: on a 2-core machine when this benchmark was defined.
GATEWAY_RATE = 100.0
#: Reader think time between two polls on gateway-churn.
READ_THINK_S = 0.01
#: gateway-churn restarts the killed gateway this many times;
#: ``recover_s`` is the median.
RECOVER_REPEATS = 5
#: Checkpoint cadence: mesh-refine saves (and reloads) every this many
#: refinements, sharded-spill every this many flushes (gateway-churn's
#: cadence in pushes is part of its Scale).
MESH_SAVE_EVERY = 8
SPILL_SAVE_EVERY = 4
#: sharded-spill reads the quality every this many pushes.
SPILL_READ_EVERY = 10


@dataclass(frozen=True)
class Scale:
    """Input size and work per measured second of one run."""

    mesh_n: int
    churn_n: int
    partitions: int
    shards: int
    max_resident: int
    mesh_steps_per_s: float
    spill_pushes_per_s: float
    gateway_rate: float
    gateway_closed_per_s: float
    gateway_tail: int
    gateway_save_every: int


SCALES = {
    "full": Scale(10_000, 10_000, 32, 16, 4, 6.0, 280.0, GATEWAY_RATE, 180.0, 100, 100),
    # The self-test's scale: the same code paths in a few seconds.
    "tiny": Scale(800, 600, 8, 16, 4, 8.0, 40.0, 40.0, 20.0, 10, 10),
}


@dataclass(frozen=True)
class Ctx:
    seed: int
    seconds: float
    scale: Scale
    work: Path
    traced: bool


def _flush_ok(imbalance: float, k: int, n: int) -> bool:
    """Balance bound: with unit vertex weights the LP pipeline must
    reach max load <= ceil(n / k), i.e. imbalance < 1 + k / n."""
    return imbalance <= 1.0 + k / n + 1e-9


def _setup(run: Run, span: str, build):
    """Build the session SETUP_REPEATS times; keep the last one."""
    session = None
    for i in range(SETUP_REPEATS):
        session = None
        gc.collect()
        with run.call(span, "setup"):
            session = build(i)
    run.put_median("setup_s", "setup")
    return session


def _save_and_recover(run: Run, live, path: Path) -> None:
    """Checkpoint ``live`` to ``path``, then reload it and ask for its
    quality (what a restarted process does first); the reloaded labels
    and per-batch pivots must equal the live session's."""
    from repro.session import PartitionSession

    with run.call("bench.save", "save"):
        live.save(path)
    with run.call("bench.recover", "recover"):
        with run.call("bench.load"):
            loaded = PartitionSession.load(path)
        with run.call("bench.quality"):
            loaded.quality()
    run.check("reloaded labels equal the live session's",
              np.array_equal(loaded.part, live.part))
    run.check("reloaded per-batch pivots equal the live session's",
              [h.lp_pivots for h in loaded.history()]
              == [h.lp_pivots for h in live.history()])


def _finish_in_process(run: Run, session, imbalances, migrated) -> None:
    q = session.quality()
    run.put_pct("flush_p50_ms", "flush", 50)
    run.put_pct("flush_p90_ms", "flush", 90)
    run.put_pct("push_p50_ms", "push", 50)
    run.put_pct("push_p90_ms", "push", 90)
    run.put_pct("read_p50_ms", "read", 50)
    run.put_pct("read_p90_ms", "read", 90)
    run.put_rate("deltas_per_s", "done", "loop")
    run.put_pct("save_p50_ms", "save", 50)
    run.put_pct("recover_s", "recover", 50, scale=1.0)
    run.put("cut_total", q.cut_total)
    run.put("imbalance_max", max(imbalances), len(imbalances))
    run.put("migrated_frac", float(np.mean(migrated)), len(migrated))
    run.put_peak_rss_self()
    run.finish_digest(session.part, sum(h.lp_pivots for h in session.history()))


# ----------------------------------------------------------------------
# mesh-refine
# ----------------------------------------------------------------------
def mesh_refine(run: Run, ctx: Ctx) -> None:
    """IGPR after every localized refinement of a ~10^4-node mesh."""
    from repro import open_session
    from repro.core.streaming import FlushPolicy

    sc = ctx.scale
    k = sc.partitions
    steps = max(2 * MESH_SAVE_EVERY, round(ctx.seconds * sc.mesh_steps_per_s))
    base, deltas = inputs.load(
        {"kind": "mesh", "seed": ctx.seed, "n": sc.mesh_n, "steps": steps}
    )

    session = _setup(
        run,
        "bench.open_session",
        lambda _: open_session(
            base, k, refine=True, lp_backend="revised",
            policy=FlushPolicy(max_pending=1), seed=ctx.seed,
        ),
    )
    snapshot = ctx.work / "mesh.igps"
    ids = StableIds(base.num_vertices)
    prev_ids, prev = ids.ids, session.part.copy()
    imbalances, migrated = [], []
    flushed = labelled = balanced = True
    t0 = time.perf_counter()
    for i, delta in enumerate(deltas, 1):
        # max_pending=1: every push repartitions, so each push is also
        # a flush sample.
        with run.call("bench.push", "push", "flush"):
            result = session.push(delta)
        with run.call("bench.quality", "read"):
            quality = session.quality()
        run.add("done", 0.0)
        ids.advance(delta)
        labels = session.part
        flushed &= result is not None
        labelled &= labels_ok(labels, k, len(ids.ids))
        balanced &= _flush_ok(quality.imbalance, k, len(ids.ids))
        imbalances.append(quality.imbalance)
        migrated.append(migrated_fraction(prev_ids, prev, ids.ids, labels))
        prev_ids, prev = ids.ids, labels.copy()
        if i % MESH_SAVE_EVERY == 0:
            _save_and_recover(run, session, snapshot)
    run.choose_fast_windows("loop", "push", t0, time.perf_counter())
    run.check("every push repartitioned", flushed)
    run.check("every label is in [0, P)", labelled)
    run.check("every flush is within the balance bound", balanced)
    _finish_in_process(run, session, imbalances, migrated)


# ----------------------------------------------------------------------
# sharded-spill
# ----------------------------------------------------------------------
def sharded_spill(run: Run, ctx: Ctx) -> None:
    """Churn over 16 on-disk shards with a 4-block resident budget."""
    from repro import open_session
    from repro.graph.sharded import DirectoryShardStore, ShardedCSRGraph

    sc = ctx.scale
    k = sc.partitions
    pushes = max(4, round(ctx.seconds * sc.spill_pushes_per_s))
    # A different seed stream from gateway-churn's inputs.
    base, deltas = inputs.load(
        {"kind": "churn", "seed": ctx.seed + 1_000_000, "n": sc.churn_n, "steps": pushes}
    )

    def build(i: int):
        store = DirectoryShardStore(
            ctx.work / f"shards-{i}", max_resident=sc.max_resident
        )
        graph = ShardedCSRGraph.from_csr(base, sc.shards, store=store)
        return open_session(graph, k, lp_backend="revised", seed=ctx.seed)

    session = _setup(run, "bench.open_session", build)
    snapshot = ctx.work / "spill-snapshot"
    ids = StableIds(base.num_vertices)
    prev_ids, prev = ids.ids, session.part.copy()
    imbalances, migrated = [], []
    labelled = balanced = True
    flushes = 0
    t0 = time.perf_counter()
    for i, delta in enumerate(deltas):
        with run.call("bench.push", "push") as sp:
            result = session.push(delta)
        ids.advance(delta)
        if result is not None:
            flushes += 1
            run.add("flush", sp.duration_s)
            labels = session.part
            imbalance = result.quality_final.imbalance
            labelled &= labels_ok(labels, k, len(ids.ids))
            balanced &= _flush_ok(imbalance, k, len(ids.ids))
            imbalances.append(imbalance)
            migrated.append(migrated_fraction(prev_ids, prev, ids.ids, labels))
            prev_ids, prev = ids.ids, labels.copy()
            if flushes % SPILL_SAVE_EVERY == 0:
                _save_and_recover(run, session, snapshot)
        if i % SPILL_READ_EVERY == 0:
            with run.call("bench.quality", "read"):
                session.quality()
        run.add("done", 0.0)
    run.choose_fast_windows("loop", "push", t0, time.perf_counter())
    run.check("at least one save", flushes >= SPILL_SAVE_EVERY)
    run.check("every label is in [0, P)", labelled)
    run.check("every flush is within the balance bound", balanced)
    _finish_in_process(run, session, imbalances, migrated)


# ----------------------------------------------------------------------
# gateway-churn
# ----------------------------------------------------------------------
_BANNER = re.compile(r"partition gateway on http://127\.0\.0\.1:(\d+)")


class GatewayProc:
    """One ``repro-igp gateway`` subprocess over ``root`` (fsync on)."""

    def __init__(self, ctx: Ctx, root: Path, index: int):
        self.index = index
        self.requests = 0
        self._lock = threading.Lock()
        self.sink = ctx.work / f"gateway-{index}.jsonl" if ctx.traced else None
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env.pop("REPRO_TRACE", None)
        env.pop("REPRO_TRACE_FILE", None)
        if self.sink is not None:
            env["REPRO_TRACE"] = "1"
            env["REPRO_TRACE_FILE"] = str(self.sink)
        self.log = ctx.work / f"gateway-{index}.log"
        with open(self.log, "wb") as out:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-c",
                    "import sys; from repro.cli import main; "
                    "raise SystemExit(main(sys.argv[1:]))",
                    "gateway", "--root", str(root), "--port", "0",
                    # No background checkpoint inside a run: the WAL tail
                    # at the kill is exactly what the workload pushed.
                    "--checkpoint-interval", "3600",
                ],
                env=env, stdout=out, stderr=subprocess.STDOUT,
            )
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(
            f"gateway did not start:\n{self.log.read_text(errors='replace')[-2000:]}"
        )

    def client(self):
        from repro.gateway.client import GatewayClient

        return GatewayClient("127.0.0.1", self.port, timeout=120.0)

    def call(self, run: Run, span: str, keys, fn, *args, **kwargs):
        """One request to this process, timed and counted (the traced
        run checks the gateway recorded a span for every request)."""
        try:
            with run.call(span, *keys):
                return fn(*args, **kwargs)
        finally:
            self.count()

    def count(self) -> None:
        with self._lock:
            self.requests += 1

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=60)


class _Writer:
    """The writer connection: pushes, periodic checkpoints, and the
    labels it fetches after every push that repartitioned (the data the
    caller must redistribute)."""

    def __init__(self, run: Run, proc: GatewayProc, client, base, k: int, save_every: int):
        self.run, self.proc, self.client, self.k = run, proc, client, k
        self.save_every = save_every
        self.ids = StableIds(base.num_vertices)
        self.prev_ids = self.ids.ids
        self.prev = proc.call(run, "bench.labels", (), client.labels, SESSION)
        self.migrated: list[float] = []
        self.labelled = self.balanced = True
        self.pushes = 0

    def push(self, delta, key: str | None, due: float | None = None) -> None:
        """One push; its latency (from ``due`` when given) goes to
        ``samples[key]`` and, when it repartitioned, to ``flush``."""
        with self.run.call("bench.push") as sp:
            ack = self.client.push(SESSION, delta)
        self.proc.count()
        latency = sp.duration_s if due is None else time.perf_counter() - due
        self.ids.advance(delta)
        self.pushes += 1
        if key is not None:
            self.run.add(key, latency)
        if ack["flushed"]:
            if key is not None:
                self.run.add("flush", latency)
            labels = self.proc.call(self.run, "bench.labels", (), self.client.labels, SESSION)
            n = len(self.ids.ids)
            self.labelled &= labels_ok(labels, self.k, n)
            self.balanced &= _flush_ok(ack["batch"]["imbalance"], self.k, n)
            self.migrated.append(
                migrated_fraction(self.prev_ids, self.prev, self.ids.ids, labels)
            )
            self.prev_ids, self.prev = self.ids.ids, labels
        if key is not None and self.pushes % self.save_every == 0:
            self.proc.call(self.run, "bench.save", ("save",), self.client.save, SESSION)


def gateway_churn(run: Run, ctx: Ctx) -> None:
    """HTTP gateway, fsync on: open-loop then closed-loop pushes from one
    writer, a concurrent reader, then SIGKILL and WAL recovery."""
    sc = ctx.scale
    k = sc.partitions
    half = ctx.seconds / 2
    n_open = max(2, round(sc.gateway_rate * half))
    n_closed = max(2, round(sc.gateway_closed_per_s * half))
    base, deltas = inputs.load(
        {"kind": "churn", "seed": ctx.seed, "n": sc.churn_n,
         "steps": n_open + n_closed + sc.gateway_tail}
    )
    open_part = deltas[:n_open]
    closed_part = deltas[n_open : n_open + n_closed]
    tail_part = deltas[n_open + n_closed :]
    root = ctx.work / "gateway-root"
    procs = run.gateways

    def start(index: int) -> GatewayProc:
        proc = GatewayProc(ctx, root, index)
        procs.append(proc)
        return proc

    proc = client = None
    try:
        # -- set-up: spawn + create, repeated on fresh roots -----------
        for i in range(SETUP_REPEATS):
            if proc is not None:
                client.close()
                proc.kill()
                shutil.rmtree(root)
            with run.call("bench.gateway_setup", "setup"):
                proc = start(i)
                client = proc.client()
                proc.call(run, "bench.create", (), client.create, SESSION,
                          partitions=k, graph=base, seed=ctx.seed,
                          config={"lp_backend": "revised"})
        run.put_median("setup_s", "setup")

        writer = _Writer(run, proc, client, base, k, sc.gateway_save_every)
        reader = proc.client()
        stop = threading.Event()
        reader_errors: list[BaseException] = []

        def read_loop() -> None:
            polls = (reader.quality, reader.labels)
            i = 0
            while not stop.is_set():
                try:
                    proc.call(run, "bench.read", ("read",), polls[i % 2], SESSION)
                # Reported by the main thread as a failed check.
                except Exception as exc:
                    reader_errors.append(exc)
                    return
                i += 1
                stop.wait(READ_THINK_S)

        thread = threading.Thread(target=read_loop, name="ladder-reader")
        thread.start()
        try:
            # Open loop at a fixed rate: latency counts from the due time.
            late = []
            t0 = time.perf_counter() + 0.05
            for i, delta in enumerate(open_part):
                due = t0 + i / sc.gateway_rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                late.append(max(0.0, time.perf_counter() - due))
                writer.push(delta, "push", due)
            t1 = time.perf_counter()
            # Closed loop, saturating: throughput.
            for delta in closed_part:
                writer.push(delta, "push_closed")
                run.add("done", 0.0)
            t2 = time.perf_counter()
        finally:
            stop.set()
            thread.join(timeout=120)
        run.choose_fast_windows("open", "push", t0, t1)
        run.choose_fast_windows("closed", "push_closed", t1, t2)
        run.check("reader polls succeeded", not reader_errors and not thread.is_alive())
        run.notes.append(
            f"open-loop generator lateness p99 {np.percentile(late, 99) * 1e3:.2f} ms "
            f"at {sc.gateway_rate:g}/s"
        )

        # Checkpoint, then leave a WAL tail that only replay can recover.
        wal = root / SESSION / "wal.jsonl"
        wal_bytes = wal.stat().st_size
        proc.call(run, "bench.save", (), client.save, SESSION)
        for delta in tail_part:
            writer.push(delta, None)
        wal_bytes += wal.stat().st_size
        run.layer_extra["wal.bytes"] = float(wal_bytes)
        before = proc.call(run, "bench.query", (), client.query, SESSION, labels=True)
        quality = proc.call(run, "bench.quality", (), client.quality, SESSION)
        run.put("peak_rss_mb", proc.peak_rss_mb())
        before_pivots = [h["lp_pivots"] for h in before["history"]]

        # -- SIGKILL with an unreplayed WAL tail; restart; open --------
        reader.close()
        for i in range(RECOVER_REPEATS):
            client.close()
            with run.call("bench.recover", "recover"):
                proc.kill()
                proc = start(SETUP_REPEATS + i)
                client = proc.client()
                proc.call(run, "bench.open", (), client.open, SESSION)
            after = proc.call(run, "bench.query", (), client.query, SESSION, labels=True)
            run.check("labels after restart equal those before the kill",
                      np.array_equal(after["labels"], before["labels"]))
            run.check("per-batch pivots after restart equal those before the kill",
                      [h["lp_pivots"] for h in after["history"]] == before_pivots)
        client.close()
    finally:
        for p in procs:
            p.kill()

    run.check("every label is in [0, P)", writer.labelled)
    run.check("every flush is within the balance bound", writer.balanced)
    run.check("at least one flush", len(before_pivots) > 0)
    imbalances = [h["imbalance"] for h in before["history"]]
    run.put_pct("flush_p50_ms", "flush", 50)
    run.put_pct("flush_p90_ms", "flush", 90)
    run.put_pct("push_p50_ms", "push", 50)
    run.put_pct("push_p90_ms", "push", 90)
    run.put_pct("read_p50_ms", "read", 50)
    run.put_pct("read_p90_ms", "read", 90)
    run.put_rate("deltas_per_s", "done", "closed")
    run.put_pct("save_p50_ms", "save", 50)
    run.put_median("recover_s", "recover")
    run.put("cut_total", quality["cut_total"])
    run.put("imbalance_max", max(imbalances), len(imbalances))
    run.put("migrated_frac", float(np.mean(writer.migrated or [0.0])), len(writer.migrated))
    run.finish_digest(before["labels"], sum(before_pivots))


WORKLOADS = {
    "mesh-refine": mesh_refine,
    "gateway-churn": gateway_churn,
    "sharded-spill": sharded_spill,
}
#: The latency each workload is judged by; ``trace.overhead`` is its
#: traced/untraced ratio.
MAIN_LATENCY = {
    "mesh-refine": "flush_p50_ms",
    "gateway-churn": "push_p50_ms",
    "sharded-spill": "flush_p50_ms",
}
