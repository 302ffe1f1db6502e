"""Hosting many named :class:`~repro.session.PartitionSession`\\ s at once.

:class:`SessionManager` is the stateful heart of the service: it owns a
root directory with one subdirectory per named session::

    root/
      social/
        meta.json        # the creation recipe (deterministic rebuild)
        snapshot.igps    # last checkpoint (PartitionSession.save format)
        wal.jsonl        # operations since that checkpoint (fsync'd)

and provides the thread-safe operation surface the server dispatches to:
``create`` / ``open`` / ``push`` / ``flush`` / ``repartition`` /
``query`` / ``quality`` / ``save`` / ``close`` / ``stats``.

Concurrency model — per-session locks: every operation on a session runs
under that session's :class:`threading.RLock`, so concurrent requests to
*different* sessions proceed in parallel while requests to the same
session serialize.  The server's push batcher composes concurrent pushes
into one :meth:`~repro.session.PartitionSession.push_batch` call, so the
lock is taken once per micro-batch, not once per delta.

Residency — LRU eviction: at most ``max_resident`` sessions keep a live
``PartitionSession`` in memory.  Touching a session beyond the budget
checkpoints the least-recently-used idle session (snapshot + WAL
truncate) and drops its in-memory state; the next touch transparently
reloads it from the snapshot — restored sessions warm-start identically
(PR 3's pivot-equality guarantee), so eviction is invisible to clients.

Durability — WAL between checkpoints: every state-changing operation is
appended to the session's :class:`~repro.service.wal.WriteAheadLog` and
fsync'd *before* it is applied in memory; the client is acknowledged
only after both.  Recovery (:meth:`SessionManager.open` after a crash)
loads the snapshot if one exists — else rebuilds the session from
``meta.json``, which is deterministic (seeded initial partitioner) —
and replays the WAL tail.  Replay re-folds the exact micro-batches the
live server composed, so the recovered session's labels *and* simplex
pivot counts match an uninterrupted run.  A background worker
checkpoints dirty sessions every ``checkpoint_interval`` seconds to
bound replay time.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import re
import shutil
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.streaming import FlushPolicy
from repro.errors import ServiceError, SnapshotError, UnknownBackendError
from repro.graph.incremental import GraphDelta
from repro.graph.sharded import ShardedCSRGraph
from repro.obs import get_tracer
from repro.service.protocol import arrays_to_wire, graph_from_wire
from repro.service.wal import WriteAheadLog
from repro.session import PartitionSession, open_session, _atomic_write_text

__all__ = ["ManagedSession", "SessionManager"]

logger = logging.getLogger(__name__)


def _fsync_path(path: Path) -> None:
    """fsync a file or directory (directory fsync persists the rename)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_META_NAME = "meta.json"
_SNAPSHOT_NAME = "snapshot.igps"
_WAL_NAME = "wal.jsonl"
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass
class ManagedSession:
    """One named session slot: lock, residency state, WAL handle."""

    name: str
    directory: Path
    spec: dict
    lock: threading.RLock = field(default_factory=threading.RLock)
    session: PartitionSession | None = None
    wal: WriteAheadLog | None = None
    dirty: bool = False
    last_used: int = 0

    @property
    def resident(self) -> bool:
        """Is a live :class:`PartitionSession` in memory right now?"""
        return self.session is not None


def _normalize_spec(args: dict) -> dict:
    """Validate and normalize ``create`` arguments into the meta.json
    recipe (everything needed to deterministically rebuild the session)."""
    if not isinstance(args.get("partitions"), int) or args["partitions"] < 1:
        raise ServiceError(
            "create requires integer args.partitions >= 1", code="bad-request"
        )
    graph = args.get("graph")
    source = args.get("source")
    if (graph is None) == (source is None):
        raise ServiceError(
            "create requires exactly one of args.graph (wire-encoded CSR "
            "arrays) or args.source (a named workload spec)",
            code="bad-request",
        )
    if source is not None:
        if not isinstance(source, dict) or "source" not in source:
            raise ServiceError(
                "args.source must be an object with at least a 'source' name",
                code="bad-request",
            )
        source = {
            "source": str(source["source"]),
            "scale": float(source.get("scale", 1.0)),
            "steps": int(source.get("steps", 10)),
            "seed": int(source.get("seed", 0)),
        }
    policy = args.get("policy")
    if policy is not None and not isinstance(policy, dict):
        raise ServiceError("args.policy must be an object", code="bad-request")
    config = args.get("config")
    if config is not None and not isinstance(config, dict):
        raise ServiceError("args.config must be an object", code="bad-request")
    shards = args.get("shards")
    if shards is not None and (not isinstance(shards, int) or shards < 1):
        raise ServiceError(
            "args.shards must be an integer >= 1", code="bad-request"
        )
    session_resident = args.get("max_resident")
    if session_resident is not None:
        if shards is None:
            raise ServiceError(
                "args.max_resident requires args.shards (it caps resident "
                "shard blocks of a sharded session)",
                code="bad-request",
            )
        if not isinstance(session_resident, int) or session_resident < 1:
            raise ServiceError(
                "args.max_resident must be an integer >= 1", code="bad-request"
            )
    return {
        "partitions": int(args["partitions"]),
        "initial": str(args.get("initial", "rsb")),
        "seed": int(args.get("seed", 0)),
        "policy": policy,
        "config": dict(config or {}),
        "strict": bool(args.get("strict", True)),
        "accumulate_weights": bool(args.get("accumulate_weights", False)),
        "graph": graph,
        "source": source,
        "shards": None if shards is None else int(shards),
        "max_resident": (
            None if session_resident is None else int(session_resident)
        ),
    }


def _build_session(spec: dict) -> PartitionSession:
    """Construct the session a spec describes (deterministic: same spec,
    same seed, same initial partition)."""
    if spec.get("graph") is not None:
        graph = graph_from_wire(spec["graph"])
    else:
        from repro.bench.workloads import make_stream

        src = spec["source"]
        try:
            graph, _ = make_stream(
                src["source"], src["scale"], src["steps"], src["seed"]
            )
        except ValueError as exc:
            raise ServiceError(str(exc), code="bad-request") from None
    if spec.get("shards"):
        # Sharded sessions snapshot as v2 directories and route deltas
        # shard-locally; the blocks start in memory and land on disk at
        # the first checkpoint (create() checkpoints immediately).
        graph = ShardedCSRGraph.from_csr(graph, int(spec["shards"]))
    policy = None
    if spec.get("policy") is not None:
        try:
            policy = FlushPolicy(**spec["policy"])
        except TypeError as exc:
            raise ServiceError(
                f"invalid flush policy: {exc}", code="bad-request"
            ) from None
    try:
        return open_session(
            graph,
            spec["partitions"],
            initial=spec["initial"],
            seed=spec["seed"],
            policy=policy,
            strict=spec["strict"],
            accumulate_weights=spec["accumulate_weights"],
            **spec["config"],
        )
    except (TypeError, UnknownBackendError) as exc:
        raise ServiceError(
            f"invalid session config: {exc.args[0]}", code="bad-request"
        ) from None


def _timed_op(fn):
    """Run a public manager op under a ``service.<op>`` span and report
    its wall time through ``on_op`` (when subscribed) whether it
    succeeds or raises.

    The span measures duration even when tracing is disabled (two
    monotonic clock reads), so the gateway's per-op latency histograms
    keep working with the tracer off.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        sp = None
        try:
            with get_tracer().span(f"service.{fn.__name__}") as sp:
                return fn(self, *args, **kwargs)
        finally:
            # Outside the ``with`` so the span's duration is final.
            cb = self.on_op
            if cb is not None and sp is not None:
                try:
                    cb(fn.__name__, sp.duration_s)
                # repro: ignore[RPR501] - a broken metrics sink must not fail the op it observed
                except Exception:  # pragma: no cover - defensive
                    logger.exception("on_op observer failed")

    return wrapper


class SessionManager:
    """Concurrent host for named partition sessions (see module docs).

    Parameters
    ----------
    root:
        directory holding one subdirectory per session (created lazily).
    max_resident:
        LRU budget — at most this many sessions live in memory at once
        (``None`` = unbounded).
    checkpoint_interval:
        seconds between background checkpoint sweeps of dirty sessions;
        ``None`` disables the worker (checkpoints then happen only on
        eviction, explicit ``save`` and :meth:`close_all`).
    fsync:
        forwarded to each session's WAL; ``False`` trades crash
        durability for speed (tests).
    """

    def __init__(
        self,
        root,
        *,
        max_resident: int | None = None,
        checkpoint_interval: float | None = None,
        fsync: bool = True,
    ):
        if max_resident is not None and max_resident < 1:
            raise ServiceError(
                "max_resident must be >= 1 (or None)", code="bad-request"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.checkpoint_interval = checkpoint_interval
        self.fsync = fsync
        self._registry: dict[str, ManagedSession] = {}
        self._lock = threading.RLock()
        self._touch_counter = itertools.count(1)
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self.counters = {
            "created": 0,
            "opened": 0,
            "pushes": 0,
            "push_batches": 0,
            "flushes": 0,
            "repartitions": 0,
            "queries": 0,
            "evictions": 0,
            "reloads": 0,
            "checkpoints": 0,
            "wal_records": 0,
            "wal_replayed": 0,
            "wal_fsyncs": 0,
            "lp_pivots": 0,
            "lp_batches": 0,
        }
        #: Optional observer ``(op_name, seconds)`` called after every
        #: public operation — the HTTP gateway feeds its per-op latency
        #: histograms from this hook.  Exceptions still propagate to the
        #: caller; the elapsed time is reported either way.
        self.on_op: Callable[[str, float], None] | None = None

    # ------------------------------------------------------------------
    # Registry / residency plumbing
    # ------------------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def _new_wal(self, ms: ManagedSession, *, start_seq: int = 0) -> WriteAheadLog:
        """Open a session's WAL with the fsync counter wired into the
        manager-wide ``wal_fsyncs`` counter."""
        wal = WriteAheadLog(
            ms.directory / _WAL_NAME, start_seq=start_seq, fsync=self.fsync
        )
        wal.on_fsync = lambda: self._count("wal_fsyncs")
        return wal

    def _slot(self, name: str) -> ManagedSession:
        """The registry entry for ``name``, registering an on-disk
        session directory on first touch."""
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ServiceError(
                f"invalid session name {name!r} (want [A-Za-z0-9][A-Za-z0-9_.-]*, "
                f"max 64 chars)",
                code="bad-request",
            )
        with self._lock:
            ms = self._registry.get(name)
            if ms is not None:
                return ms
            directory = self.root / name
            meta_path = directory / _META_NAME
            if not meta_path.is_file():
                raise ServiceError(
                    f"unknown session {name!r}", code="unknown-session"
                )
            try:
                spec = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ServiceError(
                    f"unreadable session meta for {name!r}: {exc}", code="snapshot"
                ) from None
            ms = ManagedSession(name=name, directory=directory, spec=spec)
            self._registry[name] = ms
            return ms

    def _materialize_locked(self, ms: ManagedSession) -> PartitionSession:
        """Ensure ``ms`` holds a live session (caller holds ``ms.lock``).

        Recovery path: prefer the snapshot; fall back to a deterministic
        rebuild from ``meta.json`` when no (readable) snapshot exists;
        then replay the WAL tail.
        """
        if ms.session is not None:
            return ms.session
        covered = 0
        session: PartitionSession | None = None
        snap = ms.directory / _SNAPSHOT_NAME
        if snap.exists():
            try:
                # v2 directory snapshots (sharded sessions) re-attach
                # the snapshot dir as the live shard store; the spec's
                # max_resident caps how many blocks stay paged in.
                session = PartitionSession.load(
                    snap, max_resident=ms.spec.get("max_resident")
                )
                covered = int(
                    (session.user_meta.get("service") or {}).get("wal_seq", 0)
                )
            except SnapshotError as exc:
                # Rebuilding from the meta.json recipe is only *exact*
                # when the WAL still covers the session's whole life
                # (first record seq 1, i.e. no checkpoint ever truncated
                # it).  Otherwise the truncated prefix lives solely in
                # the unreadable snapshot — serving a rebuilt session
                # would silently drop acknowledged operations, so
                # refuse instead.
                if ms.wal is None:
                    ms.wal = self._new_wal(ms)
                if ms.wal.first_seq() == 1:
                    logger.warning(
                        "session %s: snapshot unreadable (%s); WAL covers "
                        "the full history — rebuilding from meta",
                        ms.name,
                        exc,
                    )
                    session = None
                    covered = 0
                else:
                    raise SnapshotError(
                        f"session {ms.name!r}: snapshot {snap} is unreadable "
                        f"({exc}) and the WAL no longer covers the history "
                        f"before the last checkpoint; refusing to serve a "
                        f"silently rebuilt session"
                    ) from exc
        if session is None:
            # Missing snapshot: the same only-if-exact rule applies — a
            # WAL whose first surviving record has seq > 1 proves a
            # checkpoint truncated history we no longer have.
            if ms.wal is None:
                ms.wal = self._new_wal(ms)
            first = ms.wal.first_seq()
            if first is not None and first > 1:
                raise SnapshotError(
                    f"session {ms.name!r}: snapshot {snap} is missing and "
                    f"the WAL starts at seq {first} (> 1), so the "
                    f"checkpointed history cannot be reconstructed"
                )
            session = _build_session(ms.spec)
        if ms.wal is None:
            ms.wal = self._new_wal(ms, start_seq=covered)
        replayed = 0
        for rec in ms.wal.replay(after=covered):
            # Mirror the live path exactly: the server logs before it
            # applies and reports apply failures to that one client
            # while the session carries on — so replay swallows the
            # same (deterministic) failure and continues, landing on
            # the same state the live process had.
            try:
                if rec.kind == "push":
                    session.push_batch(list(rec.deltas))
                elif rec.kind == "flush":
                    session.flush()
                else:  # "repartition"
                    session.repartition()
            # repro: ignore[RPR501] - replay mirrors the live swallow-and-log
            except Exception as exc:
                logger.warning(
                    "session %s: WAL record %d (%s) failed on replay as it "
                    "did live: %s",
                    ms.name,
                    rec.seq,
                    rec.kind,
                    exc,
                )
            replayed += 1
        if replayed:
            self._count("wal_replayed", replayed)
            ms.dirty = True

        def _mark_dirty_locked(summary):
            ms.dirty = True
            # Also the LP-cost meter: every flushed batch reports its
            # simplex pivot total here, whether the flush was policy-
            # triggered inside a push or explicit.
            self._count("lp_pivots", int(summary.lp_pivots))
            self._count("lp_batches")

        session.on_batch = _mark_dirty_locked
        ms.session = session
        return session

    def _touch_locked(self, ms: ManagedSession) -> None:
        ms.last_used = next(self._touch_counter)

    def _locked_session(self, name: str):
        """Context manager: ``(ms, session)`` with ``ms.lock`` held, the
        session materialized, the LRU clock touched and the residency
        budget enforced afterwards."""
        manager = self

        class _Ctx:
            def __enter__(ctx):
                ctx.ms = manager._slot(name)
                ctx.ms.lock.acquire()
                try:
                    was_resident = ctx.ms.resident
                    session = manager._materialize_locked(ctx.ms)
                    if not was_resident:
                        manager._count("reloads")
                    manager._touch_locked(ctx.ms)
                except BaseException:
                    ctx.ms.lock.release()
                    raise
                return ctx.ms, session

            def __exit__(ctx, *exc):
                ctx.ms.lock.release()
                manager._enforce_budget(keep=ctx.ms.name)
                return False

        return _Ctx()

    def _enforce_budget(self, *, keep: str | None = None) -> None:
        """Evict least-recently-used resident sessions beyond the budget.

        Sessions whose lock is currently held (an operation in flight)
        are skipped — the next touch retries.  ``keep`` shields the
        session that was just used from evicting itself.
        """
        if self.max_resident is None:
            return
        while True:
            with self._lock:
                resident = [
                    ms for ms in self._registry.values() if ms.resident
                ]
                if len(resident) <= self.max_resident:
                    return
                candidates = sorted(
                    (ms for ms in resident if ms.name != keep),
                    key=lambda ms: ms.last_used,
                )
            evicted_any = False
            for ms in candidates:
                if not ms.lock.acquire(blocking=False):
                    continue
                try:
                    if ms.resident:
                        self._checkpoint_locked(ms)
                        ms.session = None
                        self._count("evictions")
                        evicted_any = True
                        break
                finally:
                    ms.lock.release()
            if not evicted_any:
                return  # everything else is busy; retry on next touch

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_locked(self, ms: ManagedSession) -> Path:
        """Snapshot + WAL truncate (caller holds ``ms.lock``)."""
        session = self._materialize_locked(ms)
        wal_seq = ms.wal.last_seq if ms.wal is not None else 0
        meta = {
            "service": {
                "name": ms.name,
                "wal_seq": wal_seq,
                "source": ms.spec.get("source"),
            }
        }
        path = session.save(ms.directory / _SNAPSHOT_NAME, user_meta=meta)
        # The snapshot must be durable BEFORE the (fsync'd) WAL is
        # truncated: otherwise a power loss could leave a durably empty
        # log next to a snapshot the kernel never wrote back, losing
        # acknowledged operations.  save() renames atomically but does
        # not fsync; close the gap here.
        if self.fsync:
            _fsync_path(path)
            _fsync_path(ms.directory)
        if ms.wal is not None:
            ms.wal.truncate()
        ms.dirty = False
        self._count("checkpoints")
        return path

    def checkpoint_dirty(self) -> int:
        """One background-worker sweep: checkpoint every dirty resident
        session whose lock is free; returns how many were checkpointed."""
        with self._lock:
            candidates = [
                ms
                for ms in self._registry.values()
                if ms.resident and ms.dirty
            ]
        done = 0
        for ms in candidates:
            if not ms.lock.acquire(blocking=False):
                continue
            try:
                if ms.resident and ms.dirty:
                    self._checkpoint_locked(ms)
                    done += 1
            finally:
                ms.lock.release()
        return done

    def start_worker(self) -> None:
        """Start the background checkpoint worker (no-op when
        ``checkpoint_interval`` is ``None`` or already running)."""
        if self.checkpoint_interval is None or self._worker is not None:
            return
        self._stop.clear()

        def loop():
            while not self._stop.wait(self.checkpoint_interval):
                try:
                    self.checkpoint_dirty()
                # repro: ignore[RPR501] - sweep must outlive one bad session
                except Exception:  # pragma: no cover - best-effort sweep
                    logger.exception("background checkpoint sweep failed")

        self._worker = threading.Thread(
            target=loop, name="repro-service-checkpointer", daemon=True
        )
        self._worker.start()

    def close_all(self) -> None:
        """Stop the worker, checkpoint every resident session, release
        WAL handles.  The manager stays usable (sessions re-materialize)."""
        self._stop.set()
        if self._worker is not None:
            self._worker.join(timeout=10.0)
            self._worker = None
        with self._lock:
            slots = list(self._registry.values())
        for ms in slots:
            with ms.lock:
                if ms.resident:
                    self._checkpoint_locked(ms)
                    ms.session = None
                if ms.wal is not None:
                    ms.wal.close()

    # ------------------------------------------------------------------
    # Operation surface (what the server dispatches to)
    # ------------------------------------------------------------------
    @_timed_op
    def create(self, name: str, args: dict) -> dict:
        """Create a brand-new named session from a creation spec and
        checkpoint it immediately (so recovery never has to redo the
        initial partition)."""
        spec = _normalize_spec(args)
        with self._lock:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ServiceError(
                    f"invalid session name {name!r}", code="bad-request"
                )
            if name in self._registry or (self.root / name / _META_NAME).exists():
                raise ServiceError(
                    f"session {name!r} already exists", code="session-exists"
                )
            directory = self.root / name
            directory.mkdir(parents=True, exist_ok=True)
            _atomic_write_text(
                directory / _META_NAME, json.dumps(spec, indent=2)
            )
            if self.fsync:
                # The rename was atomic but not durable: persist the
                # recipe's data and its directory entry before anything
                # is acknowledged — an empty post-crash meta.json would
                # wedge the name forever.
                _fsync_path(directory / _META_NAME)
                _fsync_path(directory)
            ms = ManagedSession(name=name, directory=directory, spec=spec)
            self._registry[name] = ms
        try:
            with ms.lock:
                session = self._materialize_locked(ms)
                self._checkpoint_locked(ms)
                self._touch_locked(ms)
                info = self._info(ms, session)
        except BaseException:
            # A failed build must not wedge the name: un-register and
            # remove what this create laid down (there is no delete op,
            # so leftovers would make the name unusable forever).
            with self._lock:
                self._registry.pop(name, None)
            if ms.wal is not None:
                ms.wal.close()
            for leftover in (_META_NAME, _SNAPSHOT_NAME, _WAL_NAME):
                path = directory / leftover
                if path.is_dir():
                    # Sharded sessions snapshot as v2 *directories*;
                    # unlink() would raise and leak the half-made name.
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
            try:
                directory.rmdir()  # only if nothing else lives there
            except OSError:
                pass
            raise
        self._count("created")
        self._enforce_budget(keep=name)
        return info

    @_timed_op
    def open(self, name: str) -> dict:
        """Materialize an existing session (possibly recovering snapshot
        + WAL after a crash) and return its info."""
        with self._locked_session(name) as (ms, session):
            self._count("opened")
            return self._info(ms, session)

    @_timed_op
    def push(self, name: str, deltas: list[GraphDelta]) -> dict:
        """Apply one micro-batch of deltas: fold them all, consult the
        flush policy once, log the batch to the WAL, acknowledge.

        Returns ``{"seq", "batched", "num_pending", "flushed", "batch"}``
        where ``batch`` is the flushed-batch summary when the policy
        fired.
        """
        if not deltas:
            raise ServiceError("push requires at least one delta", code="bad-request")
        with self._locked_session(name) as (ms, session):
            # Write-ahead: log + fsync BEFORE applying, so the on-disk
            # record and the in-memory state can never diverge — even a
            # (deterministic) mid-batch apply failure replays to the
            # exact same state.
            seq = ms.wal.append("push", deltas)
            ms.dirty = True
            self._count("pushes", len(deltas))
            self._count("push_batches")
            self._count("wal_records")
            result = session.push_batch(deltas)
            out = {
                "seq": seq,
                "batched": len(deltas),
                "num_pending": session.num_pending,
                "flushed": result is not None,
                "batch": None,
            }
            if result is not None:
                out["batch"] = asdict(session.history()[-1])
            return out

    @_timed_op
    def flush(self, name: str) -> dict:
        """Explicit flush of the pending composed delta (WAL-logged)."""
        with self._locked_session(name) as (ms, session):
            seq = ms.wal.append("flush")
            ms.dirty = True
            self._count("flushes")
            self._count("wal_records")
            result = session.flush()
            out = {"seq": seq, "flushed": result is not None, "batch": None}
            if result is not None:
                out["batch"] = asdict(session.history()[-1])
            return out

    @_timed_op
    def repartition(self, name: str) -> dict:
        """Repartition now — flush pending, or re-run the LP pipeline on
        the current graph (WAL-logged)."""
        with self._locked_session(name) as (ms, session):
            seq = ms.wal.append("repartition")
            ms.dirty = True
            self._count("repartitions")
            self._count("wal_records")
            session.repartition()
            return {"seq": seq, "batch": asdict(session.history()[-1])}

    @_timed_op
    def quality(self, name: str) -> dict:
        """Cut/balance metrics of the current partition (memoized
        session-side between mutations)."""
        with self._locked_session(name) as (ms, session):
            q = session.quality()
            self._count("queries")
            return {
                "num_partitions": q.num_partitions,
                "cut_total": float(q.cut_total),
                "cut_max": float(q.cut_max),
                "cut_min": float(q.cut_min),
                "imbalance": float(q.imbalance),
            }

    @_timed_op
    def query(self, name: str, *, labels: bool = False) -> dict:
        """Session state: info, history, source spec; ``labels=True``
        additionally returns the partition vector as a wire payload."""
        with self._locked_session(name) as (ms, session):
            self._count("queries")
            out = self._info(ms, session)
            out["history"] = [asdict(s) for s in session.history()]
            out["source"] = ms.spec.get("source")
            if labels:
                out["labels"] = arrays_to_wire(
                    {"part": np.asarray(session.part, dtype=np.int64)}
                )
            return out

    @_timed_op
    def save(self, name: str) -> dict:
        """Explicit checkpoint: snapshot now, truncate the WAL."""
        with self._locked_session(name) as (ms, session):
            path = self._checkpoint_locked(ms)
            return {"snapshot": str(path), "wal_seq": ms.wal.last_seq}

    @_timed_op
    def close(self, name: str) -> dict:
        """Checkpoint and release the session's residency (it stays on
        disk; ``open`` brings it back)."""
        with self._locked_session(name) as (ms, session):
            info = self._info(ms, session)
            self._checkpoint_locked(ms)
            ms.session = None
            info["resident"] = False
            return info

    def list_sessions(self) -> list[str]:
        """Every session name known on disk or in memory."""
        names = {
            p.parent.name
            for p in self.root.glob(f"*/{_META_NAME}")
            if _NAME_RE.match(p.parent.name)
        }
        with self._lock:
            names.update(self._registry)
        return sorted(names)

    @_timed_op
    def stats(self) -> dict:
        """Global counters plus per-session residency/backlog info."""
        sessions = {}
        for name in self.list_sessions():
            try:
                ms = self._slot(name)
            except ServiceError:
                continue
            # Snapshot the reference once: eviction in another thread
            # may null ms.session between a `resident` check and a
            # dereference (stats deliberately reads without the lock).
            s = ms.session
            entry = {
                "resident": s is not None,
                "dirty": ms.dirty,
                "wal_seq": ms.wal.last_seq if ms.wal is not None else None,
                "wal_fsyncs": ms.wal.fsync_count if ms.wal is not None else 0,
                "shards": ms.spec.get("shards"),
            }
            if s is not None:
                entry.update(
                    num_vertices=s.graph.num_vertices,
                    num_pending=s.num_pending,
                    num_batches=s.num_batches,
                    num_pushed=s.num_pushed,
                )
                # Sharded sessions with a directory store report shard
                # block cache misses (paging cost of max_resident).
                store = getattr(s.graph, "store", None)
                loads = getattr(store, "load_count", None)
                if loads is not None:
                    entry["block_loads"] = int(loads)
            sessions[name] = entry
        with self._lock:
            counters = dict(self.counters)
            resident = sum(1 for ms in self._registry.values() if ms.resident)
        return {
            "root": str(self.root),
            "max_resident": self.max_resident,
            "resident": resident,
            "counters": counters,
            "sessions": sessions,
        }

    def _info(self, ms: ManagedSession, session: PartitionSession) -> dict:
        return {
            "name": ms.name,
            "num_vertices": session.graph.num_vertices,
            "num_edges": session.graph.num_edges,
            "k": session.k,
            "initial": session.initial,
            "num_pending": session.num_pending,
            "num_batches": session.num_batches,
            "num_pushed": session.num_pushed,
            "resident": True,
            "dirty": ms.dirty,
            "wal_seq": ms.wal.last_seq if ms.wal is not None else 0,
        }

    # Convenience for tests/benchmarks measuring recovery time.
    def drop_resident(self, name: str) -> None:
        """Forget the in-memory state *without* checkpointing — simulates
        a crash for tests (the WAL and last snapshot stay on disk)."""
        with self._lock:
            ms = self._registry.get(name)
        if ms is None:
            return
        with ms.lock:
            ms.session = None
            if ms.wal is not None:
                ms.wal.close()
                ms.wal = None
