"""Session-first public API: one front door for every partitioning scenario.

The paper's IGP/IGPR is a *stateful, long-lived* computation: incremental
repartitioning only pays off when one owner holds the evolving graph, the
carried partition, and the warm LP bases across many deltas.
:func:`open_session` is that owner's constructor and
:class:`PartitionSession` its handle — one object covering

* **one-shot** partitioning (open, :meth:`~PartitionSession.quality`),
* **incremental / streaming** repartitioning
  (:meth:`~PartitionSession.push` deltas, let the
  :class:`~repro.core.streaming.FlushPolicy` batch them,
  :meth:`~PartitionSession.flush` or
  :meth:`~PartitionSession.repartition` explicitly), and
* **resumable** service operation — the headline:
  :meth:`~PartitionSession.save` writes a versioned on-disk snapshot
  (a zip of ``np.savez`` arrays plus a JSON manifest carrying the format
  version, config, and RNG state) that round-trips the CSR graph, the
  current partition, the composed pending delta, the flush policy, the
  batch history, and the name-keyed warm :class:`~repro.lp.revised.Basis`
  snapshots.  :meth:`PartitionSession.load` in a *different process*
  rebuilds the session so its next repartition warm-starts exactly like
  the uninterrupted one (identical partition labels, identical simplex
  pivot counts — asserted by ``benchmarks/bench_session_resume.py``).

The initial partition comes from a small registry
(``"rsb"`` / ``"rcb"`` / ``"inertial"``, extensible via
:func:`register_initial_partitioner`) or is supplied directly with
``initial="given"``.  Internally the session drives one
:class:`~repro.core.streaming.StreamingPartitioner` — the engine — which
in turn owns one :class:`~repro.core.partitioner
.IncrementalGraphPartitioner`, so warm bases carry across batches and
across process restarts alike.

Quick start::

    import repro

    session = repro.open_session(graph, 32, lp_backend="revised")
    session.push(delta)              # batched under the FlushPolicy
    session.flush()                  # drain the tail
    session.save("state.igps")       # ... process dies ...

    session = repro.PartitionSession.load("state.igps")
    session.repartition()            # warm-starts like the original
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro._version import __version__
from repro.core.partitioner import IGPConfig, RepartitionResult
from repro.core.quality import PartitionQuality, evaluate_partition
from repro.core.streaming import BatchRecord, FlushPolicy, StreamingPartitioner
from repro.errors import (
    APIUsageError,
    GraphError,
    PartitioningError,
    SnapshotError,
)
from repro.graph.csr import CSRGraph
from repro.graph.incremental import GraphDelta
from repro.graph.sharded import DirectoryShardStore, ShardedCSRGraph, shard_key
from repro.lp.revised import Basis
from repro.rng import make_rng

__all__ = [
    "BatchSummary",
    "PartitionSession",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "available_initial_partitioners",
    "open_session",
    "register_initial_partitioner",
]

#: Manifest ``format`` tag identifying a file as a session snapshot.
SNAPSHOT_FORMAT = "repro.partition-session"
#: Highest snapshot format version this library writes and understands.
#: v1 is a single zip (monolithic graphs); v2 is a *directory* holding
#: ``manifest.json``, a sequence-numbered session-arrays npz and one npz
#: per shard — untouched shards are never rewritten, so ``save()`` cost
#: scales with churn, and the manifest is the sole commit point.
SNAPSHOT_VERSION = 2

_MANIFEST_NAME = "manifest.json"
_ARRAYS_NAME = "arrays.npz"
_SESSION_ARRAYS_NAME = "session.npz"
_SHARDS_DIR = "shards"


# ----------------------------------------------------------------------
# Initial-partitioner registry
# ----------------------------------------------------------------------
InitialPartitioner = Callable[[CSRGraph, int, np.random.Generator], np.ndarray]

_INITIAL_REGISTRY: dict[str, InitialPartitioner] = {}


def register_initial_partitioner(name: str, fn: InitialPartitioner) -> None:
    """Register ``fn(graph, k, rng) -> part`` under ``name`` for
    :func:`open_session`'s ``initial=`` argument."""
    _INITIAL_REGISTRY[name] = fn


def available_initial_partitioners() -> list[str]:
    """Names accepted by ``open_session(..., initial=...)``.

    Includes the pseudo-entry ``"given"`` (caller supplies ``part=``).
    """
    return sorted(set(_INITIAL_REGISTRY) | {"given"})


def _initial_rsb(graph: CSRGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    from repro.spectral.rsb import rsb_partition

    return rsb_partition(graph, k, seed=rng)


def _initial_rcb(graph: CSRGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    from repro.spectral.rcb import rcb_partition

    return rcb_partition(graph, k)


def _initial_inertial(graph: CSRGraph, k: int, rng: np.random.Generator) -> np.ndarray:
    from repro.spectral.inertial import inertial_partition

    return inertial_partition(graph, k)


register_initial_partitioner("rsb", _initial_rsb)
register_initial_partitioner("rcb", _initial_rcb)
register_initial_partitioner("inertial", _initial_inertial)


# ----------------------------------------------------------------------
# History surface
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSummary:
    """One repartition batch as the session's durable history records it.

    Unlike the engine's :class:`~repro.core.streaming.BatchRecord` (which
    retains the composed delta and the full
    :class:`~repro.core.partitioner.RepartitionResult`), a summary is a
    flat, JSON-serializable row — it survives :meth:`PartitionSession
    .save` / ``load`` and never grows with the graph.
    """

    num_deltas: int
    trigger: str
    fallback: bool
    wall_s: float
    cut_total: float
    imbalance: float
    num_stages: int
    lp_pivots: int
    #: Per-phase wall seconds of the flush (``assign`` / ``layering`` /
    #: ``lp`` / ``move`` / ``refine`` plus ``apply``).  Defaulted so
    #: manifests written before the profile existed still load.
    phases: dict = field(default_factory=dict)

    @classmethod
    def from_record(cls, rec: BatchRecord) -> "BatchSummary":
        """Condense an engine batch record."""
        q = rec.result.quality_final
        return cls(
            num_deltas=rec.num_deltas,
            trigger=rec.trigger,
            fallback=rec.fallback,
            wall_s=float(rec.wall_s),
            cut_total=float(q.cut_total),
            imbalance=float(q.imbalance),
            num_stages=rec.result.num_stages,
            lp_pivots=int(sum(s.lp_iterations for s in rec.result.stages)),
            phases=dict(rec.phases),
        )

    def summary(self) -> str:
        """Human-readable one-liner for logs."""
        return (
            f"batch[{self.num_deltas} deltas, {self.trigger}] "
            f"cut={self.cut_total:.0f} imbal={self.imbalance:.3f} "
            f"stages={self.num_stages} pivots={self.lp_pivots}"
            f"{' (chunked fallback)' if self.fallback else ''}"
        )


# ----------------------------------------------------------------------
# The session facade
# ----------------------------------------------------------------------
class PartitionSession:
    """A durable partitioning session (construct via :func:`open_session`
    or :meth:`load`).

    The session owns a :class:`~repro.core.streaming.StreamingPartitioner`
    engine and adds the service-shaped surface: initial partitioning, a
    stable :meth:`history` that survives restarts, and
    :meth:`save` / :meth:`load` snapshots.
    """

    def __init__(
        self,
        engine: StreamingPartitioner,
        *,
        initial: str = "given",
        rng: np.random.Generator | None = None,
        _history: list[BatchSummary] | None = None,
        _num_pushed: int = 0,
    ):
        self._sp = engine
        self.initial = initial
        self.rng = rng if rng is not None else make_rng()
        self.user_meta: dict = {}
        self._summaries: list[BatchSummary] = list(_history or [])
        self._synced_batches = engine.num_batches
        self._num_pushed = int(_num_pushed)
        self._quality_cache: PartitionQuality | None = None
        #: Optional observer called with each new :class:`BatchSummary`
        #: right after a batch is flushed (policy-triggered or explicit).
        #: Service layers use it to learn about flushes that fire *inside*
        #: a push so they can mark the session dirty for checkpointing.
        self.on_batch: Callable[[BatchSummary], None] | None = None

    # -- state views ----------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """The current (post-flush) graph."""
        return self._sp.graph

    @property
    def part(self) -> np.ndarray:
        """The current partition vector."""
        return self._sp.part

    @property
    def k(self) -> int:
        """Number of partitions."""
        return self._sp.config.num_partitions

    @property
    def config(self) -> IGPConfig:
        """The engine's :class:`~repro.core.partitioner.IGPConfig`."""
        return self._sp.config

    @property
    def policy(self) -> FlushPolicy:
        """The active flush policy."""
        return self._sp.policy

    @property
    def num_pending(self) -> int:
        """Deltas accumulated since the last flush."""
        return self._sp.num_pending

    @property
    def pending_delta(self) -> GraphDelta | None:
        """The composed pending delta (``None`` when nothing is pending)."""
        return self._sp.pending_delta

    @property
    def warm_bases(self) -> tuple:
        """Carried ``(balance_basis, refine_basis)`` LP bases."""
        return self._sp.warm_bases

    def reset_warm_start(self) -> None:
        """Drop carried LP bases; the next repartition solves cold."""
        self._sp.reset_warm_start()

    @property
    def num_batches(self) -> int:
        """Repartition batches flushed over the session's whole life."""
        return self._sp.num_batches

    @property
    def num_pushed(self) -> int:
        """Deltas pushed over the session's whole life (across restarts)."""
        return self._num_pushed

    def total_wall_s(self) -> float:
        """Wall-clock spent repartitioning (running total)."""
        return self._sp.total_wall_s()

    # -- stream consumption ---------------------------------------------
    def _sync_history(self) -> None:
        new = self._sp.num_batches - self._synced_batches
        if new > 0:
            fresh = [BatchSummary.from_record(r) for r in self._sp.history[-new:]]
            self._summaries.extend(fresh)
            self._synced_batches = self._sp.num_batches
            if self.on_batch is not None:
                for summary in fresh:
                    self.on_batch(summary)

    def push(self, delta: GraphDelta) -> RepartitionResult | None:
        """Fold one delta into the pending batch; flush if the policy
        fires.  Returns the batch result on flush, else ``None``."""
        self._quality_cache = None
        result = self._sp.push(delta)
        self._num_pushed += 1
        self._sync_history()
        return result

    def push_batch(self, deltas) -> RepartitionResult | None:
        """Fold many deltas as *one* batch: the flush policy is consulted
        once, after every delta is folded, instead of once per delta.

        This is the service layer's throughput lever — N concurrent
        client pushes composed into a single batch cost at most one LP
        solve — but it changes flush granularity: a ``max_pending=1``
        policy flushes once per *batch* here, not once per delta.
        Returns the flush result if the policy fired, else ``None``.
        """
        self._quality_cache = None
        count = 0
        for delta in deltas:
            self._sp.fold_pending(delta)
            count += 1
        self._num_pushed += count
        result = self._sp.maybe_flush() if count else None
        self._sync_history()
        return result

    def extend(self, deltas) -> list[RepartitionResult]:
        """Push many deltas; returns the results of the flushes that fired."""
        results = []
        for d in deltas:
            res = self.push(d)
            if res is not None:
                results.append(res)
        return results

    def flush(self) -> RepartitionResult | None:
        """Apply the pending composed delta and repartition; ``None`` when
        nothing is pending."""
        self._quality_cache = None
        result = self._sp.flush()
        self._sync_history()
        return result

    def repartition(self) -> RepartitionResult:
        """Repartition *now*: flush the pending batch, or re-run the LP
        pipeline on the current graph when nothing is pending."""
        self._quality_cache = None
        result = self._sp.repartition()
        self._sync_history()
        return result

    # -- inspection -----------------------------------------------------
    def quality(self) -> PartitionQuality:
        """Cut/balance metrics of the current partition.

        Memoized between mutations (any :meth:`push` / :meth:`flush` /
        :meth:`repartition` invalidates the cache).  The metrics read the
        engine's :attr:`~repro.core.streaming.StreamingPartitioner
        .quality_view`: for a sharded session with a live
        :class:`~repro.graph.frame.BoundaryFrame` that is boundary rows
        only, with no shard paging and bit-identical values.
        """
        if self._quality_cache is None:
            self._quality_cache = evaluate_partition(
                self._sp.quality_view, self.part, self.k
            )
        return self._quality_cache

    def history(self) -> list[BatchSummary]:
        """All batch summaries, oldest first (survives save/load)."""
        return list(self._summaries)

    def describe(self) -> str:
        """Multi-line session log: state line, quality, one line per batch."""
        q = self.quality()
        lines = [
            f"PartitionSession: |V|={self.graph.num_vertices} "
            f"|E|={self.graph.num_edges} k={self.k} initial={self.initial} "
            f"batches={self.num_batches} pending={self.num_pending} "
            f"pushed={self.num_pushed}",
            f"  quality: {q}",
        ]
        lines.extend(f"  {s.summary()}" for s in self._summaries)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionSession(|V|={self.graph.num_vertices}, k={self.k}, "
            f"batches={self.num_batches}, pending={self.num_pending})"
        )

    # -- snapshots ------------------------------------------------------
    def _state_arrays(self) -> tuple[dict[str, np.ndarray], dict]:
        """Non-graph session state as savez-ready arrays plus the
        ``has`` manifest flags (shared by the v1 and v2 writers)."""
        sp = self._sp
        arrays: dict[str, np.ndarray] = {"part": sp.part}
        for key, value in sp.policy.to_arrays().items():
            arrays[f"policy.{key}"] = value
        pending = sp.pending_delta
        if pending is not None:
            for key, value in pending.to_arrays().items():
                arrays[f"pending.{key}"] = value
        balance_basis, refine_basis = sp.warm_bases
        if balance_basis is not None:
            for key, value in balance_basis.to_arrays().items():
                arrays[f"basis.balance.{key}"] = value
        if refine_basis is not None:
            for key, value in refine_basis.to_arrays().items():
                arrays[f"basis.refine.{key}"] = value
        has = {
            "pending": pending is not None,
            "balance_basis": balance_basis is not None,
            "refine_basis": refine_basis is not None,
        }
        return arrays, has

    def _manifest(self, version: int, has: dict, user_meta: dict | None) -> dict:
        sp = self._sp
        return {
            "format": SNAPSHOT_FORMAT,
            "version": version,
            "repro_version": __version__,
            "config": asdict(sp.config),
            "engine": {
                "strict": sp.strict,
                "accumulate_weights": sp.accumulate_weights,
                "chunk_fraction": sp.chunk_fraction,
                "max_history": sp.max_history,
                "num_batches": sp.num_batches,
                "total_wall_s": sp.total_wall_s(),
                "num_pending": sp.num_pending,
            },
            "session": {
                "initial": self.initial,
                "num_pushed": self._num_pushed,
            },
            "rng_state": self.rng.bit_generator.state,
            "history": [asdict(s) for s in self._summaries],
            "has": has,
            "user_meta": dict(user_meta if user_meta is not None else self.user_meta),
        }

    def save(self, path, *, user_meta: dict | None = None) -> Path:
        """Write a durable snapshot of the whole session to ``path``.

        For a monolithic graph this is a single zip archive (format v1):
        ``arrays.npz`` (graph, partition vector, composed pending delta,
        warm bases, flush policy) plus ``manifest.json`` (format version,
        :class:`IGPConfig`, RNG state, batch history, counters).  For a
        :class:`~repro.graph.sharded.ShardedCSRGraph` the snapshot is a
        *directory* (format v2): ``manifest.json``, a sequence-numbered
        session-arrays npz and one npz per shard under ``shards/`` —
        block files are immutable per revision, so a re-``save()`` after
        a batch only writes the shards that batch touched (plus the
        small metadata files), and ``save()`` cost scales with churn
        rather than graph size.

        ``user_meta`` is an arbitrary JSON-serializable dict stored
        verbatim for the caller — the CLI uses it to remember which delta
        stream the session was consuming.  Returns the path written.
        Load with :meth:`load` — from any process; the restored session's
        next repartition warm-starts exactly like this one's would have.
        """
        path = Path(path)
        if isinstance(self.graph, ShardedCSRGraph):
            return self._save_v2_dir(path, user_meta)
        sp = self._sp
        arrays, has = self._state_arrays()
        for key, value in sp.graph.to_arrays().items():
            arrays[f"graph.{key}"] = value
        manifest = self._manifest(1, has, user_meta)

        buf = io.BytesIO()
        np.savez(buf, **arrays)
        # Write-then-rename so a crash mid-save can never destroy the
        # previous good snapshot (save() is routinely pointed at the
        # same path again and again by long-lived services).
        tmp = path.with_name(path.name + ".tmp")
        try:
            with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
                zf.writestr(
                    _MANIFEST_NAME,
                    json.dumps(manifest, indent=2, default=_json_safe),
                )
                zf.writestr(_ARRAYS_NAME, buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def _save_v2_dir(self, path: Path, user_meta: dict | None) -> Path:
        """Sharded (format v2) snapshot: a directory with per-shard npz
        blocks, written append-only for untouched shards.

        The manifest is the *only* commit point: the session arrays go
        to a fresh sequence-numbered file and block revisions are
        immutable, so until the new ``manifest.json`` lands atomically
        the previous manifest still references a complete, consistent
        set of files — a crash anywhere mid-save leaves the old
        snapshot loadable.
        """
        graph: ShardedCSRGraph = self.graph
        shards_dir = path / _SHARDS_DIR
        shards_dir.mkdir(parents=True, exist_ok=True)

        arrays, has = self._state_arrays()
        for key, value in graph.meta_arrays().items():
            arrays[f"sharded.{key}"] = value
        existing_seq = [
            int(p.stem.split("_")[1])
            for p in path.glob("session_*.npz")
            if p.stem.split("_")[1].isdigit()
        ]
        arrays_name = f"session_{max(existing_seq, default=0) + 1:06d}.npz"
        _atomic_savez(path / arrays_name, arrays)

        # Copy the referenced block revisions that are not already on
        # disk.  When the session's store *is* this snapshot directory
        # (the in-place durable layout `load` sets up), every referenced
        # block already exists and nothing is copied at all.
        store = graph.store
        in_place = (
            isinstance(store, DirectoryShardStore)
            and Path(store.directory).resolve() == shards_dir.resolve()
        )
        if in_place:
            # Write-behind stores may still hold referenced revisions in
            # memory; they must be on disk before the manifest commits.
            store.sync()
        referenced = set()
        for sid in range(graph.num_shards):
            key = shard_key(sid, int(graph.revs[sid]))
            referenced.add(key)
            target = shards_dir / f"{key}.npz"
            if in_place or target.exists():
                continue
            _atomic_savez(target, store.get(key))

        manifest = self._manifest(2, has, user_meta)
        manifest["sharded"] = {
            "num_shards": graph.num_shards,
            "max_resident": getattr(store, "max_resident", None),
            "arrays_file": arrays_name,
        }
        _atomic_write_text(
            path / _MANIFEST_NAME,
            json.dumps(manifest, indent=2, default=_json_safe),
        )
        # Only after the manifest atomically points at the new arrays
        # file and block revisions is it safe to prune the superseded
        # ones.
        for stale in path.glob("session_*.npz"):
            if stale.name != arrays_name:
                stale.unlink()
        for stale in shards_dir.glob("shard_*.npz"):
            if stale.stem not in referenced:
                if in_place:
                    store.delete(stale.stem)  # keeps the LRU cache in sync
                else:
                    stale.unlink()
        # The manifest now pins exactly the current revisions; the
        # engine must not gc them out from under it at future flushes.
        self._sp.pinned_revs = np.asarray(graph.revs, dtype=np.int64).copy()
        return path

    @staticmethod
    def _check_manifest(manifest, path) -> None:
        if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"{path} is not a session snapshot (manifest format "
                f"{manifest.get('format')!r} != {SNAPSHOT_FORMAT!r})"
                if isinstance(manifest, dict)
                else f"{path} manifest is not a JSON object"
            )
        version = manifest.get("version")
        if not isinstance(version, int) or version < 1:
            raise SnapshotError(f"{path} manifest carries no valid format version")
        if version > SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path} uses snapshot format version {version}, but this "
                f"build of repro only understands <= {SNAPSHOT_VERSION}; "
                f"upgrade repro to load it"
            )

    @classmethod
    def load(cls, path, *, max_resident: int | None = None) -> "PartitionSession":
        """Rebuild a session from a :meth:`save` snapshot.

        ``path`` may be a v1 zip file or a v2 snapshot *directory* (the
        sharded layout); for v2, ``max_resident`` caps how many shard
        blocks the re-attached :class:`~repro.graph.sharded
        .DirectoryShardStore` keeps decoded in memory (default: the
        value recorded at save time).  A v2-loaded session keeps using
        the snapshot directory as its live shard store, so subsequent
        flushes write block revisions there and ``save()`` back to the
        same path only rewrites metadata plus touched shards.

        Raises :class:`~repro.errors.SnapshotError` for files that are not
        session snapshots, corrupted archives/manifests, and format
        versions newer than :data:`SNAPSHOT_VERSION`.  The graph arrays
        are re-validated structurally, so bit-rot fails here rather than
        corrupting a later repartition.
        """
        path = Path(path)
        if path.is_dir():
            return cls._load_v2_dir(path, max_resident)
        try:
            with zipfile.ZipFile(path) as zf:
                names = set(zf.namelist())
                if _MANIFEST_NAME not in names or _ARRAYS_NAME not in names:
                    raise SnapshotError(
                        f"{path} is not a session snapshot (missing "
                        f"{_MANIFEST_NAME} or {_ARRAYS_NAME})"
                    )
                manifest = json.loads(zf.read(_MANIFEST_NAME).decode("utf-8"))
                npz_bytes = zf.read(_ARRAYS_NAME)
        except SnapshotError:
            raise
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise SnapshotError(
                f"cannot read session snapshot {path}: {exc}"
            ) from exc

        cls._check_manifest(manifest, path)

        try:
            npz = np.load(io.BytesIO(npz_bytes))
            arrays = {name: npz[name] for name in npz.files}

            def sub(prefix: str) -> dict[str, np.ndarray]:
                plen = len(prefix)
                return {
                    name[plen:]: value
                    for name, value in arrays.items()
                    if name.startswith(prefix)
                }

            graph = CSRGraph.from_arrays(sub("graph."), validate=True)
            return cls._rebuild_session(manifest, arrays, graph)
        except (
            KeyError,
            TypeError,
            ValueError,
            GraphError,
            PartitioningError,
            zipfile.BadZipFile,  # bit-rotted inner npz member
        ) as exc:
            raise SnapshotError(
                f"session snapshot {path} is corrupted or incomplete: {exc}"
            ) from exc

    @classmethod
    def _load_v2_dir(
        cls, path: Path, max_resident: int | None
    ) -> "PartitionSession":
        """Load a sharded (format v2) snapshot directory."""
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise SnapshotError(
                f"{path} is not a session snapshot directory (missing "
                f"{_MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"cannot read session snapshot {path}: {exc}"
            ) from exc
        cls._check_manifest(manifest, path)
        arrays_path = path / str(
            (manifest.get("sharded") or {}).get(
                "arrays_file", _SESSION_ARRAYS_NAME
            )
        )
        if not arrays_path.is_file():
            raise SnapshotError(
                f"session snapshot {path} is missing its arrays file "
                f"{arrays_path.name}"
            )
        try:
            with np.load(arrays_path) as npz:
                arrays = {name: npz[name] for name in npz.files}
            if max_resident is None:
                max_resident = (manifest.get("sharded") or {}).get("max_resident")
            store = DirectoryShardStore(
                path / _SHARDS_DIR, max_resident=max_resident
            )
            graph = ShardedCSRGraph.from_meta_arrays(
                store,
                {
                    name[len("sharded."):]: value
                    for name, value in arrays.items()
                    if name.startswith("sharded.")
                },
            )
            for sid in range(graph.num_shards):
                if shard_key(sid, int(graph.revs[sid])) not in store:
                    raise SnapshotError(
                        f"session snapshot {path} is missing the block for "
                        f"shard {sid} (revision {int(graph.revs[sid])})"
                    )
            return cls._rebuild_session(manifest, arrays, graph)
        except SnapshotError:
            raise
        except (
            KeyError,
            TypeError,
            ValueError,
            GraphError,
            PartitioningError,
            zipfile.BadZipFile,
        ) as exc:
            raise SnapshotError(
                f"session snapshot {path} is corrupted or incomplete: {exc}"
            ) from exc

    @classmethod
    def _rebuild_session(
        cls, manifest: dict, arrays: dict, graph
    ) -> "PartitionSession":
        """Common v1/v2 reconstruction from manifest + state arrays +
        an already-rebuilt graph."""

        def sub(prefix: str) -> dict[str, np.ndarray]:
            plen = len(prefix)
            return {
                name[plen:]: value
                for name, value in arrays.items()
                if name.startswith(prefix)
            }

        part = np.asarray(arrays["part"], dtype=np.int64)
        config_dict = dict(manifest["config"])
        config_dict["gamma_schedule"] = tuple(config_dict["gamma_schedule"])
        config = IGPConfig(**config_dict)
        policy = FlushPolicy.from_arrays(sub("policy."))
        eng = manifest["engine"]
        engine = StreamingPartitioner(
            graph,
            part,
            config,
            policy=policy,
            strict=bool(eng["strict"]),
            accumulate_weights=bool(eng["accumulate_weights"]),
            chunk_fraction=float(eng["chunk_fraction"]),
            max_history=eng["max_history"],
        )
        has = manifest.get("has", {})
        pending = (
            GraphDelta.from_arrays(sub("pending.")) if has.get("pending") else None
        )
        balance_basis = (
            Basis.from_arrays(sub("basis.balance."))
            if has.get("balance_basis")
            else None
        )
        refine_basis = (
            Basis.from_arrays(sub("basis.refine."))
            if has.get("refine_basis")
            else None
        )
        engine.restore_state(
            pending=pending,
            num_pending=int(eng["num_pending"]),
            warm_bases=(balance_basis, refine_basis),
            num_batches=int(eng["num_batches"]),
            total_wall_s=float(eng["total_wall_s"]),
        )
        if isinstance(graph, ShardedCSRGraph):
            # The snapshot's manifest references exactly these block
            # revisions; pin them so post-load flushes cannot gc them.
            engine.pinned_revs = np.asarray(graph.revs, dtype=np.int64).copy()
        rng = make_rng(0)
        rng.bit_generator.state = manifest["rng_state"]
        session = cls(
            engine,
            initial=str(manifest["session"]["initial"]),
            rng=rng,
            _history=[BatchSummary(**row) for row in manifest["history"]],
            _num_pushed=int(manifest["session"]["num_pushed"]),
        )
        session.user_meta = dict(manifest.get("user_meta") or {})
        return session


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` via write-then-rename (crash leaves the old file)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    """Text write via write-then-rename (crash leaves the old file)."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _json_safe(obj):
    """JSON encoder fallback: numpy scalars -> python scalars."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    # repro: ignore[RPR201] - json.dumps default= protocol requires TypeError
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def open_session(
    graph_or_mesh,
    k: int,
    *,
    config: IGPConfig | None = None,
    initial: str = "rsb",
    part: np.ndarray | None = None,
    policy: FlushPolicy | None = None,
    seed: int | np.random.Generator | None = None,
    strict: bool = True,
    accumulate_weights: bool = False,
    chunk_fraction: float = 0.5,
    max_history: int | None = None,
    **kwargs,
) -> PartitionSession:
    """Open a :class:`PartitionSession` over ``graph_or_mesh`` with ``k``
    partitions — the public entry point for every scenario.

    Parameters
    ----------
    graph_or_mesh:
        a :class:`~repro.graph.csr.CSRGraph`, a
        :class:`~repro.graph.sharded.ShardedCSRGraph` (the session then
        routes deltas shard-locally and writes format-v2 directory
        snapshots), or a
        :class:`~repro.mesh.triangulation.TriangularMesh` (converted via
        :func:`~repro.mesh.dual.node_graph`).
    k:
        number of partitions.  When a ``config`` is passed its
        ``num_partitions`` must agree.
    config / ``**kwargs``:
        an :class:`~repro.core.partitioner.IGPConfig`, or keyword
        overrides for one (e.g. ``lp_backend="revised"``,
        ``refine=True``) — exactly one of the two forms.
    initial:
        initial-partitioner name from the registry (``"rsb"`` default,
        ``"rcb"``, ``"inertial"``; extensible via
        :func:`register_initial_partitioner`) or ``"given"`` to use the
        supplied ``part``.
    part:
        the starting partition vector; required (and only accepted) with
        ``initial="given"``.  ``-1`` entries are resolved at the first
        flush.
    policy:
        the :class:`~repro.core.streaming.FlushPolicy` batching pushed
        deltas (defaults to the weight/imbalance triggers).
    seed:
        RNG seed for the initial partitioner; the generator's state is
        carried in snapshots.
    strict / accumulate_weights / chunk_fraction / max_history:
        forwarded to the :class:`~repro.core.streaming
        .StreamingPartitioner` engine (see there).
    """
    graph = _coerce_graph(graph_or_mesh)
    if config is not None:
        if kwargs:
            raise APIUsageError(
                "pass either a config object or keyword overrides"
            )
        if config.num_partitions != k:
            raise PartitioningError(
                f"open_session(k={k}) conflicts with "
                f"config.num_partitions={config.num_partitions}"
            )
    else:
        if "num_partitions" in kwargs:
            raise APIUsageError("pass k positionally, not num_partitions=")
        config = IGPConfig(num_partitions=k, **kwargs)

    rng = make_rng(seed)
    if initial == "given":
        if part is None:
            raise PartitioningError(
                'initial="given" requires the part= starting vector'
            )
        part = np.asarray(part, dtype=np.int64)
    else:
        if part is not None:
            raise PartitioningError(
                'part= is only accepted together with initial="given"'
            )
        try:
            partitioner = _INITIAL_REGISTRY[initial]
        except KeyError:
            raise PartitioningError(
                f"unknown initial partitioner {initial!r}; available: "
                f"{available_initial_partitioners()}"
            ) from None
        # Registry partitioners expect a monolithic graph; sharded
        # inputs are assembled transiently for the one initial solve.
        initial_graph = (
            graph.to_csr() if isinstance(graph, ShardedCSRGraph) else graph
        )
        part = partitioner(initial_graph, k, rng)

    engine = StreamingPartitioner(
        graph,
        part,
        config,
        policy=policy,
        strict=strict,
        accumulate_weights=accumulate_weights,
        chunk_fraction=chunk_fraction,
        max_history=max_history,
    )
    return PartitionSession(engine, initial=initial, rng=rng)


def _coerce_graph(graph_or_mesh):
    """Accept a (sharded) CSR graph directly or convert a triangular mesh."""
    if isinstance(graph_or_mesh, (CSRGraph, ShardedCSRGraph)):
        return graph_or_mesh
    if hasattr(graph_or_mesh, "points") and hasattr(graph_or_mesh, "triangles"):
        from repro.mesh.dual import node_graph

        return node_graph(graph_or_mesh)
    raise PartitioningError(
        f"open_session expects a CSRGraph, a ShardedCSRGraph or a "
        f"TriangularMesh, got {type(graph_or_mesh).__name__}"
    )
