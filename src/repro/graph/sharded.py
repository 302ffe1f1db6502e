"""Sharded CSR graphs: per-shard adjacency blocks behind the CSRGraph read API.

A :class:`~repro.graph.csr.CSRGraph` is a single in-memory monolith, which
caps a partitioning session at one address space.  :class:`ShardedCSRGraph`
stores the same graph as ``num_shards`` per-shard CSR blocks behind a
pluggable :class:`ShardStore` — :class:`InMemoryShardStore` for tests and
small sessions, :class:`DirectoryShardStore` for graphs larger than RAM
(each shard is one ``.npz`` file, ``np.load``-ed on demand with an LRU of
resident shards).

Design notes
------------
* **Birth ids.**  Every vertex gets a *birth id* when it enters the graph,
  and birth ids are never reused or renumbered.  Shard blocks reference
  vertices exclusively by birth id, so a delta that deletes vertices only
  rewrites the shards it touches — every other block stays byte-identical,
  which is what makes snapshot format v2 append-only (and ``save()`` cost
  proportional to churn, not graph size).  The *current* (dense) vertex
  ids of the monolithic frame are recovered from the ``births`` vector:
  survivors keep their relative order and additions are appended with
  fresh (larger) birth ids, so current order always equals increasing
  birth order and the two id spaces stay in bijection.
* **Halo entries.**  Each shard block stores the full adjacency rows of
  its owned vertices; a cut edge therefore appears in both endpoint
  shards, and the foreign endpoints form the shard's *halo* (ghost set,
  :meth:`ShardBlock.halo_births`).  This mirrors how distributed
  partitioners (ParMETIS / KaHIP-style) materialise boundary structure.
* **Revisioned blocks.**  A shard's block is stored under an immutable
  ``(shard, revision)`` key; :meth:`ShardedCSRGraph.apply_delta` writes
  *new* revisions for the touched shards and leaves the old ones in
  place, so the pre-delta handle stays valid until the caller garbage
  collects it (:meth:`drop_blocks_not_in`).  Crash-safety for on-disk
  sessions falls out: a saved manifest keeps referencing block files that
  still exist.

* **One splice kernel.**  :meth:`ShardedCSRGraph.apply_delta` validates
  a delta and splices each touched block with the helpers of
  :mod:`repro.graph.incremental`; the monolithic
  :func:`~repro.graph.incremental.apply_delta` is the same kernel run on
  one block whose births are the vertex ids.

The monolithic equivalence contract (tested property): splitting a graph,
routing a delta through :meth:`ShardedCSRGraph.apply_delta` and
re-assembling with :meth:`to_csr` yields exactly the graph (ids, weights,
coordinates) that :func:`repro.graph.incremental.apply_delta` produces on
the monolith, together with the same ``old_to_new`` index mapping.  With
one kernel under both, the property test checks the shard routing and
the per-block bookkeeping, not a second copy of the splice.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    GraphValidationError,
    ValidationError,
)
from repro.graph.csr import CSRGraph, _ramp, _row_gather
from repro.graph.incremental import (
    GraphDelta,
    IncrementalResult,
    _added_arcs,
    _added_coords,
    _added_eweights,
    _added_vweights,
    _check_refs,
    _check_splice,
    _renumber,
    _splice,
)
from repro.obs import get_tracer

__all__ = [
    "DirectoryShardStore",
    "InMemoryShardStore",
    "ShardBlock",
    "ShardedCSRGraph",
    "ShardedIncrementalResult",
    "shard_key",
]

_META_KEY = "meta"


def shard_key(sid: int, rev: int) -> str:
    """Store key of shard ``sid`` at revision ``rev`` (immutable blocks)."""
    return f"shard_{sid:05d}_r{rev}"


# ----------------------------------------------------------------------
# Shard stores
# ----------------------------------------------------------------------
class InMemoryShardStore:
    """Dict-backed shard store (the default for tests and small graphs)."""

    #: In-memory blocks vanish with the process; flushes may gc eagerly.
    persistent = False

    def __init__(self):
        self._blocks: dict[str, dict[str, np.ndarray]] = {}

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store ``arrays`` under ``key`` (overwrites)."""
        self._blocks[key] = dict(arrays)

    def get(self, key: str) -> dict[str, np.ndarray]:
        """Fetch the arrays stored under ``key``."""
        try:
            return self._blocks[key]
        except KeyError:
            raise GraphError(f"shard store has no block {key!r}") from None

    def delete(self, key: str) -> None:
        """Drop ``key`` (missing keys are ignored)."""
        self._blocks.pop(key, None)

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        return sorted(self._blocks)

    def __contains__(self, key: str) -> bool:
        return key in self._blocks


class DirectoryShardStore:
    """On-disk shard store: one ``.npz`` file per block, LRU-resident.

    Blocks are written atomically (write-then-rename) and ``np.load``-ed
    on demand; at most ``max_resident`` blocks are kept decoded in memory
    (``None`` = unbounded), so a graph can be far larger than RAM as long
    as individual shards fit.  :attr:`load_count` counts cache misses
    (actual file loads) — benchmarks use it to prove the LRU works.

    With ``defer_writes=True`` the store runs write-behind: :meth:`put`
    parks the arrays in a pending set instead of serialising an ``.npz``
    immediately, and :meth:`sync` flushes whatever is still pending.
    Streaming engines delete superseded block revisions at every flush,
    so intermediate revisions that die before the next :meth:`sync` are
    never serialised at all — the dominant I/O cost of a rapid flush
    cadence.  The trade-off is durability (pending blocks live only in
    memory until :meth:`sync`) and memory (pending blocks stay decoded),
    which is why it is opt-in; session snapshots call :meth:`sync`
    before committing a manifest, keeping saved snapshots complete.
    """

    persistent = True

    def __init__(
        self,
        directory,
        *,
        max_resident: int | None = None,
        defer_writes: bool = False,
    ):
        if max_resident is not None and max_resident < 1:
            raise ValidationError("max_resident must be >= 1 (or None)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.defer_writes = defer_writes
        self.load_count = 0
        #: Per-key cache-miss loads (``load_count`` split by block key).
        #: The shard-native property tests assert a flush touching k of
        #: N shards records zero loads for the other N−k block keys.
        self.load_counts: dict[str, int] = {}
        self._cache: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._pending: dict[str, dict[str, np.ndarray]] = {}

    @property
    def resident_count(self) -> int:
        """Blocks currently decoded in memory."""
        return len(self._cache)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _admit(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        self._cache[key] = arrays
        self._cache.move_to_end(key)
        if self.max_resident is not None and len(self._cache) > self.max_resident:
            with get_tracer().span("shard.evict") as sp:
                evicted = 0
                while len(self._cache) > self.max_resident:
                    self._cache.popitem(last=False)
                    evicted += 1
                sp.set("evicted", evicted)

    def _write(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        path = self._path(key)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def put(self, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Write ``arrays`` to ``key``'s file atomically and admit to LRU
        (write-behind when ``defer_writes``: parked until :meth:`sync`)."""
        arrays = dict(arrays)
        if self.defer_writes:
            self._pending[key] = arrays
        else:
            self._write(key, arrays)
        self._admit(key, arrays)

    def sync(self) -> int:
        """Flush pending write-behind blocks to disk; returns how many
        files were written.  A no-op unless ``defer_writes`` is set."""
        written = 0
        for key, arrays in self._pending.items():
            self._write(key, arrays)
            written += 1
        self._pending.clear()
        return written

    def get(self, key: str) -> dict[str, np.ndarray]:
        """Fetch ``key``'s arrays, loading from disk on an LRU miss."""
        if key in self._cache:
            self._cache.move_to_end(key)
            return self._cache[key]
        pending = self._pending.get(key)
        if pending is not None:
            # Evicted from the LRU before ever reaching disk: re-admit
            # from the pending set (not a load — no file was read).
            self._admit(key, pending)
            return pending
        path = self._path(key)
        if not path.exists():
            raise GraphError(f"shard store has no block {key!r} ({path})")
        with get_tracer().span("shard.load", {"key": key}):
            with np.load(path) as npz:
                arrays = {name: npz[name] for name in npz.files}
        self.load_count += 1
        self.load_counts[key] = self.load_counts.get(key, 0) + 1
        self._admit(key, arrays)
        return arrays

    def delete(self, key: str) -> None:
        """Remove ``key``'s file, cache and pending entries (missing
        keys ignored).  Deleting a block that never left the pending set
        is pure bookkeeping — the write-behind win for short-lived
        revisions."""
        self._cache.pop(key, None)
        self._pending.pop(key, None)
        self._path(key).unlink(missing_ok=True)

    def keys(self) -> list[str]:
        """All stored keys (directory listing plus pending), sorted."""
        on_disk = {p.stem for p in self.directory.glob("*.npz")}
        return sorted(on_disk | set(self._pending))

    def __contains__(self, key: str) -> bool:
        return (
            key in self._cache
            or key in self._pending
            or self._path(key).exists()
        )


# ----------------------------------------------------------------------
# Shard blocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardBlock:
    """One shard's CSR block, keyed by birth ids.

    ``births`` lists the owned vertices (strictly increasing);
    ``xadj``/``adj`` are their full adjacency rows with *birth-id*
    targets (owned or halo), each row sorted by target; ``eweights``
    aligns with ``adj``; ``vweights`` (and optional ``coords``) align
    with ``births``.
    """

    births: np.ndarray
    xadj: np.ndarray
    adj: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray
    coords: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        """Owned vertices in this shard."""
        return len(self.births)

    @property
    def num_arcs(self) -> int:
        """Stored arcs (each undirected edge contributes one arc per
        endpoint, so a cut edge is mirrored across two shards)."""
        return len(self.adj)

    def halo_births(self) -> np.ndarray:
        """Birth ids referenced by this shard but owned elsewhere."""
        return np.setdiff1d(self.adj, self.births)

    def arc_sources(self) -> np.ndarray:
        """Birth id of each arc's source (aligned with :attr:`adj`)."""
        return np.repeat(self.births, np.diff(self.xadj))

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat ``{name: array}`` view, ``np.savez``-ready; round-trips
        exactly through :meth:`from_arrays`."""
        arrays = {
            "births": self.births,
            "xadj": self.xadj,
            "adj": self.adj,
            "eweights": self.eweights,
            "vweights": self.vweights,
        }
        if self.coords is not None:
            arrays["coords"] = self.coords
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "ShardBlock":
        """Rebuild a block from a :meth:`to_arrays` dict."""
        missing = {"births", "xadj", "adj", "eweights", "vweights"} - set(arrays)
        if missing:
            raise GraphError(
                f"shard block arrays missing required keys: {sorted(missing)}"
            )
        return cls(
            births=np.asarray(arrays["births"], dtype=np.int64),
            xadj=np.asarray(arrays["xadj"], dtype=np.int64),
            adj=np.asarray(arrays["adj"], dtype=np.int64),
            eweights=np.asarray(arrays["eweights"], dtype=np.float64),
            vweights=np.asarray(arrays["vweights"], dtype=np.float64),
            coords=(
                np.asarray(arrays["coords"], dtype=np.float64)
                if "coords" in arrays
                else None
            ),
        )

    def validate(self) -> None:
        """Check the block's local structural invariants."""
        nv = len(self.births)
        if len(self.xadj) != nv + 1 or (nv and self.xadj[0] != 0):
            raise GraphValidationError("shard xadj malformed")
        if len(self.xadj) and self.xadj[-1] != len(self.adj):
            raise GraphValidationError("shard xadj[-1] != len(adj)")
        if np.any(np.diff(self.xadj) < 0):
            raise GraphValidationError("shard xadj must be non-decreasing")
        if nv > 1 and np.any(np.diff(self.births) <= 0):
            raise GraphValidationError("shard births must be strictly increasing")
        if len(self.vweights) != nv:
            raise GraphValidationError("shard vweights length mismatch")
        if len(self.eweights) != len(self.adj):
            raise GraphValidationError("shard eweights length mismatch")
        if self.coords is not None and len(self.coords) != nv:
            raise GraphValidationError("shard coords length mismatch")
        src = self.arc_sources()
        if np.any(src == self.adj):
            raise GraphValidationError("self-loops are not allowed")
        for i in range(nv):
            row = self.adj[self.xadj[i] : self.xadj[i + 1]]
            if len(row) > 1 and np.any(np.diff(row) <= 0):
                raise GraphValidationError(
                    f"adjacency of shard vertex {int(self.births[i])} is not "
                    f"strictly sorted"
                )


@dataclass(frozen=True)
class ShardedIncrementalResult(IncrementalResult):
    """Output of :meth:`ShardedCSRGraph.apply_delta`: an
    :class:`~repro.graph.incremental.IncrementalResult` (so
    :func:`~repro.graph.incremental.carry_partition` accepts it) that
    also reports which shards were rewritten, where each new vertex was
    routed, and how many arcs the new blocks hold."""

    touched_shards: frozenset
    new_vertex_shards: np.ndarray
    arcs_written: int


# ----------------------------------------------------------------------
# The sharded graph
# ----------------------------------------------------------------------
class ShardedCSRGraph:
    """A CSR graph stored as per-shard blocks behind a :class:`ShardStore`.

    Construct with :meth:`from_csr` (split a monolith), :meth:`open_dir`
    (attach to an on-disk store written by :meth:`save_meta`), or receive
    one from :meth:`apply_delta`.  The instance is an immutable *handle*:
    methods never mutate it, and :meth:`apply_delta` returns a new handle
    sharing the store (touched shards get new block revisions; see the
    module docstring for the gc contract).

    The read API mirrors :class:`~repro.graph.csr.CSRGraph` — the
    properties (``num_vertices`` / ``num_edges`` / ``num_arcs`` /
    ``total_vertex_weight``), point queries (:meth:`neighbors`,
    :meth:`incident_weights`, :meth:`degree`, :meth:`has_edge`,
    :meth:`edge_weight`) and the materialising accessors (``vweights`` /
    ``coords`` / :meth:`degrees`) — so delta composition and quality
    evaluation run unchanged on a sharded graph.  Vertex-indexed arrays
    (O(|V|)) are materialised lazily and cached; per-*arc* data (the bulk
    of a large graph) is only ever resident shard-by-shard, except in
    :meth:`to_csr`, which deliberately assembles the transient monolith
    the LP pipeline consumes.
    """

    def __init__(
        self,
        store,
        num_shards: int,
        births: np.ndarray,
        shard_of_birth: np.ndarray,
        revs: np.ndarray,
        *,
        next_birth: int,
        coords_dim: int | None,
        shard_nv: np.ndarray,
        shard_narcs: np.ndarray,
        shard_vw: np.ndarray,
    ):
        self.store = store
        self.num_shards = int(num_shards)
        self.births = np.ascontiguousarray(births, dtype=np.int64)
        self.shard_of_birth = np.ascontiguousarray(shard_of_birth, dtype=np.int64)
        self.revs = np.ascontiguousarray(revs, dtype=np.int64)
        self.next_birth = int(next_birth)
        self.coords_dim = coords_dim
        self._shard_nv = np.ascontiguousarray(shard_nv, dtype=np.int64)
        self._shard_narcs = np.ascontiguousarray(shard_narcs, dtype=np.int64)
        self._shard_vw = np.ascontiguousarray(shard_vw, dtype=np.float64)
        self._cur_cache: np.ndarray | None = None
        self._vweights: np.ndarray | None = None
        self._coords: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        # Optional block source installed by an attached BoundaryFrame:
        # a callable (sid, rev) -> ShardBlock backed by the frame's warm
        # cache, so composer/delta reads share blocks the frame already
        # paged instead of thrashing the store's (typically tiny) LRU.
        self._block_hook = None
        # Blocks apply_delta just wrote for this handle, kept decoded so
        # an advancing BoundaryFrame can ingest them without a store
        # round-trip (write-then-reload).  Consumed (set to None) by
        # BoundaryFrame.advance; peak memory matches apply_delta's own
        # pending-puts list, so this adds lifetime, not footprint.
        self._fresh_blocks: dict[int, ShardBlock] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        graph: CSRGraph,
        num_shards: int,
        *,
        store=None,
        assignment: np.ndarray | None = None,
    ) -> "ShardedCSRGraph":
        """Split a monolithic :class:`CSRGraph` into ``num_shards`` blocks.

        ``assignment`` maps each vertex to a shard in ``[0, num_shards)``;
        by default vertices are split into contiguous balanced chunks
        (id-locality, the natural choice for mesh-ordered graphs).  Pass a
        partition vector to make shards coincide with partitions.
        """
        if num_shards < 1:
            raise GraphError("num_shards must be >= 1")
        n = graph.num_vertices
        if assignment is None:
            assignment = np.zeros(n, dtype=np.int64)
            for sid, chunk in enumerate(
                np.array_split(np.arange(n, dtype=np.int64), num_shards)
            ):
                assignment[chunk] = sid
        else:
            assignment = np.asarray(assignment, dtype=np.int64)
            if len(assignment) != n:
                raise GraphError("shard assignment length != num_vertices")
            if len(assignment) and (
                assignment.min() < 0 or assignment.max() >= num_shards
            ):
                raise GraphError("shard assignment out of range")
        if store is None:
            store = InMemoryShardStore()

        shard_nv = np.zeros(num_shards, dtype=np.int64)
        shard_narcs = np.zeros(num_shards, dtype=np.int64)
        shard_vw = np.zeros(num_shards, dtype=np.float64)
        for sid in range(num_shards):
            owned = np.flatnonzero(assignment == sid)
            idx, counts = _row_gather(graph.xadj, owned)
            xadj_s = np.zeros(len(owned) + 1, dtype=np.int64)
            np.cumsum(counts, out=xadj_s[1:])
            block = ShardBlock(
                births=owned,
                xadj=xadj_s,
                adj=graph.adj[idx].copy(),
                eweights=graph.eweights[idx].copy(),
                vweights=graph.vweights[owned].copy(),
                coords=(
                    graph.coords[owned].copy()
                    if graph.coords is not None
                    else None
                ),
            )
            store.put(shard_key(sid, 0), block.to_arrays())
            shard_nv[sid] = len(owned)
            shard_narcs[sid] = len(block.adj)
            shard_vw[sid] = float(block.vweights.sum())

        return cls(
            store,
            num_shards,
            births=np.arange(n, dtype=np.int64),
            shard_of_birth=assignment.copy(),
            revs=np.zeros(num_shards, dtype=np.int64),
            next_birth=n,
            coords_dim=(
                graph.coords.shape[1] if graph.coords is not None else None
            ),
            shard_nv=shard_nv,
            shard_narcs=shard_narcs,
            shard_vw=shard_vw,
        )

    # ------------------------------------------------------------------
    # Basic properties (CSRGraph-compatible)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n = |V|``."""
        return len(self.births)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each arc is stored once per
        endpoint, possibly in different shards)."""
        return int(self._shard_narcs.sum()) // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs across all shards."""
        return int(self._shard_narcs.sum())

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights (maintained per shard, O(S))."""
        return float(self._shard_vw.sum())

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedCSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"shards={self.num_shards}, "
            f"store={type(self.store).__name__})"
        )

    # ------------------------------------------------------------------
    # Id translation
    # ------------------------------------------------------------------
    def _cur_of_birth(self) -> np.ndarray:
        """Map birth id -> current id (``-1`` for dead births); cached."""
        if self._cur_cache is None:
            cur = np.full(self.next_birth, -1, dtype=np.int64)
            cur[self.births] = np.arange(len(self.births), dtype=np.int64)
            self._cur_cache = cur
        return self._cur_cache

    def current_ids(self, births: np.ndarray) -> np.ndarray:
        """Translate birth ids (e.g. a shard block's ``adj``) to current
        ids (``-1`` for dead births)."""
        return self._cur_of_birth()[births]

    def shard_of(self, v: int) -> int:
        """Shard owning (current) vertex ``v``."""
        return int(self.shard_of_birth[self.births[v]])

    def shard_sizes(self) -> np.ndarray:
        """Owned-vertex count per shard (O(S), no loads)."""
        return self._shard_nv.copy()

    # ------------------------------------------------------------------
    # Block access
    # ------------------------------------------------------------------
    def shard_block(self, sid: int) -> ShardBlock:
        """Load shard ``sid``'s current block (through the store's LRU,
        or through an attached frame's warm cache — see ``_block_hook``)."""
        if not (0 <= sid < self.num_shards):
            raise GraphError(f"shard id {sid} out of range")
        if self._block_hook is not None:
            return self._block_hook(sid, int(self.revs[sid]))
        return ShardBlock.from_arrays(
            self.store.get(shard_key(sid, int(self.revs[sid])))
        )

    def iter_shards(self):
        """Yield ``(sid, ShardBlock)`` for every shard, one resident at a
        time (the shard-streaming idiom quality metrics use)."""
        for sid in range(self.num_shards):
            yield sid, self.shard_block(sid)

    def shard_subgraph(self, sid: int) -> tuple[CSRGraph, np.ndarray]:
        """Materialise shard ``sid`` plus its halo as a standalone
        :class:`CSRGraph`.

        Returns ``(sub, current_ids)``: the subgraph's first
        ``block.num_vertices`` vertices are the owned ones, the rest the
        halo; ``current_ids[i]`` is subgraph vertex ``i``'s id in the full
        graph.  Halo-halo edges are absent (the shard does not know them)
        — the subgraph is the owned rows plus their mirrored cut edges.
        """
        block = self.shard_block(sid)
        halo = block.halo_births()
        local_births = np.concatenate([block.births, halo])
        order = np.argsort(local_births, kind="stable")
        # local id lookup via sorted search: order[k] is the local id of
        # the k-th smallest birth
        sorted_births = local_births[order]

        def to_local(b: np.ndarray) -> np.ndarray:
            return order[np.searchsorted(sorted_births, b)]

        src_local = to_local(block.arc_sources())
        dst_local = to_local(block.adj)
        # Keep each owned-owned edge once, every owned-halo arc once.
        n_owned = block.num_vertices
        keep = (dst_local >= n_owned) | (src_local < dst_local)
        edges = np.column_stack([src_local[keep], dst_local[keep]])
        ew = block.eweights[keep]
        vweights = np.concatenate(
            [block.vweights, np.ones(len(halo), dtype=np.float64)]
        )
        sub = CSRGraph.from_edges(
            len(local_births), edges, eweights=ew, vweights=vweights
        )
        cur = self._cur_of_birth()[local_births]
        return sub, cur

    # ------------------------------------------------------------------
    # Point queries (CSRGraph-compatible)
    # ------------------------------------------------------------------
    def _row(self, v: int) -> tuple[ShardBlock, int]:
        b = int(self.births[v])
        block = self.shard_block(int(self.shard_of_birth[b]))
        i = int(np.searchsorted(block.births, b))
        return block, i

    def neighbors(self, v: int) -> np.ndarray:
        """Current ids of ``v``'s neighbours (sorted ascending)."""
        block, i = self._row(v)
        row = block.adj[block.xadj[i] : block.xadj[i + 1]]
        return self._cur_of_birth()[row]

    def incident_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors` of ``v``."""
        block, i = self._row(v)
        return block.eweights[block.xadj[i] : block.xadj[i + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        block, i = self._row(v)
        return int(block.xadj[i + 1] - block.xadj[i])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (assembled shard-by-shard, cached)."""
        if self._degrees is None:
            deg = np.zeros(self.num_vertices, dtype=np.int64)
            cur = self._cur_of_birth()
            for _, block in self.iter_shards():
                deg[cur[block.births]] = np.diff(block.xadj)
            deg.setflags(write=False)
            self._degrees = deg
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff the undirected edge ``{u, v}`` exists."""
        block, i = self._row(u)
        row = block.adj[block.xadj[i] : block.xadj[i + 1]]
        bv = self.births[v]
        j = np.searchsorted(row, bv)
        return bool(j < len(row) and row[j] == bv)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        block, i = self._row(u)
        row = block.adj[block.xadj[i] : block.xadj[i + 1]]
        bv = self.births[v]
        j = np.searchsorted(row, bv)
        if j >= len(row) or row[j] != bv:
            raise EdgeNotFoundError(f"edge ({u}, {v}) not in graph")
        return float(block.eweights[block.xadj[i] + j])

    def vertex_weight(self, v: int) -> float:
        """Weight of (current) vertex ``v`` (single-shard lookup)."""
        block, i = self._row(v)
        return float(block.vweights[i])

    # ------------------------------------------------------------------
    # Materialising vertex-indexed accessors (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def vweights(self) -> np.ndarray:
        """All vertex weights in current-id order (O(|V|), cached)."""
        if self._vweights is None:
            vw = np.empty(self.num_vertices, dtype=np.float64)
            cur = self._cur_of_birth()
            for _, block in self.iter_shards():
                vw[cur[block.births]] = block.vweights
            vw.setflags(write=False)
            self._vweights = vw
        return self._vweights

    @property
    def coords(self) -> np.ndarray | None:
        """Vertex coordinates in current-id order, or ``None``."""
        if self.coords_dim is None:
            return None
        if self._coords is None:
            xy = np.empty((self.num_vertices, self.coords_dim), dtype=np.float64)
            cur = self._cur_of_birth()
            for _, block in self.iter_shards():
                xy[cur[block.births]] = block.coords
            xy.setflags(write=False)
            self._coords = xy
        return self._coords

    # ------------------------------------------------------------------
    # Shard-native LP assembly
    # ------------------------------------------------------------------
    def boundary_frame(self, *, max_cached_blocks: int | None = None):
        """A fresh :class:`~repro.graph.frame.BoundaryFrame` on this
        handle — the graph view the LP pipeline reads instead of
        :meth:`to_csr` (see :meth:`~repro.core.partitioner
        .IncrementalGraphPartitioner.repartition`)."""
        from repro.graph.frame import BoundaryFrame

        return BoundaryFrame(self, max_cached_blocks=max_cached_blocks)

    # ------------------------------------------------------------------
    # Monolith assembly
    # ------------------------------------------------------------------
    def to_csr(self, *, validate: bool = False) -> CSRGraph:
        """Assemble the monolithic :class:`CSRGraph` (transiently O(|E|)).

        Shards stream through the store's LRU one at a time, so the peak
        *store* residency honours ``max_resident`` — but the assembled
        result is of course the full graph.  Snapshot/debug bridge only:
        the LP pipeline routes sharded graphs through
        :meth:`boundary_frame` (RPR801 bans new ``to_csr()`` hot-path
        callers in library code).
        """
        n = self.num_vertices
        cur = self._cur_of_birth()
        deg = np.zeros(n, dtype=np.int64)
        for _, block in self.iter_shards():
            deg[cur[block.births]] = np.diff(block.xadj)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=xadj[1:])
        adj = np.empty(int(xadj[-1]), dtype=np.int64)
        ew = np.empty(int(xadj[-1]), dtype=np.float64)
        vw = np.empty(n, dtype=np.float64)
        coords = (
            np.empty((n, self.coords_dim), dtype=np.float64)
            if self.coords_dim is not None
            else None
        )
        for _, block in self.iter_shards():
            cur_owned = cur[block.births]
            counts = np.diff(block.xadj)
            out = np.repeat(xadj[cur_owned], counts) + _ramp(counts)
            adj[out] = cur[block.adj]
            ew[out] = block.eweights
            vw[cur_owned] = block.vweights
            if coords is not None:
                coords[cur_owned] = block.coords
        return CSRGraph(xadj, adj, vweights=vw, eweights=ew, coords=coords,
                        validate=validate)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check cross-shard invariants (each block's local ones too)."""
        if len(self.births) > 1 and np.any(np.diff(self.births) <= 0):
            raise GraphValidationError("births must be strictly increasing")
        if len(self.births) and self.births[-1] >= self.next_birth:
            raise GraphValidationError("birth id >= next_birth")
        seen = np.zeros(self.next_birth, dtype=bool)
        all_keys: list[np.ndarray] = []
        for sid, block in self.iter_shards():
            block.validate()
            if int(self._shard_nv[sid]) != block.num_vertices:
                raise GraphValidationError(f"shard {sid} vertex count drifted")
            if int(self._shard_narcs[sid]) != block.num_arcs:
                raise GraphValidationError(f"shard {sid} arc count drifted")
            if np.any(self.shard_of_birth[block.births] != sid):
                raise GraphValidationError(
                    f"shard {sid} owns births mapped to another shard"
                )
            if np.any(seen[block.births]):
                raise GraphValidationError("birth owned by multiple shards")
            seen[block.births] = True
            all_keys.append(
                block.arc_sources() * np.int64(self.next_birth) + block.adj
            )
        if not np.array_equal(np.flatnonzero(seen), self.births):
            raise GraphValidationError("shard membership != births vector")
        # Cross-shard symmetry: every arc u->v has a mirror v->u somewhere.
        if all_keys:
            fwd = np.sort(np.concatenate(all_keys))
            src = fwd // np.int64(self.next_birth)
            dst = fwd % np.int64(self.next_birth)
            bwd = np.sort(dst * np.int64(self.next_birth) + src)
            if not np.array_equal(fwd, bwd):
                raise GraphValidationError(
                    "sharded adjacency is not symmetric across shards"
                )

    # ------------------------------------------------------------------
    # Delta routing
    # ------------------------------------------------------------------
    def route_new_vertices(self, delta: GraphDelta) -> np.ndarray:
        """Deterministically assign each added vertex to a shard.

        Majority vote over the shards owning the new vertex's *old*
        neighbours, one vote per added edge (ties toward the smallest
        shard id).  Then, in id order, a new vertex without old
        neighbours takes the shard of its lowest-id new neighbour routed
        so far, and failing that the currently smallest shard (ties
        toward the smallest id); either way that shard grows by one.
        """
        n = self.num_vertices
        n_add = delta.num_added_vertices
        routed = np.full(n_add, -1, dtype=np.int64)
        # Each added edge in both orientations a -> b, from new a only.
        a = delta.added_edges.ravel()
        b = delta.added_edges[:, ::-1].ravel()
        from_new = a >= n
        a, b = a[from_new] - n, b[from_new]
        old = b < n
        # Votes counted per (new vertex, shard) pair; sorting each
        # vertex's pairs by descending count, then shard, puts its
        # winner first.
        pairs, votes = np.unique(
            a[old] * self.num_shards + self.shard_of_birth[self.births[b[old]]],
            return_counts=True,
        )
        voter, shard = pairs // self.num_shards, pairs % self.num_shards
        order = np.lexsort((shard, -votes, voter))
        winner = np.ones(len(order), dtype=bool)
        winner[1:] = voter[order[1:]] != voter[order[:-1]]
        routed[voter[order[winner]]] = shard[order[winner]]
        sizes = self._shard_nv + np.bincount(
            routed[routed >= 0], minlength=self.num_shards
        )
        # The rest in id order, each seeing the ones routed before it.
        link_src, link_dst = a[~old], b[~old] - n
        order = np.argsort(link_src, kind="stable")
        link_src, link_dst = link_src[order], link_dst[order]
        for j in np.flatnonzero(routed < 0).tolist():
            lo, hi = np.searchsorted(link_src, [j, j + 1])
            linked = link_dst[lo:hi][routed[link_dst[lo:hi]] >= 0]
            routed[j] = routed[linked.min()] if len(linked) else np.argmin(sizes)
            sizes[routed[j]] += 1
        return routed

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        delta: GraphDelta,
        *,
        strict: bool = True,
        accumulate_weights: bool = False,
    ) -> ShardedIncrementalResult:
        """Apply a delta shard-locally; only touched shards are rewritten.

        Each touched block goes once through the splice kernel that
        :func:`repro.graph.incremental.apply_delta` runs on the whole
        monolith, with the block's local rows as rows and births as
        targets (``M`` exceeds every birth).  A block is touched if it
        owns a deleted vertex, a source of an arc to drop (either end of
        a deleted edge, a neighbour of a deleted vertex), an end of an
        added edge or a routed new vertex.  New vertices' rows go after
        the old ones: their births exceed every old birth.

        The cost is O(arcs of the touched blocks) plus writing them.
        Validation, the order and text of the errors, ``strict``,
        ``accumulate_weights`` and the resulting id mapping are the
        monolith's, from the same helpers; every check runs before the
        first block is written.  New blocks go under fresh revisions;
        ``self`` remains a valid handle on the pre-delta graph until
        :meth:`drop_blocks_not_in` garbage-collects one side.
        """
        n = self.num_vertices
        n_add = delta.num_added_vertices
        _check_refs(delta, n)
        survivors, old_to_new, new_vertex_ids, is_new = _renumber(
            n, delta.deleted_vertices, n_add
        )
        new_births = np.arange(
            self.next_birth, self.next_birth + n_add, dtype=np.int64
        )
        birth_of = np.concatenate([self.births, new_births])
        m = np.int64(self.next_birth + n_add)

        # Arcs to drop, each looked up from its source's row: both
        # orientations of each deleted edge, then the arcs that point at
        # a deleted vertex, read off its own row.
        dead = self.births[delta.deleted_vertices]
        dead_owner = self.shard_of_birth[dead]
        del_edges = birth_of[delta.deleted_edges]
        drop = [del_edges, del_edges[:, ::-1]]
        for sid in np.unique(dead_owner):
            block = self.shard_block(int(sid))
            mine = dead[dead_owner == sid]
            idx, deg = _row_gather(block.xadj, np.searchsorted(block.births, mine))
            drop.append(np.column_stack([block.adj[idx], np.repeat(mine, deg)]))
        drop = np.concatenate(drop)
        drop_owner = self.shard_of_birth[drop[:, 0]]
        drop_hit = np.zeros(len(drop), dtype=bool)

        routed = self.route_new_vertices(delta)
        owner = np.concatenate([self.shard_of_birth, routed])
        first, inv, ins_src, ins_dst, ins_edge = _added_arcs(
            birth_of[delta.added_edges], m
        )
        ins_owner = owner[ins_src]
        on_old = np.zeros(len(first), dtype=bool)
        add_w = _added_eweights(delta)
        add_vw = _added_vweights(delta)
        add_coords = (
            None if self.coords_dim is None
            else _added_coords(delta, self.coords_dim)
        )
        touched = np.unique(
            np.concatenate([dead_owner, drop_owner, ins_owner, routed])
        ).tolist()

        revs = self.revs.copy()
        shard_nv = self._shard_nv.copy()
        shard_narcs = self._shard_narcs.copy()
        shard_vw = self._shard_vw.copy()
        fresh: dict[int, ShardBlock] = {}
        for sid in touched:
            block = self.shard_block(sid)
            mine_new = routed == sid
            births = np.concatenate([block.births, new_births[mine_new]])
            dead_rows = np.searchsorted(block.births, dead[dead_owner == sid])
            mine = np.flatnonzero(drop_owner == sid)
            ins = ins_owner == sid
            counts, adj, w, hit, has_old = _splice(
                block.xadj, block.adj, block.eweights, m, len(births),
                dead_rows,
                (np.searchsorted(block.births, drop[mine, 0]), drop[mine, 1]),
                (np.searchsorted(births, ins_src[ins]), ins_dst[ins], ins_edge[ins]),
                inv, add_w,
            )
            drop_hit[mine[hit]] = True
            on_old |= has_old
            xadj = np.zeros(len(births) - len(dead_rows) + 1, dtype=np.int64)
            np.cumsum(np.delete(counts, dead_rows), out=xadj[1:])
            coords = None
            if add_coords is not None:
                coords = np.delete(
                    np.vstack([
                        block.coords.reshape(-1, self.coords_dim),
                        add_coords[mine_new],
                    ]),
                    dead_rows, 0,
                )
            fresh[sid] = new_block = ShardBlock(
                births=np.delete(births, dead_rows),
                xadj=xadj,
                adj=adj,
                eweights=w,
                vweights=np.delete(
                    np.concatenate([block.vweights, add_vw[mine_new]]), dead_rows
                ),
                coords=coords,
            )
            revs[sid] += 1
            shard_nv[sid] = new_block.num_vertices
            shard_narcs[sid] = new_block.num_arcs
            shard_vw[sid] = float(new_block.vweights.sum())

        _check_splice(
            delta, drop_hit, on_old, first, inv,
            strict=strict, accumulate_weights=accumulate_weights,
        )
        for sid, new_block in fresh.items():
            self.store.put(shard_key(sid, int(revs[sid])), new_block.to_arrays())

        new_graph = ShardedCSRGraph(
            self.store,
            self.num_shards,
            births=np.concatenate([self.births[survivors], new_births]),
            shard_of_birth=owner,
            revs=revs,
            next_birth=self.next_birth + n_add,
            coords_dim=self.coords_dim,
            shard_nv=shard_nv,
            shard_narcs=shard_narcs,
            shard_vw=shard_vw,
        )
        if fresh:
            new_graph._fresh_blocks = fresh
        return ShardedIncrementalResult(
            graph=new_graph,
            old_to_new=old_to_new,
            new_vertex_ids=new_vertex_ids,
            is_new=is_new,
            touched_shards=frozenset(touched),
            new_vertex_shards=routed,
            arcs_written=int(sum(b.num_arcs for b in fresh.values())),
        )

    # ------------------------------------------------------------------
    # Revision garbage collection
    # ------------------------------------------------------------------
    def drop_blocks_not_in(self, other: "ShardedCSRGraph") -> int:
        """Delete this handle's block revisions that ``other`` does not
        reference (both handles must share the store).  Returns the
        number of blocks dropped.  Call on the *stale* handle after a
        delta is committed, or on the *new* handle to roll one back."""
        if other.store is not self.store:
            raise GraphError("handles do not share a shard store")
        dropped = 0
        for sid in range(self.num_shards):
            if int(self.revs[sid]) != int(other.revs[sid]):
                self.store.delete(shard_key(sid, int(self.revs[sid])))
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Standalone durability (CLI `shard split` / `shard inspect`)
    # ------------------------------------------------------------------
    def meta_arrays(self) -> dict[str, np.ndarray]:
        """The graph-level metadata arrays (everything except the blocks)."""
        return {
            "births": self.births,
            "shard_of_birth": self.shard_of_birth,
            "revs": self.revs,
            "scalars": np.array(
                [
                    self.num_shards,
                    self.next_birth,
                    -1 if self.coords_dim is None else self.coords_dim,
                ],
                dtype=np.int64,
            ),
            "shard_nv": self._shard_nv,
            "shard_narcs": self._shard_narcs,
            "shard_vw": self._shard_vw,
        }

    @classmethod
    def from_meta_arrays(
        cls, store, arrays: dict[str, np.ndarray]
    ) -> "ShardedCSRGraph":
        """Rebuild a handle from :meth:`meta_arrays` plus its store."""
        missing = {
            "births", "shard_of_birth", "revs", "scalars",
            "shard_nv", "shard_narcs", "shard_vw",
        } - set(arrays)
        if missing:
            raise GraphError(
                f"sharded metadata missing required keys: {sorted(missing)}"
            )
        num_shards, next_birth, cdim = (
            int(x) for x in np.asarray(arrays["scalars"], dtype=np.int64)
        )
        return cls(
            store,
            num_shards,
            births=arrays["births"],
            shard_of_birth=arrays["shard_of_birth"],
            revs=arrays["revs"],
            next_birth=next_birth,
            coords_dim=None if cdim < 0 else cdim,
            shard_nv=arrays["shard_nv"],
            shard_narcs=arrays["shard_narcs"],
            shard_vw=arrays["shard_vw"],
        )

    def save_meta(self) -> None:
        """Persist the metadata into the store (key ``meta``) so
        :meth:`open_dir` can re-attach.  Only meaningful for persistent
        stores; the blocks themselves are already in the store."""
        self.store.put(_META_KEY, self.meta_arrays())

    @classmethod
    def open_dir(
        cls, directory, *, max_resident: int | None = None
    ) -> "ShardedCSRGraph":
        """Attach to an on-disk sharded graph written by :meth:`save_meta`
        over a :class:`DirectoryShardStore` (e.g. by ``repro-igp shard
        split``)."""
        store = DirectoryShardStore(directory, max_resident=max_resident)
        if _META_KEY not in store:
            raise GraphError(
                f"{directory} is not a sharded graph directory (no "
                f"{_META_KEY}.npz)"
            )
        return cls.from_meta_arrays(store, store.get(_META_KEY))

    def describe(self) -> str:
        """Multi-line shard table (sizes, arcs, halo sizes, revisions)."""
        lines = [
            f"ShardedCSRGraph: |V|={self.num_vertices} |E|={self.num_edges} "
            f"shards={self.num_shards} store={type(self.store).__name__}"
        ]
        for sid, block in self.iter_shards():
            lines.append(
                f"  shard {sid}: {block.num_vertices} vertices, "
                f"{block.num_arcs} arcs, {len(block.halo_births())} halo, "
                f"rev {int(self.revs[sid])}"
            )
        return "\n".join(lines)
