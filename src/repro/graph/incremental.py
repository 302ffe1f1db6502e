"""Incremental graph model: ``G'(V ∪ V1 − V2, E ∪ E1 − E2)``.

The paper (§1.1, eqs. 4–5) defines an incremental graph by a set of added
vertices ``V1``, deleted vertices ``V2 ⊆ V``, added edges ``E1`` and deleted
edges ``E2 ⊆ E``.  :class:`GraphDelta` captures exactly that, and
:func:`apply_delta` materialises the new :class:`CSRGraph` together with the
index mappings needed to carry the old partition vector forward (deleted
vertices vanish, surviving vertices keep their relative order, new vertices
are appended at the end).

The graph is built from a delta once, in one place: ``_check_refs``
validates the delta's vertex references, and the block-splice kernel
``_splice`` cuts the dropped arcs out of a block of sorted arcs and
inserts the added ones.  The sharded
:meth:`~repro.graph.sharded.ShardedCSRGraph.apply_delta` runs the kernel
once per touched shard block; :func:`apply_delta` is the one-block case,
with the vertex ids as rows.  :meth:`DeltaComposer.fold` runs the same
validator.

Vertex naming convention inside a delta: the ``i``-th added vertex is
referred to as ``n_old + i`` in ``added_edges``, so a delta can connect new
vertices both to old vertices and to each other — which is what localized
mesh refinement produces.

Deltas form an algebra: :func:`compose_deltas` fuses a chain
``[d1, ..., dk]`` (each relative to the graph produced by its
predecessors) into one equivalent delta relative to the base graph —
add-then-delete cancels, intermediate vertex ids are renumbered into the
base frame, and edge deletions/re-additions collapse.  The invariant is
exact: applying the composed delta yields the *same* graph (ids, weights,
coordinates) and the same carried partition as applying the chain
sequentially.  The streaming layer (:mod:`repro.core.streaming`) leans on
this to batch many small deltas into one repartition-worthy step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, _row_gather

__all__ = [
    "DeltaComposer",
    "GraphDelta",
    "IncrementalResult",
    "apply_delta",
    "carry_partition",
    "compose_deltas",
]


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return arr.reshape(-1, 2)


def _lookup(
    sorted_keys: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, found)`` of ``queries`` in the sorted ``sorted_keys``."""
    pos = np.searchsorted(sorted_keys, queries)
    found = np.zeros(len(queries), dtype=bool)
    inside = pos < len(sorted_keys)
    found[inside] = sorted_keys[pos[inside]] == queries[inside]
    return pos, found


@dataclass(frozen=True)
class GraphDelta:
    """An incremental change to a graph.

    Attributes
    ----------
    num_added_vertices:
        ``|V1|``; the ``i``-th new vertex is addressed as ``n_old + i`` in
        :attr:`added_edges`.
    added_edges:
        ``(k, 2)`` endpoints drawn from old ids and new ids (``E1``).
    deleted_vertices:
        old vertex ids to remove (``V2``); their incident edges go with
        them automatically.
    deleted_edges:
        ``(k, 2)`` old-id pairs to remove (``E2``).
    added_vweights / added_eweights / added_coords:
        optional weights/coordinates for the additions (default unit / NaN).
    """

    num_added_vertices: int = 0
    added_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))
    deleted_vertices: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    deleted_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))
    added_vweights: np.ndarray | None = None
    added_eweights: np.ndarray | None = None
    added_coords: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "added_edges", _as_edge_array(self.added_edges))
        object.__setattr__(self, "deleted_edges", _as_edge_array(self.deleted_edges))
        object.__setattr__(
            self,
            "deleted_vertices",
            np.unique(np.asarray(self.deleted_vertices, dtype=np.int64)),
        )
        if self.num_added_vertices < 0:
            raise GraphError("num_added_vertices must be >= 0")
        if self.added_vweights is not None and len(self.added_vweights) != self.num_added_vertices:
            raise GraphError("added_vweights length mismatch")
        if self.added_eweights is not None and len(self.added_eweights) != len(self.added_edges):
            raise GraphError("added_eweights length mismatch")
        if self.added_coords is not None and len(self.added_coords) != self.num_added_vertices:
            raise GraphError("added_coords length mismatch")

    @property
    def is_pure_growth(self) -> bool:
        """True when nothing is deleted — the common adaptive-mesh case."""
        return len(self.deleted_vertices) == 0 and len(self.deleted_edges) == 0

    def summary(self) -> str:
        """Human-readable one-liner."""
        return (
            f"GraphDelta(+{self.num_added_vertices}v, +{len(self.added_edges)}e, "
            f"-{len(self.deleted_vertices)}v, -{len(self.deleted_edges)}e)"
        )

    # ------------------------------------------------------------------
    # Serialization (durable session snapshots)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat ``{name: array}`` view, ``np.savez``-ready.

        ``num_added_vertices`` is stored as a 0-d int64 array; the
        optional weight/coordinate attributes are simply absent when
        unset.  Round-trips exactly through :meth:`from_arrays`.
        """
        arrays = {
            "num_added_vertices": np.int64(self.num_added_vertices),
            "added_edges": self.added_edges,
            "deleted_vertices": self.deleted_vertices,
            "deleted_edges": self.deleted_edges,
        }
        for key in ("added_vweights", "added_eweights", "added_coords"):
            value = getattr(self, key)
            if value is not None:
                arrays[key] = np.asarray(value)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "GraphDelta":
        """Rebuild a delta from a :meth:`to_arrays` dict (re-validated)."""
        missing = {
            "num_added_vertices",
            "added_edges",
            "deleted_vertices",
            "deleted_edges",
        } - set(arrays)
        if missing:
            raise GraphError(
                f"delta arrays missing required keys: {sorted(missing)}"
            )
        return cls(
            num_added_vertices=int(arrays["num_added_vertices"]),
            added_edges=arrays["added_edges"],
            deleted_vertices=arrays["deleted_vertices"],
            deleted_edges=arrays["deleted_edges"],
            added_vweights=arrays.get("added_vweights"),
            added_eweights=arrays.get("added_eweights"),
            added_coords=arrays.get("added_coords"),
        )

    def equals(self, other: "GraphDelta") -> bool:
        """Exact field-wise equality (ids, weights, coordinates)."""

        def same_opt(a, b) -> bool:
            if a is None or b is None:
                return a is None and b is None
            return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)

        return (
            self.num_added_vertices == other.num_added_vertices
            and np.array_equal(self.added_edges, other.added_edges)
            and np.array_equal(self.deleted_vertices, other.deleted_vertices)
            and np.array_equal(self.deleted_edges, other.deleted_edges)
            and same_opt(self.added_vweights, other.added_vweights)
            and same_opt(self.added_eweights, other.added_eweights)
            and same_opt(self.added_coords, other.added_coords)
        )


@dataclass(frozen=True)
class IncrementalResult:
    """Output of :func:`apply_delta`.

    Attributes
    ----------
    graph:
        the new graph ``G'``.
    old_to_new:
        length ``n_old`` map; ``-1`` for deleted vertices.
    new_vertex_ids:
        ids (in ``graph``) of the added vertices, in delta order.
    is_new:
        boolean mask over ``graph``'s vertices (True = added by the delta).
    """

    graph: CSRGraph
    old_to_new: np.ndarray
    new_vertex_ids: np.ndarray
    is_new: np.ndarray


def _added_eweights(delta: GraphDelta) -> np.ndarray:
    """Weights of the delta's added edges (unit by default)."""
    if delta.added_eweights is None:
        return np.ones(len(delta.added_edges))
    return np.asarray(delta.added_eweights, dtype=np.float64)


def _added_vweights(delta: GraphDelta) -> np.ndarray:
    """Weights of the delta's added vertices (unit by default)."""
    if delta.added_vweights is None:
        return np.ones(delta.num_added_vertices)
    return np.asarray(delta.added_vweights, dtype=np.float64)


def _added_coords(delta: GraphDelta, dim: int) -> np.ndarray:
    """Coordinates of the delta's added vertices (NaN by default)."""
    n_add = delta.num_added_vertices
    if delta.added_coords is None:
        return np.full((n_add, dim), np.nan)
    return np.asarray(delta.added_coords, dtype=np.float64).reshape(n_add, dim)


def _check_refs(delta: GraphDelta, n: int) -> None:
    """Raise the first broken vertex reference of ``delta`` against a
    graph of ``n`` vertices (the delta's ``j``-th new vertex is ``n + j``).

    The one validator of :func:`apply_delta`, the sharded
    :meth:`~repro.graph.sharded.ShardedCSRGraph.apply_delta` and
    :meth:`DeltaComposer.fold`; it costs O(delta), nothing of size ``n``.
    """
    dead, added, deleted = delta.deleted_vertices, delta.added_edges, delta.deleted_edges
    if len(dead) and (dead[0] < 0 or dead[-1] >= n):
        raise GraphError("deleted vertex id out of range")
    if len(added) and (added.min() < 0 or added.max() >= n + delta.num_added_vertices):
        raise GraphError("added edge endpoint out of range")
    if len(deleted) and (deleted.min() < 0 or deleted.max() >= n):
        raise GraphError("deleted edge endpoint out of range")
    if len(added) and len(dead) and _lookup(dead, added.ravel())[1].any():
        raise GraphError("added edge references a deleted vertex")


def _renumber(n: int, deleted_vertices: np.ndarray, n_add: int):
    """``(survivors, old_to_new, new_vertex_ids, is_new)`` of a delta on
    ``n`` vertices: survivors keep their relative order and the ``n_add``
    new vertices are appended after them."""
    alive = np.ones(n, dtype=bool)
    alive[deleted_vertices] = False
    survivors = np.flatnonzero(alive)
    old_to_new = np.full(n, -1, dtype=np.int64)
    old_to_new[survivors] = np.arange(len(survivors), dtype=np.int64)
    n_new = len(survivors) + n_add
    new_vertex_ids = np.arange(len(survivors), n_new, dtype=np.int64)
    is_new = np.arange(n_new) >= len(survivors)
    return survivors, old_to_new, new_vertex_ids, is_new


def _added_arcs(edges: np.ndarray, m: np.int64):
    """``(first, inv, src, dst, edge)`` of ``(k, 2)`` added edges with
    ids below ``m``: ``np.unique``'s ``first``/``inv`` over the keys
    ``min·m + max`` of the distinct edges, and both arcs ``src → dst`` of
    each distinct edge ``edge``, sorted by (source, target)."""
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    uniq, first, inv = np.unique(
        lo * m + hi, return_index=True, return_inverse=True
    )
    src = np.concatenate([uniq // m, uniq % m])
    dst = np.concatenate([uniq % m, uniq // m])
    order = np.argsort(src * m + dst)
    edge = np.tile(np.arange(len(uniq), dtype=np.int64), 2)[order]
    return first, inv, src[order], dst[order], edge


def _splice(
    xadj: np.ndarray,
    adj: np.ndarray,
    eweights: np.ndarray,
    m: np.int64,
    n_rows: int,
    dead_rows: np.ndarray,
    drop: tuple[np.ndarray, np.ndarray],
    ins: tuple[np.ndarray, np.ndarray, np.ndarray],
    inv: np.ndarray,
    add_w: np.ndarray,
):
    """Splice one block of sorted arcs: the kernel under both apply paths.

    The block's arcs are sorted by (row, target), so ``row·m + target``
    (``m`` exceeds every target) is a strictly increasing key and every
    lookup is a binary search in it.  Rows past ``len(xadj) - 2``, up to
    ``n_rows - 1``, are new and start empty.  ``dead_rows`` lose their
    arcs and the ``(row, target)`` arcs of ``drop`` are dropped if
    present.  ``ins`` holds the added arcs as ``(row, target, edge)``,
    sorted by (row, target); ``inv`` maps each added edge of the delta
    (weight ``add_w``) to its distinct ``edge``.  Each distinct edge gets
    one weight, summed by one ``bincount`` (which adds in array order):
    the surviving old weight first, then the added weights in delta
    order, as an edge-list rebuild sums them.  A surviving arc takes the
    sum in place; a new arc is inserted at its sorted position.

    Returns ``(counts, adj, eweights, drop_hit, on_old)``: arcs per row,
    the new arc arrays, which drops hit, and which distinct edges had a
    surviving arc here.  Cost: one O(arcs) copy plus O(k log arcs).
    """
    rows = np.repeat(np.arange(len(xadj) - 1, dtype=np.int64), np.diff(xadj))
    keys = rows * m + adj
    at, drop_hit = _lookup(keys, drop[0] * m + drop[1])
    gone = np.concatenate([_row_gather(xadj, dead_rows)[0], at[drop_hit]])
    if len(gone):
        keep = np.ones(len(keys), dtype=bool)
        keep[gone] = False
        rows, keys, adj, w = rows[keep], keys[keep], adj[keep], eweights[keep]
    else:
        w = eweights.copy()

    ins_row, ins_dst, ins_edge = ins
    at, hit = _lookup(keys, ins_row * m + ins_dst)
    num_edges = int(inv.max()) + 1 if len(inv) else 0
    on_old = np.zeros(num_edges, dtype=bool)
    on_old[ins_edge[hit]] = True
    old_w = np.zeros(num_edges)
    old_w[ins_edge[hit]] = w[at[hit]]
    old = np.flatnonzero(on_old)
    merged = np.bincount(
        np.concatenate([old, inv]),
        weights=np.concatenate([old_w[old], add_w]),
        minlength=num_edges,
    )
    w[at[hit]] = merged[ins_edge[hit]]
    new = ~hit
    adj = np.insert(adj, at[new], ins_dst[new])
    w = np.insert(w, at[new], merged[ins_edge[new]])
    counts = np.bincount(rows, minlength=n_rows) + np.bincount(
        ins_row[new], minlength=n_rows
    )
    return counts, adj, w, drop_hit, on_old


def _listed(rows: np.ndarray) -> str:
    """The first five ``(u, v)`` rows, with ``...`` if there are more."""
    head = [tuple(int(x) for x in row) for row in rows[:5]]
    return f"{head}{'...' if len(rows) > 5 else ''}"


def _check_splice(
    delta: GraphDelta,
    drop_hit: np.ndarray,
    on_old: np.ndarray,
    first: np.ndarray,
    inv: np.ndarray,
    *,
    strict: bool,
    accumulate_weights: bool,
) -> None:
    """Raise the errors only the splice can tell, in this order: deleted
    edges of which neither orientation hit (``drop_hit`` lists the
    forward ones, then the backward ones, first), if ``strict``; added
    edges that repeat a surviving (``on_old``) or an earlier added edge,
    unless ``accumulate_weights``; self-loops."""
    k = len(delta.deleted_edges)
    found = drop_hit[:k] | drop_hit[k : 2 * k]
    if strict and not found.all():
        raise GraphError(
            f"deleted_edges entries do not exist in the graph: "
            f"{_listed(delta.deleted_edges[~found])} "
            f"(pass strict=False to skip missing deletions)"
        )
    if not accumulate_weights:
        # An added edge that coincides with a surviving old edge — or
        # with an earlier added edge — would have its weight *summed*
        # into that edge: a silent doubling for unit weights.
        clash = np.ones(len(inv), dtype=bool)
        clash[first] = False
        clash |= on_old[inv]
        if clash.any():
            raise GraphError(
                f"added_edges duplicate existing or other added edges: "
                f"{_listed(delta.added_edges[clash])} (pass "
                f"accumulate_weights=True to sum the weights instead)"
            )
    added = delta.added_edges
    if np.any(added[:, 0] == added[:, 1]):
        raise GraphError("self-loops are not allowed")


def apply_delta(
    graph: CSRGraph,
    delta: GraphDelta,
    *,
    strict: bool = True,
    accumulate_weights: bool = False,
) -> IncrementalResult:
    """Materialise ``G'`` from ``G`` and a :class:`GraphDelta`.

    The new CSR arrays are spliced from the old ones instead of being
    rebuilt from an edge list: ``graph`` is one block for the splice
    kernel that the sharded apply runs per shard, with the vertex ids as
    rows (the delta's new vertices ``n_old + j`` are rows after the old
    ones).  Deleted edges and the arcs pointing at deleted vertices
    (gathered from the deleted vertices' own rows) are located by binary
    search, the few added arcs are inserted at their sorted positions,
    and the targets are renumbered through a monotone map, so the arcs
    stay sorted.  The cost is one O(|E|) copy of the arc arrays plus
    O(k log |E|) for ``k`` deleted or added edges; nothing of size |E|
    is sorted.  The result is the graph :meth:`CSRGraph.from_edges`
    would build from the surviving and added edges, weights included.

    Parameters
    ----------
    strict:
        when True (default), every entry of ``delta.deleted_edges`` must
        match a live edge of ``graph``; a miss raises :class:`GraphError`
        instead of being silently ignored (silent misses mask upstream id
        bugs).  Streams that legitimately race deletions against a moving
        graph can pass ``strict=False`` to skip non-existent edges.
    accumulate_weights:
        an added edge that duplicates a *surviving* old edge (one not
        deleted by this same delta) silently doubles the edge weight when
        merged; that is almost always an upstream bug, so it raises
        :class:`GraphError` by default.  Pass ``accumulate_weights=True``
        to accept it and sum the weights (interaction costs accumulating
        onto an existing link), old weight first, then the added ones in
        delta order.
    """
    n_old = graph.num_vertices
    n_add = delta.num_added_vertices
    _check_refs(delta, n_old)
    survivors, old_to_new, new_vertex_ids, is_new = _renumber(
        n_old, delta.deleted_vertices, n_add
    )

    # Arcs to drop, each looked up from its source's row: both
    # orientations of each deleted edge (an edge that vanishes with a
    # deleted vertex in the same delta is a hit), then the arcs that
    # point at a deleted vertex, read off its own row.
    m = np.int64(n_old + n_add)
    dead, de = delta.deleted_vertices, delta.deleted_edges
    idx, deg = _row_gather(graph.xadj, dead)
    drop = np.concatenate(
        [de, de[:, ::-1], np.column_stack([graph.adj[idx], np.repeat(dead, deg)])]
    )
    first, inv, ins_src, ins_dst, ins_edge = _added_arcs(delta.added_edges, m)
    counts, adj, arc_w, drop_hit, on_old = _splice(
        graph.xadj, graph.adj, graph.eweights, m, n_old + n_add, dead,
        (drop[:, 0], drop[:, 1]), (ins_src, ins_dst, ins_edge),
        inv, _added_eweights(delta),
    )
    _check_splice(
        delta, drop_hit, on_old, first, inv,
        strict=strict, accumulate_weights=accumulate_weights,
    )
    if len(dead):
        adj = np.concatenate([old_to_new, new_vertex_ids])[adj]
    xadj = np.zeros(len(is_new) + 1, dtype=np.int64)
    np.cumsum(np.delete(counts, dead), out=xadj[1:])

    vweights = np.concatenate([graph.vweights[survivors], _added_vweights(delta)])
    coords = None
    if graph.coords is not None:
        coords = np.vstack(
            [graph.coords[survivors], _added_coords(delta, graph.coords.shape[1])]
        )
    new_graph = CSRGraph(
        xadj, adj, vweights=vweights, eweights=arc_w, coords=coords, validate=False
    )
    return IncrementalResult(
        graph=new_graph,
        old_to_new=old_to_new,
        new_vertex_ids=new_vertex_ids,
        is_new=is_new,
    )


def carry_partition(
    old_partition: np.ndarray, result: IncrementalResult, fill: int = -1
) -> np.ndarray:
    """Transport a partition vector across a delta.

    Surviving vertices keep their partition; new vertices get ``fill``
    (``-1`` by convention, to be resolved by Step 1 of the incremental
    partitioner).
    """
    old_partition = np.asarray(old_partition, dtype=np.int64)
    if len(old_partition) != len(result.old_to_new):
        raise GraphError("partition vector does not match the old graph")
    part = np.full(result.graph.num_vertices, fill, dtype=np.int64)
    survivors = result.old_to_new >= 0
    part[result.old_to_new[survivors]] = old_partition[survivors]
    return part



class DeltaComposer:
    """Incrementally fold a chain of deltas into one equivalent delta.

    Encoded ids: ``0..n_old-1`` are base-graph vertices; ``n_old + j`` is
    the ``j``-th vertex ever added along the chain (cancelled additions
    keep their slot so encodings stay stable; :meth:`to_delta` compacts
    them).  A :meth:`fold` does Python work in proportion to the folded
    delta.  A fold that deletes vertices also compacts the frame-sized
    provenance array with one vectorised mask (no per-vertex Python) and
    filters the accumulated added edges once; additions append into the
    array's spare capacity, O(delta) amortised.  That is what lets the
    streaming layer ingest long delta streams cheaply and only
    materialise the composed :class:`GraphDelta` at flush.

    See :func:`compose_deltas` for the equivalence and cancellation
    semantics; that function is a thin wrapper over this class.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        strict: bool = True,
        accumulate_weights: bool = False,
    ):
        self.graph = graph
        self.strict = strict
        self.accumulate_weights = accumulate_weights
        self.n_old = graph.num_vertices
        self.num_folded = 0
        # Current-frame id -> encoded id: a view of the first len(frame)
        # entries of ``_prov_buf``, whose tail is spare capacity.
        self._prov_buf = np.arange(self.n_old, dtype=np.int64)
        self._prov = self._prov_buf
        self._add_alive: list[bool] = []
        self._add_w: list[float] = []
        self._add_coords: list[np.ndarray | None] = []
        self._deleted_old: set[int] = set()
        # Added edge -> its added weights in fold order.  An accumulated
        # edge keeps one entry per addition, so applying the composed
        # delta sums them in the order the chain did (a pre-summed
        # weight rounds differently).
        self._added_edges: dict[tuple[int, int], tuple[float, ...]] = {}
        self._deleted_orig: set[tuple[int, int]] = set()
        self._alive_added_weight = 0.0
        self._deleted_old_weight = 0.0

    # ------------------------------------------------------------------
    # Cheap accounting (used by streaming flush policies)
    # ------------------------------------------------------------------
    @property
    def deleted_old_vertices(self) -> set[int]:
        """Base-graph ids of original vertices deleted so far."""
        return self._deleted_old

    def added_weight(self) -> float:
        """Total vertex weight of the surviving additions (running total)."""
        return self._alive_added_weight

    def deleted_weight(self) -> float:
        """Total vertex weight of the deleted original vertices."""
        return self._deleted_old_weight

    def _orig_alive(self, k: tuple[int, int]) -> bool:
        return (
            k[1] < self.n_old
            and k not in self._deleted_orig
            and self.graph.has_edge(k[0], k[1])
        )

    # ------------------------------------------------------------------
    def fold(self, d: GraphDelta) -> "DeltaComposer":
        """Fold one more delta (relative to the chain-so-far's frame)."""
        n_old = self.n_old
        prov = self._prov
        n_cur = len(prov)
        base_j = len(self._add_alive)

        _check_refs(d, n_cur)

        def encode(c: int) -> int:
            if c < n_cur:
                return int(prov[c])
            return n_old + base_j + (c - n_cur)

        # --- edge deletions (against the pre-delta edge state) ----------
        # Repeats of the same key within one delta are tolerated, exactly
        # as apply_delta's binary search treats them (dedup, not a
        # miss); only a key that was never live this step is an error.
        seen_this_fold: set[tuple[int, int]] = set()
        for u, v in d.deleted_edges:
            a, b = encode(int(u)), encode(int(v))
            k = (a, b) if a < b else (b, a)
            if k in seen_this_fold:
                continue
            seen_this_fold.add(k)
            in_added = k in self._added_edges
            in_orig = self._orig_alive(k)
            if not (in_added or in_orig):
                if self.strict:
                    raise GraphError(
                        f"deleted edge ({int(u)}, {int(v)}) does not exist "
                        f"at its step of the chain (pass strict=False to "
                        f"skip missing deletions)"
                    )
                continue
            # An accumulated duplicate means the live edge is the *merge*
            # of the original and the added part; deleting it kills both.
            if in_added:
                del self._added_edges[k]
            if in_orig:
                self._deleted_orig.add(k)

        # --- vertex deletions -------------------------------------------
        doomed: set[int] = set()
        for enc in prov[d.deleted_vertices].tolist():
            doomed.add(enc)
            if enc < n_old:
                if enc not in self._deleted_old:
                    self._deleted_old.add(enc)
                    self._deleted_old_weight += float(self.graph.vweights[enc])
            else:
                self._add_alive[enc - n_old] = False
                self._alive_added_weight -= self._add_w[enc - n_old]
        if doomed and self._added_edges:
            self._added_edges = {
                k: w
                for k, w in self._added_edges.items()
                if k[0] not in doomed and k[1] not in doomed
            }

        # --- vertex additions -------------------------------------------
        coords = (
            None
            if d.added_coords is None
            else np.asarray(d.added_coords, dtype=np.float64).reshape(
                d.num_added_vertices, -1
            )
        )
        for t in range(d.num_added_vertices):
            w_t = 1.0 if d.added_vweights is None else float(d.added_vweights[t])
            self._add_alive.append(True)
            self._add_w.append(w_t)
            self._alive_added_weight += w_t
            self._add_coords.append(None if coords is None else coords[t])

        # --- edge additions ---------------------------------------------
        for (u, v), w in zip(d.added_edges, _added_eweights(d)):
            a, b = encode(int(u)), encode(int(v))
            if a == b:
                raise GraphError("self-loops are not allowed")
            k = (a, b) if a < b else (b, a)
            if k in self._added_edges or self._orig_alive(k):
                if not self.accumulate_weights:
                    raise GraphError(
                        f"added edge ({int(u)}, {int(v)}) duplicates an "
                        f"existing edge at its step of the chain (pass "
                        f"accumulate_weights=True to sum the weights)"
                    )
                self._added_edges[k] = self._added_edges.get(k, ()) + (float(w),)
            else:
                self._added_edges[k] = (float(w),)

        # --- renumber into the next frame -------------------------------
        # One mask drops the deleted vertices; the additions append into
        # spare capacity, doubled when it runs out.
        n_keep = n_cur
        buf = self._prov_buf
        if len(d.deleted_vertices):
            survive = np.ones(n_cur, dtype=bool)
            survive[d.deleted_vertices] = False
            kept = prov[survive]
            n_keep = len(kept)
            buf[:n_keep] = kept
        n_next = n_keep + d.num_added_vertices
        if n_next > len(buf):
            buf = np.concatenate(
                [buf[:n_keep], np.empty(n_next, dtype=np.int64)]
            )
            self._prov_buf = buf
        buf[n_keep:n_next] = np.arange(
            n_old + base_j, n_old + base_j + d.num_added_vertices
        )
        self._prov = buf[:n_next]
        self.num_folded += 1
        return self

    # ------------------------------------------------------------------
    def to_delta(self) -> GraphDelta:
        """Materialise the composed delta (compacting cancelled additions)."""
        n_old = self.n_old
        alive_idx = [j for j, a in enumerate(self._add_alive) if a]
        remap = {n_old + j: n_old + r for r, j in enumerate(alive_idx)}

        def final_id(enc: int) -> int:
            return enc if enc < n_old else remap[enc]

        # An accumulated edge is listed once per addition, in fold order.
        edge_items = [
            (k, w) for k, ws in sorted(self._added_edges.items()) for w in ws
        ]
        comp_edges = np.array(
            [(final_id(a), final_id(b)) for (a, b), _ in edge_items],
            dtype=np.int64,
        ).reshape(-1, 2)
        comp_ew = np.array([w for _, w in edge_items], dtype=np.float64)

        comp_coords = None
        # Only the *dimension* is needed here; sharded graphs answer it
        # O(1) via coords_dim, whereas their coords property would page
        # every shard block just to be discarded.
        dim = getattr(self.graph, "coords_dim", None)
        if dim is None and self.graph.coords is not None:
            dim = self.graph.coords.shape[1]
        if dim is not None and any(
            self._add_coords[j] is not None for j in alive_idx
        ):
            comp_coords = np.full((len(alive_idx), dim), np.nan)
            for r, j in enumerate(alive_idx):
                if self._add_coords[j] is not None:
                    comp_coords[r] = self._add_coords[j]

        return GraphDelta(
            num_added_vertices=len(alive_idx),
            added_edges=comp_edges,
            deleted_vertices=np.array(sorted(self._deleted_old), dtype=np.int64),
            deleted_edges=np.array(
                sorted(self._deleted_orig), dtype=np.int64
            ).reshape(-1, 2),
            added_vweights=(
                np.array([self._add_w[j] for j in alive_idx], dtype=np.float64)
                if alive_idx
                else None
            ),
            added_eweights=comp_ew if len(comp_ew) else None,
            added_coords=comp_coords,
        )


def compose_deltas(
    graph: CSRGraph,
    deltas,
    *,
    strict: bool = True,
    accumulate_weights: bool = False,
) -> GraphDelta:
    """Fuse a chain of deltas into one equivalent :class:`GraphDelta`.

    ``deltas[0]`` is relative to ``graph``, ``deltas[i]`` to the graph
    produced by applying ``deltas[:i]``.  The result is a single delta
    relative to ``graph`` with the exact-equivalence invariant::

        apply_delta(graph, compose_deltas(graph, ds)).graph
            == reduce(apply_delta, ds, graph)          # same ids/weights

    and the same for the carried partition vector.  This holds because
    :func:`apply_delta` keeps survivors in relative order and appends new
    vertices at the end: the composed delta lists the *surviving*
    additions in chronological order, so the final numbering coincides
    with the sequential one.

    Cancellation rules: a vertex added by one delta and deleted by a later
    one vanishes entirely (with its incident edges); an edge added then
    deleted cancels; an original edge deleted then re-added becomes a
    delete + add pair (the re-added weight wins, as it does sequentially).
    Composition is associative — ``compose(g, [compose(g, ds[:k]),
    ds[k]])`` equals ``compose(g, ds[:k+1])`` — and
    :class:`DeltaComposer` exposes the fold step directly so streams can
    ingest one delta at a time without re-walking the accumulated state.

    ``strict`` / ``accumulate_weights`` carry the same meaning as in
    :func:`apply_delta`, enforced per chain step (so the composed delta is
    exactly as valid as the sequential application would have been).
    Under ``accumulate_weights=True`` an edge added more than once is
    listed once per addition, in chain order, so applying the composed
    delta (with ``accumulate_weights=True`` too) sums the weights in the
    order the chain did, bit for bit.
    """
    composer = DeltaComposer(
        graph, strict=strict, accumulate_weights=accumulate_weights
    )
    for d in deltas:
        if d is not None:
            composer.fold(d)
    return composer.to_delta()
