"""Immutable compressed-sparse-row undirected graph container.

This is the substrate data structure of the whole library (DESIGN.md S1).
The layout follows the paper's Figure 3 conventions:

* ``xadj[v] : xadj[v + 1]`` slices the adjacency list of vertex ``v``
  (the paper's ``xadj_i[v[j]]``),
* ``adj`` is the concatenated adjacency lists (the paper's ``adj_i``),
* each undirected edge ``{u, v}`` is stored twice, once per endpoint.

Vertex and edge weights are carried explicitly (paper eqs. (1)–(2): vertex
weight ``w_i`` is a computation cost, edge weight ``w_e(v1, v2)`` an
interaction cost); the unit-weight case of the experiments is just the
default.

The container is *immutable*: incremental updates go through
:mod:`repro.graph.incremental`, which produces a brand-new ``CSRGraph``
plus index mappings.  Immutability is what makes it safe to share one graph
across all ranks of the virtual parallel machine without copies (see the
"views, not copies" guidance in the domain optimization guide).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import EdgeNotFoundError, GraphValidationError

__all__ = ["CSRGraph"]


class CSRGraph:
    """Undirected graph in CSR form with optional vertex/edge weights.

    Parameters
    ----------
    xadj:
        ``int64`` array of length ``n + 1``; monotone, ``xadj[0] == 0`` and
        ``xadj[n] == len(adj)``.
    adj:
        ``int64`` array of neighbour indices; every undirected edge appears
        in both endpoint lists.
    vweights:
        optional ``float64`` array of length ``n`` (defaults to ones).
    eweights:
        optional ``float64`` array aligned with ``adj`` (defaults to ones);
        must be symmetric: the weight stored for arc ``u→v`` equals the one
        for ``v→u``.
    coords:
        optional ``(n, d)`` float array of vertex coordinates.  The paper
        §1 stresses that its method does *not* use coordinates; they are
        carried only so coordinate-based baselines (RCB, inertial) and mesh
        plotting have something to work with.
    validate:
        run full structural validation (on by default; heavy inner loops
        are vectorised so this is cheap even for 10^5-edge graphs).
    """

    __slots__ = ("xadj", "adj", "vweights", "eweights", "coords", "_degree_cache")

    def __init__(
        self,
        xadj: np.ndarray,
        adj: np.ndarray,
        vweights: np.ndarray | None = None,
        eweights: np.ndarray | None = None,
        coords: np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        xadj = np.ascontiguousarray(xadj, dtype=np.int64)
        adj = np.ascontiguousarray(adj, dtype=np.int64)
        n = len(xadj) - 1
        if vweights is None:
            vweights = np.ones(n, dtype=np.float64)
        else:
            vweights = np.ascontiguousarray(vweights, dtype=np.float64)
        if eweights is None:
            eweights = np.ones(len(adj), dtype=np.float64)
        else:
            eweights = np.ascontiguousarray(eweights, dtype=np.float64)
        if coords is not None:
            coords = np.ascontiguousarray(coords, dtype=np.float64)
            if coords.ndim == 1:
                coords = coords[:, None]

        self.xadj = xadj
        self.adj = adj
        self.vweights = vweights
        self.eweights = eweights
        self.coords = coords
        self._degree_cache: np.ndarray | None = None

        # Freeze the arrays: the container is documented immutable and the
        # virtual machine shares it across ranks.
        for arr in (self.xadj, self.adj, self.vweights, self.eweights):
            arr.setflags(write=False)
        if self.coords is not None:
            self.coords.setflags(write=False)

        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n = |V|``."""
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges ``m = |E|`` (each stored twice)."""
        return len(self.adj) // 2

    @property
    def num_arcs(self) -> int:
        """Number of directed arcs, i.e. ``2 m``."""
        return len(self.adj)

    @property
    def total_vertex_weight(self) -> float:
        """Sum of all vertex weights (the paper's total load)."""
        return float(self.vweights.sum())

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"weighted_v={not np.all(self.vweights == 1.0)}, "
            f"weighted_e={not np.all(self.eweights == 1.0)}, "
            f"coords={self.coords is not None})"
        )

    # ------------------------------------------------------------------
    # Adjacency access
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbour list of vertex ``v``."""
        return self.adj[self.xadj[v] : self.xadj[v + 1]]

    def incident_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors` of ``v``."""
        return self.eweights[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def degrees(self) -> np.ndarray:
        """Vector of all vertex degrees (cached)."""
        if self._degree_cache is None:
            d = np.diff(self.xadj)
            d.setflags(write=False)
            self._degree_cache = d
        return self._degree_cache

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex."""
        return np.bincount(
            self.arc_sources(), weights=self.eweights, minlength=self.num_vertices
        )

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff the undirected edge ``{u, v}`` exists."""
        nbrs = self.neighbors(u)
        # adjacency lists are sorted by construction (see GraphBuilder)
        idx = np.searchsorted(nbrs, v)
        return bool(idx < len(nbrs) and nbrs[idx] == v)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``{u, v}``; raises ``KeyError`` if absent."""
        nbrs = self.neighbors(u)
        idx = np.searchsorted(nbrs, v)
        if idx >= len(nbrs) or nbrs[idx] != v:
            raise EdgeNotFoundError(f"edge ({u}, {v}) not in graph")
        return float(self.incident_weights(u)[idx])

    # ------------------------------------------------------------------
    # Edge iteration / export
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """``(m, 2)`` array of undirected edges with ``u < v`` (vectorised)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj))
        mask = src < self.adj
        return np.column_stack([src[mask], self.adj[mask]])

    def edge_weight_array(self) -> np.ndarray:
        """Weights aligned with :meth:`edge_array`."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj))
        mask = src < self.adj
        return self.eweights[mask].copy()

    def arc_sources(self) -> np.ndarray:
        """Source vertex of each stored arc (length ``2 m``)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj))

    # ------------------------------------------------------------------
    # Graph-view surface: what the repartition phases read.  The sharded
    # implementation is repro.graph.frame.BoundaryFrame; on a monolith
    # the boundary "superset" is simply every vertex.
    # ------------------------------------------------------------------
    def rows(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency rows of ``vertices`` (sorted unique ids) as flat arc
        arrays ``(src, dst, ew)``, in CSR order.  All ``n`` vertices
        return ``(arc_sources(), adj, eweights)`` without a copy."""
        verts = np.asarray(vertices, dtype=np.int64)
        if len(verts) == self.num_vertices:
            return self.arc_sources(), self.adj, self.eweights
        idx, counts = _row_gather(self.xadj, verts)
        return np.repeat(verts, counts), self.adj[idx], self.eweights[idx]

    def ensure_boundary(self, part: np.ndarray) -> np.ndarray:
        """Every vertex: a superset of the boundary under any ``part``."""
        return np.arange(self.num_vertices, dtype=np.int64)

    def set_boundary(self, vertices: np.ndarray) -> None:
        """No-op: a monolith keeps no boundary state."""

    def note_moves(self, moved: np.ndarray) -> None:
        """No-op: a monolith keeps no boundary state."""

    def to_adjacency_dict(self) -> dict[int, list[int]]:
        """Export as ``{u: sorted neighbour list}`` (for tests / debugging)."""
        return {
            u: [int(v) for v in self.neighbors(u)] for u in range(self.num_vertices)
        }

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_vertex_weights(self, vweights: np.ndarray) -> "CSRGraph":
        """Copy of the graph with different vertex weights."""
        return CSRGraph(
            self.xadj,
            self.adj,
            vweights=np.asarray(vweights, dtype=np.float64).copy(),
            eweights=self.eweights,
            coords=self.coords,
            validate=False,
        )

    def with_edge_weights(self, eweights: np.ndarray) -> "CSRGraph":
        """Copy of the graph with different (symmetric) edge weights."""
        g = CSRGraph(
            self.xadj,
            self.adj,
            vweights=self.vweights,
            eweights=np.asarray(eweights, dtype=np.float64).copy(),
            coords=self.coords,
            validate=False,
        )
        g._validate_edge_weight_symmetry()
        return g

    def with_coords(self, coords: np.ndarray) -> "CSRGraph":
        """Copy of the graph with vertex coordinates attached."""
        coords = np.asarray(coords, dtype=np.float64)
        if len(coords) != self.num_vertices:
            raise GraphValidationError(
                f"coords has {len(coords)} rows for {self.num_vertices} vertices"
            )
        return CSRGraph(
            self.xadj,
            self.adj,
            vweights=self.vweights,
            eweights=self.eweights,
            coords=coords.copy(),
            validate=False,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise GraphValidationError."""
        n = self.num_vertices
        if n < 0:
            raise GraphValidationError("xadj must have length >= 1")
        if self.xadj[0] != 0:
            raise GraphValidationError("xadj[0] must be 0")
        if self.xadj[-1] != len(self.adj):
            raise GraphValidationError(
                f"xadj[-1]={self.xadj[-1]} != len(adj)={len(self.adj)}"
            )
        if np.any(np.diff(self.xadj) < 0):
            raise GraphValidationError("xadj must be non-decreasing")
        if len(self.adj) and (self.adj.min() < 0 or self.adj.max() >= n):
            raise GraphValidationError("adj contains out-of-range vertex ids")
        if len(self.vweights) != n:
            raise GraphValidationError(
                f"vweights length {len(self.vweights)} != n={n}"
            )
        if len(self.eweights) != len(self.adj):
            raise GraphValidationError(
                f"eweights length {len(self.eweights)} != len(adj)={len(self.adj)}"
            )
        if self.coords is not None and len(self.coords) != n:
            raise GraphValidationError(
                f"coords rows {len(self.coords)} != n={n}"
            )
        # No self loops.
        src = self.arc_sources()
        if np.any(src == self.adj):
            raise GraphValidationError("self-loops are not allowed")
        # Sorted adjacency + no duplicate edges.
        for u in range(n):
            nbrs = self.neighbors(u)
            if len(nbrs) > 1 and np.any(np.diff(nbrs) <= 0):
                raise GraphValidationError(
                    f"adjacency of vertex {u} is not strictly sorted"
                )
        self._validate_symmetry()
        self._validate_edge_weight_symmetry()

    def _validate_symmetry(self) -> None:
        """Every arc u→v must have a mirror v→u (vectorised check)."""
        src = self.arc_sources()
        if len(src) == 0:
            return
        # Encode arcs as composite keys and compare sorted forward/backward.
        n = self.num_vertices
        fwd = np.sort(src * n + self.adj)
        bwd = np.sort(self.adj * n + src)
        if not np.array_equal(fwd, bwd):
            raise GraphValidationError("adjacency is not symmetric")

    def _validate_edge_weight_symmetry(self) -> None:
        """w(u→v) must equal w(v→u)."""
        src = self.arc_sources()
        if len(src) == 0:
            return
        n = self.num_vertices
        key_fwd = src * n + self.adj
        order_fwd = np.argsort(key_fwd, kind="stable")
        key_bwd = self.adj * n + src
        order_bwd = np.argsort(key_bwd, kind="stable")
        if not np.allclose(
            self.eweights[order_fwd], self.eweights[order_bwd], rtol=0, atol=0
        ):
            raise GraphValidationError("edge weights are not symmetric")

    # ------------------------------------------------------------------
    # Equality (structural) — used heavily by tests
    # ------------------------------------------------------------------
    def same_structure(self, other: "CSRGraph") -> bool:
        """True iff vertex set, adjacency and weights are identical."""
        return (
            np.array_equal(self.xadj, other.xadj)
            and np.array_equal(self.adj, other.adj)
            and np.array_equal(self.vweights, other.vweights)
            and np.array_equal(self.eweights, other.eweights)
        )

    # ------------------------------------------------------------------
    # Serialization (durable session snapshots)
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat ``{name: array}`` view of the graph, ``np.savez``-ready.

        Keys are ``xadj`` / ``adj`` / ``vweights`` / ``eweights`` and,
        when coordinates are attached, ``coords``.  The arrays are the
        graph's own read-only buffers (no copy); round-trips exactly
        through :meth:`from_arrays`.
        """
        arrays = {
            "xadj": self.xadj,
            "adj": self.adj,
            "vweights": self.vweights,
            "eweights": self.eweights,
        }
        if self.coords is not None:
            arrays["coords"] = self.coords
        return arrays

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], *, validate: bool = True
    ) -> "CSRGraph":
        """Rebuild a graph from a :meth:`to_arrays` dict.

        ``validate=True`` (default) re-runs full structural validation, so
        a snapshot whose arrays were corrupted on disk fails loudly here
        rather than corrupting a later repartition.
        """
        missing = {"xadj", "adj", "vweights", "eweights"} - set(arrays)
        if missing:
            raise GraphValidationError(
                f"graph arrays missing required keys: {sorted(missing)}"
            )
        return cls(
            arrays["xadj"],
            arrays["adj"],
            vweights=arrays["vweights"],
            eweights=arrays["eweights"],
            coords=arrays.get("coords"),
            validate=validate,
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(n: int = 0) -> "CSRGraph":
        """Graph with ``n`` vertices and no edges."""
        return CSRGraph(
            np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )

    @staticmethod
    def from_edges(
        n: int,
        edges: Iterable[tuple[int, int]],
        *,
        eweights: Iterable[float] | None = None,
        vweights: np.ndarray | None = None,
        coords: np.ndarray | None = None,
    ) -> "CSRGraph":
        """Build from an undirected edge list (delegates to GraphBuilder)."""
        from repro.graph.builder import from_edge_list

        return from_edge_list(
            n, edges, eweights=eweights, vweights=vweights, coords=coords
        )


def _ramp(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for the given segment lengths."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    return np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )


def _row_gather(xadj: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices selecting the adjacency rows of ``vertices``; also
    returns the per-vertex row lengths."""
    starts = xadj[vertices]
    counts = xadj[vertices + 1] - starts
    return np.repeat(starts, counts) + _ramp(counts), counts
