"""Step 1 — initial assignment of new vertices (paper §2.1).

Every new vertex ``v ∈ V1`` receives the partition of the nearest old
vertex in the incremental graph (eq. 7) — a multi-source BFS seeded at
all old vertices (ties between equidistant partitions break toward the
smaller partition id, a deterministic stand-in for the paper's arbitrary
tie-break).  Only the *new* vertices' rows are read: the old region's
wave reaches a new vertex ``u`` at level 1 over the mirrors of ``u``'s
own arcs, and deeper levels expand out of new vertices already claimed.

When the graph is disconnected and some new vertices cannot reach any old
vertex, the paper's fallback applies: those vertices are clustered into
connected components and each cluster is assigned to the partition with
the least total weight (including the clusters already placed, so several
clusters spread across light partitions).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

__all__ = ["assign_new_vertices"]


def assign_new_vertices(graph, part: np.ndarray, num_partitions: int) -> np.ndarray:
    """Resolve ``-1`` entries of ``part`` to partitions (returns a copy).

    Parameters
    ----------
    graph:
        the incremental graph ``G'`` as a graph view — a
        :class:`~repro.graph.csr.CSRGraph` or a
        :class:`~repro.graph.frame.BoundaryFrame`.
    part:
        partition vector carried over from the old graph
        (:func:`repro.graph.incremental.carry_partition`); ``-1`` marks
        the new vertices.
    num_partitions:
        ``P``.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    n = graph.num_vertices
    if len(part) != n:
        raise GraphError("partition vector length mismatch")
    unassigned = part < 0
    if not unassigned.any():
        return part
    if unassigned.all():
        raise GraphError(
            "no assigned vertices to inherit from; partition the graph "
            "from scratch instead (paper §2.1 assumes an existing mapping)"
        )

    src, dst, _ = graph.rows(np.flatnonzero(unassigned))
    owner = np.where(unassigned, -1, part)
    claimed = ~unassigned

    # Level 1: the old region's wave arrives over the mirror arcs u->v
    # (u new, v old) — the same (u, part[v]) multiset the v->u arcs hold.
    sel = owner[dst] >= 0
    nbrs, lab = src[sel], part[dst[sel]]
    while len(nbrs):
        # Smallest label wins a tie: sort by (vertex, label), keep first.
        o = np.lexsort((lab, nbrs))
        nbrs, lab = nbrs[o], lab[o]
        first = np.ones(len(nbrs), dtype=bool)
        first[1:] = nbrs[1:] != nbrs[:-1]
        nbrs, lab = nbrs[first], lab[first]
        owner[nbrs] = lab
        claimed[nbrs] = True
        frontier_mask = np.zeros(n, dtype=bool)
        frontier_mask[nbrs] = True
        active = frontier_mask[src] & ~claimed[dst]
        nbrs, lab = dst[active], owner[src[active]]

    reached = unassigned & (owner >= 0)
    part[reached] = owner[reached]

    # Fallback: clusters of new vertices disconnected from every old
    # vertex go to the lightest partition (paper §2.1, second bullet).
    # Such a cluster is a whole connected component of new vertices;
    # components are placed in order of their smallest member id.
    rest = np.flatnonzero(part < 0)
    if len(rest):
        weights = np.bincount(
            part[part >= 0], weights=graph.vweights[part >= 0],
            minlength=num_partitions,
        ).astype(np.float64)
        restmask = np.zeros(n, dtype=bool)
        restmask[rest] = True
        between = restmask[src] & restmask[dst]
        adj_map: dict[int, list[int]] = {}
        for a, b in zip(src[between].tolist(), dst[between].tolist()):
            adj_map.setdefault(a, []).append(b)
        seen: set[int] = set()
        for start in rest.tolist():
            if start in seen:
                continue
            seen.add(start)
            members = [start]
            queue = [start]
            while queue:
                u = queue.pop()
                for v in adj_map.get(u, ()):
                    if v not in seen:
                        seen.add(v)
                        members.append(v)
                        queue.append(v)
            cluster = np.asarray(sorted(members), dtype=np.int64)
            target = int(np.argmin(weights))
            part[cluster] = target
            weights[target] += graph.vweights[cluster].sum()
    return part
