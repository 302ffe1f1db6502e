"""Step 2 — layering each partition (paper §2.2, Figure 3).

For every vertex the algorithm determines the *closest foreign partition*
``L'(v)`` (eqs. 8–9) and its BFS layer depth within its own partition:

* **layer 0**: vertices with at least one cross edge; their label is the
  foreign partition they have the most edges to (``max_l Count[l]``, ties
  toward the smaller partition id — the paper breaks ties arbitrarily);
* **layer k**: vertices adjacent (within their partition) to layer k−1;
  their label is the most frequent label among those layer-(k−1)
  neighbours (again ``max_l count[v][tag]``).

The per-pair totals ``delta[i][j]`` — the paper's ``δ_ij``, the weight of
partition-``i`` vertices whose closest foreign partition is ``j`` — upper-
bound the movement variables of the balance LP.

The sweep below runs all partitions simultaneously: a frontier arc only
propagates between same-partition endpoints, so per-partition BFS waves
cannot interfere.  Each level reads only its frontier's adjacency rows
through the graph view's ``rows()``, in pure-numpy batches (no
per-vertex Python loops).  ``rows()`` returns a global-CSR-order
subsequence of the arc arrays on every view, so the same keys reach
``np.unique``/``np.bincount`` in the same order whether the graph is a
:class:`~repro.graph.csr.CSRGraph` or a sharded graph read through a
:class:`~repro.graph.frame.BoundaryFrame`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LayeringResult", "layer_partitions"]


@dataclass(frozen=True)
class LayeringResult:
    """Output of :func:`layer_partitions`.

    Attributes
    ----------
    label:
        ``L'(v)`` per vertex — the closest foreign partition; ``-1`` for
        *landlocked* vertices that cannot reach their partition's boundary
        (possible only when a partition is internally disconnected).
    layer:
        BFS depth of ``v`` within its partition (0 = boundary, ``-1`` for
        landlocked vertices).
    delta:
        ``(P, P)`` matrix of movable vertex weight, ``delta[i, j] = δ_ij``.
    num_partitions:
        ``P``.
    """

    label: np.ndarray
    layer: np.ndarray
    delta: np.ndarray
    num_partitions: int

    def candidates(self, part: np.ndarray, i: int, j: int) -> np.ndarray:
        """Vertices of partition ``i`` labeled ``j``, boundary-first.

        Sorted by (layer, vertex id) so movers pick vertices closest to
        the ``i``/``j`` boundary first — the property §2.2 uses to keep
        the cut small while rebalancing.
        """
        mask = (part == i) & (self.label == j)
        verts = np.flatnonzero(mask)
        order = np.lexsort((verts, self.layer[verts]))
        return verts[order]

    def neighbor_pairs(self) -> list[tuple[int, int]]:
        """Ordered partition pairs ``(i, j)`` with ``δ_ij > 0``."""
        ii, jj = np.nonzero(self.delta > 0)
        return list(zip(ii.tolist(), jj.tolist()))


def _argmax_per_group(
    groups: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    label_priority: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per group, the label with max count.

    ``groups/labels/counts`` are parallel arrays of (group, label, count)
    records; returns unique groups and their winning labels.  Ties break
    by ``label_priority`` (smaller first) when given, then by smaller
    label — the paper breaks them "arbitrarily"; a load-aware priority
    keeps the δ corridors toward under-loaded partitions open (see
    :func:`layer_partitions`).
    """
    if label_priority is None:
        order = np.lexsort((labels, -counts, groups))
    else:
        order = np.lexsort((labels, label_priority[labels], -counts, groups))
    g, l = groups[order], labels[order]
    first = np.ones(len(g), dtype=bool)
    first[1:] = g[1:] != g[:-1]
    return g[first], l[first]


def layer_partitions(
    graph,
    part: np.ndarray,
    num_partitions: int,
    loads: np.ndarray | None = None,
) -> LayeringResult:
    """Run the Figure 3 layering over all partitions at once.

    ``graph`` is a graph view (a :class:`~repro.graph.csr.CSRGraph` or a
    :class:`~repro.graph.frame.BoundaryFrame`).  Level 0 reads the rows
    of the view's boundary superset and tightens it to the exact
    boundary; each deeper level reads only the rows of the previous
    level's winners.

    ``loads`` (current per-partition weights) optionally steers the
    boundary-label tie-break toward lighter partitions, which keeps a
    movement corridor open between every pair of adjacent partitions —
    without it, a vertex with equally many edges to two foreign
    partitions always labels the smaller id, and the balance flow can be
    walled off from an under-loaded neighbour (the paper's tie-break is
    "arbitrary", so this choice is within its specification).
    """
    n = graph.num_vertices
    p = num_partitions
    part = np.asarray(part, dtype=np.int64)
    label = np.full(n, -1, dtype=np.int64)
    layer = np.full(n, -1, dtype=np.int64)
    priority = None if loads is None else np.asarray(loads, dtype=np.float64)

    # ---- layer 0: boundary vertices --------------------------------
    # Every cross arc's source is a boundary vertex, so the cross arcs
    # of the superset's rows are exactly the graph's cross arcs.
    bsrc, bdst, _ = graph.rows(graph.ensure_boundary(part))
    cross = part[bsrc] != part[bdst]
    cross_src = bsrc[cross]
    cross_lab = part[bdst[cross]]
    if len(cross_src):
        # Count cross edges per (vertex, foreign partition).
        key = cross_src * np.int64(p) + cross_lab
        uniq, counts = np.unique(key, return_counts=True)
        g, l = _argmax_per_group(uniq // p, uniq % p, counts, priority)
        label[g] = l
        layer[g] = 0
        frontier = g  # sorted unique — exactly the boundary
    else:
        frontier = np.zeros(0, dtype=np.int64)
    graph.set_boundary(frontier)

    # ---- layers 1..k: propagate inward within each partition --------
    depth = 0
    while len(frontier):
        depth += 1
        fsrc, fdst, _ = graph.rows(frontier)
        active = (part[fsrc] == part[fdst]) & (label[fdst] < 0)
        if not active.any():
            break
        v = fdst[active]
        lab = label[fsrc[active]]
        key = v * np.int64(p) + lab
        uniq, counts = np.unique(key, return_counts=True)
        g, l = _argmax_per_group(uniq // p, uniq % p, counts)
        label[g] = l
        layer[g] = depth
        frontier = g

    # ---- δ matrix ----------------------------------------------------
    delta = np.zeros((p, p), dtype=np.float64)
    labeled = label >= 0
    if labeled.any():
        flat = part[labeled] * np.int64(p) + label[labeled]
        delta_flat = np.bincount(
            flat, weights=graph.vweights[labeled], minlength=p * p
        )
        delta = delta_flat.reshape(p, p)
    return LayeringResult(
        label=label, layer=layer, delta=delta, num_partitions=p
    )
