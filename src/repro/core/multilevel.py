"""Multilevel partitioning — the paper's stated future work.

§3 closes with: "Another option is to use a multilevel approach and apply
incremental partitioning recursively.  We are currently exploring this
approach."  This module implements that direction:

1. **Coarsening** by heavy-edge matching (match each vertex to its
   heaviest unmatched neighbour; contract matched pairs, summing vertex
   weights and parallel-edge weights) until the graph is small;
2. **Initial partitioning** of the coarsest graph with RSB;
3. **Uncoarsening** where each level's projected partition is *repaired
   with the paper's own machinery*: the balance LP restores load balance
   (contraction makes weights non-uniform) and the refinement LP improves
   the cut — i.e. incremental partitioning applied recursively, level by
   level, exactly the future-work sentence.

This also serves as an extra from-scratch baseline in the comparison
example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ops import PhaseOps
from repro.core.partitioner import IGPConfig, IncrementalGraphPartitioner
from repro.core.refine import refine_partition
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.rng import make_rng
from repro.spectral.rsb import rsb_partition

__all__ = ["CoarseLevel", "coarsen_heavy_edge", "multilevel_bisection_partition"]


@dataclass(frozen=True)
class CoarseLevel:
    """One coarsening step: the coarse graph and the fine→coarse map."""

    graph: CSRGraph
    fine_to_coarse: np.ndarray


def coarsen_heavy_edge(graph: CSRGraph, seed=None) -> CoarseLevel:
    """One round of heavy-edge matching contraction.

    Vertices are visited in random order; each unmatched vertex matches
    its heaviest unmatched neighbour (ties toward smaller id).  Unmatched
    leftovers map to singleton coarse vertices.
    """
    n = graph.num_vertices
    rng = make_rng(seed)
    order = rng.permutation(n)
    match = np.full(n, -1, dtype=np.int64)
    for v in order:
        if match[v] >= 0:
            continue
        nbrs = graph.neighbors(v)
        ws = graph.incident_weights(v)
        best, best_w = -1, -np.inf
        for u, w in zip(nbrs.tolist(), ws.tolist()):
            if match[u] < 0 and u != v and (w > best_w or (w == best_w and u < best)):
                best, best_w = u, w
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v  # singleton

    # Assign coarse ids: one per matched pair / singleton.
    fine_to_coarse = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if fine_to_coarse[v] >= 0:
            continue
        fine_to_coarse[v] = next_id
        m = match[v]
        if m != v and fine_to_coarse[m] < 0:
            fine_to_coarse[m] = next_id
        next_id += 1

    # Contracted vertex weights and edges.
    cw = np.zeros(next_id)
    np.add.at(cw, fine_to_coarse, graph.vweights)
    edges = graph.edge_array()
    eweights = graph.edge_weight_array()
    cu, cv = fine_to_coarse[edges[:, 0]], fine_to_coarse[edges[:, 1]]
    keep = cu != cv
    coords = None
    if graph.coords is not None:
        coords = np.zeros((next_id, graph.coords.shape[1]))
        counts = np.bincount(fine_to_coarse, minlength=next_id).astype(float)
        np.add.at(coords, fine_to_coarse, graph.coords)
        coords /= counts[:, None]
    coarse = from_edge_list(
        next_id,
        np.column_stack([cu[keep], cv[keep]]),
        eweights=eweights[keep],
        vweights=cw,
        coords=coords,
    )
    return CoarseLevel(graph=coarse, fine_to_coarse=fine_to_coarse)


def multilevel_bisection_partition(
    graph: CSRGraph,
    num_partitions: int,
    *,
    coarsen_to: int = 256,
    max_levels: int = 12,
    seed=None,
    lp_backend: str = "tableau",
) -> np.ndarray:
    """Multilevel partitioner with LP-based uncoarsening repair.

    See the module docstring; returns a partition vector.
    """
    rng = make_rng(seed)
    levels: list[CoarseLevel] = []
    current = graph
    while current.num_vertices > max(coarsen_to, 2 * num_partitions) and len(levels) < max_levels:
        lvl = coarsen_heavy_edge(current, seed=rng)
        if lvl.graph.num_vertices >= current.num_vertices:  # no progress
            break
        levels.append(lvl)
        current = lvl.graph

    part = rsb_partition(current, num_partitions, seed=rng)

    igp = IncrementalGraphPartitioner(
        IGPConfig(
            num_partitions=num_partitions,
            refine=False,
            lp_backend=lp_backend,
        )
    )
    ops = PhaseOps(num_partitions, lp_backend)
    from repro.errors import RepartitionInfeasibleError

    for idx in range(len(levels) - 1, -1, -1):
        lvl = levels[idx]
        # Project: each fine vertex inherits its coarse vertex's partition.
        part = part[lvl.fine_to_coarse]
        # The graph that was coarsened to produce lvl.graph is the
        # original at idx == 0, otherwise the previous level's output.
        level_graph = graph if idx == 0 else levels[idx - 1].graph
        # Repair with the paper's machinery: balance LP then refine LP.
        try:
            part = igp.repartition(level_graph, part).part
        except RepartitionInfeasibleError:
            pass  # keep the projected partition if balance is impossible
        part, _ = refine_partition(level_graph, part, num_partitions, ops=ops)
    return part
