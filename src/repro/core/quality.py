"""Partition quality metrics — the columns of the paper's tables.

The tables in Figures 11 and 14 report, per partitioner:

* ``Cutset Total`` — the number of edges crossing between partitions
  (each cross edge counted once),
* ``Cutset Max`` / ``Min`` — the largest / smallest per-partition
  boundary cost ``C(q)`` of eq. (2), i.e. the weight of edges leaving
  partition ``q`` (each cross edge counts toward *both* endpoints'
  partitions, so ``sum(C) = 2 · total``).

Load metrics implement eq. (1): ``W(q)`` is the vertex-weight sum of
partition ``q``; imbalance is ``max W / mean W``.

Every metric reads the graph through the graph-view surface
(``rows(ensure_boundary(part))``), so it accepts a
:class:`~repro.graph.csr.CSRGraph` or a
:class:`~repro.graph.frame.BoundaryFrame` — the latter pages only the
shards that own boundary rows.  A bare
:class:`~repro.graph.sharded.ShardedCSRGraph` handle (duck-typed on
``iter_shards``) is also accepted: cut metrics then stream one shard
block at a time instead of materialising global arc arrays, so
evaluating a partition never needs more than one resident shard of edge
data — the vertex-indexed vectors (``part``, ``vweights``) are O(|V|)
and assumed to fit, as in semi-external graph processing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "PartitionQuality",
    "partition_weights",
    "partition_sizes",
    "edge_cut",
    "cut_metrics",
    "evaluate_partition",
    "validate_partition_vector",
]


def _is_sharded(graph) -> bool:
    """Shard-streaming graphs expose ``iter_shards`` (see module doc)."""
    return hasattr(graph, "iter_shards")


def validate_partition_vector(
    graph: CSRGraph, part: np.ndarray, num_partitions: int, allow_unassigned: bool = False
) -> np.ndarray:
    """Check ``part`` maps every vertex into ``[0, P)`` (or -1 if allowed)."""
    part = np.asarray(part, dtype=np.int64)
    if len(part) != graph.num_vertices:
        raise GraphError(
            f"partition vector length {len(part)} != n={graph.num_vertices}"
        )
    lo = -1 if allow_unassigned else 0
    if len(part) and (part.min() < lo or part.max() >= num_partitions):
        raise GraphError("partition ids out of range")
    return part


def partition_weights(graph: CSRGraph, part: np.ndarray, num_partitions: int) -> np.ndarray:
    """``W(q)`` per partition (eq. 1)."""
    part = validate_partition_vector(graph, part, num_partitions)
    return np.bincount(part, weights=graph.vweights, minlength=num_partitions)


def partition_sizes(graph: CSRGraph, part: np.ndarray, num_partitions: int) -> np.ndarray:
    """``|B(q)|`` per partition (vertex counts)."""
    part = validate_partition_vector(graph, part, num_partitions)
    return np.bincount(part, minlength=num_partitions)


def _cross_arcs(graph, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sources and weights of the cross arcs of ``part``, read through
    the graph view's boundary-superset rows.

    Every cross arc's source is a boundary vertex, so these are exactly
    the graph's cross arcs, in global CSR order: sums and bincounts over
    them accumulate in the same order on every view.
    """
    src, dst, ew = graph.rows(graph.ensure_boundary(part))
    cross = part[src] != part[dst]
    return src[cross], ew[cross]


def edge_cut(graph: CSRGraph, part: np.ndarray) -> float:
    """Total weight of cross edges, each counted once (``Cutset Total``)."""
    part = np.asarray(part, dtype=np.int64)
    if _is_sharded(graph):
        total = 0.0
        for _, block in graph.iter_shards():
            src = graph.current_ids(block.arc_sources())
            dst = graph.current_ids(block.adj)
            cross = part[src] != part[dst]
            total += float(block.eweights[cross].sum())
        return total / 2.0
    _, cross_ew = _cross_arcs(graph, part)
    return float(cross_ew.sum() / 2.0)


def cut_metrics(
    graph: CSRGraph, part: np.ndarray, num_partitions: int
) -> tuple[float, np.ndarray]:
    """``(total, C)`` where ``C[q]`` is eq. (2)'s outgoing-edge cost of q."""
    part = validate_partition_vector(graph, part, num_partitions)
    if _is_sharded(graph):
        per_part = np.zeros(num_partitions, dtype=np.float64)
        for _, block in graph.iter_shards():
            src = graph.current_ids(block.arc_sources())
            dst = graph.current_ids(block.adj)
            cross = part[src] != part[dst]
            per_part += np.bincount(
                part[src[cross]],
                weights=block.eweights[cross],
                minlength=num_partitions,
            )
        return float(per_part.sum() / 2.0), per_part
    cross_src, cross_ew = _cross_arcs(graph, part)
    per_part = np.bincount(
        part[cross_src], weights=cross_ew, minlength=num_partitions
    )
    return float(per_part.sum() / 2.0), per_part


@dataclass(frozen=True)
class PartitionQuality:
    """Bundle of every metric the paper's tables report."""

    num_partitions: int
    cut_total: float
    cut_max: float
    cut_min: float
    cut_per_partition: np.ndarray
    weights: np.ndarray
    imbalance: float

    def row(self) -> dict[str, float]:
        """Flat dict for the table printers."""
        return {
            "cut_total": self.cut_total,
            "cut_max": self.cut_max,
            "cut_min": self.cut_min,
            "imbalance": self.imbalance,
            "w_max": float(self.weights.max()),
            "w_min": float(self.weights.min()),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"cut total={self.cut_total:.0f} max={self.cut_max:.0f} "
            f"min={self.cut_min:.0f} imbalance={self.imbalance:.3f}"
        )


def evaluate_partition(
    graph: CSRGraph, part: np.ndarray, num_partitions: int
) -> PartitionQuality:
    """Compute the full quality bundle for a partition vector."""
    total, per_part = cut_metrics(graph, part, num_partitions)
    w = partition_weights(graph, part, num_partitions)
    mean = w.sum() / num_partitions if num_partitions else 0.0
    return PartitionQuality(
        num_partitions=num_partitions,
        cut_total=total,
        cut_max=float(per_part.max()) if num_partitions else 0.0,
        cut_min=float(per_part.min()) if num_partitions else 0.0,
        cut_per_partition=per_part,
        weights=w,
        imbalance=float(w.max() / mean) if mean > 0 else np.inf,
    )
