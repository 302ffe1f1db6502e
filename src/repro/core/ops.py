"""The seam between the repartition phases and the machine they run on.

The stage loop of :class:`~repro.core.partitioner.IncrementalGraphPartitioner`
and the phase functions are one code path, serial and SPMD alike.  A
serial run and one rank of :mod:`repro.core.parallel_igp` differ only in
what :class:`PhaseOps` provides: assignment, layering, the LP solve, the
per-partition loads, applying movers, the edge cut and the span tracer.
The serial defaults here are plain calls; a rank adds the exchanges a
distributed-memory run needs and swaps in the column-distributed simplex
and the allreduces.
"""

from __future__ import annotations

import numpy as np

from repro.core.assign import assign_new_vertices
from repro.core.layering import LayeringResult, layer_partitions
from repro.core.mover import apply_moves
from repro.core.quality import edge_cut, partition_weights
from repro.lp.backends import solve_with_backend
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult
from repro.lp.revised import BasisCarrier
from repro.obs import Tracer, get_tracer

__all__ = ["PhaseOps"]


class PhaseOps:
    """Serial implementations of the operations the SPMD ranks replace."""

    def __init__(self, num_partitions: int, lp_backend: str):
        self.num_partitions = num_partitions
        self.lp_backend = lp_backend

    def tracer(self) -> Tracer:
        """The tracer that records the ``lp.*`` phase spans."""
        return get_tracer()

    def assign(self, graph, part: np.ndarray) -> np.ndarray:
        """Step 1: ``part`` with its ``-1`` entries resolved."""
        return assign_new_vertices(graph, part, self.num_partitions)

    def layer(self, graph, part: np.ndarray, loads: np.ndarray) -> LayeringResult:
        """Step 2: the layering of ``part`` (ties toward light ``loads``)."""
        return layer_partitions(graph, part, self.num_partitions, loads=loads)

    def solve(self, lp: LinearProgram, carrier: BasisCarrier | None) -> LPResult:
        """Solve one pipeline LP, warm from ``carrier`` and back into it."""
        result = solve_with_backend(
            self.lp_backend, lp, carrier.basis if carrier is not None else None
        )
        if carrier is not None:
            carrier.update_from(result)
        return result

    def loads(self, graph, part: np.ndarray) -> np.ndarray:
        """``W(q)`` per partition."""
        return partition_weights(graph, part, self.num_partitions)

    def move(
        self, graph, part: np.ndarray, movers: dict[tuple[int, int], np.ndarray]
    ) -> np.ndarray:
        """Move every ``movers[(i, j)]`` vertex from ``i`` to ``j`` and
        report the movers to the graph view (their neighbours may have
        become boundary vertices)."""
        new_part = apply_moves(part, movers)
        if movers:
            graph.note_moves(np.concatenate(list(movers.values())))
        return new_part

    def cut(self, graph, part: np.ndarray) -> float:
        """Total cut weight, each cross edge counted once."""
        return edge_cut(graph, part)
