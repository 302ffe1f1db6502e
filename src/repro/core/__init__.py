"""The paper's contribution: LP-based incremental graph partitioning.

Pipeline (paper Figure 1):

1. :mod:`repro.core.assign` — give every new vertex the partition of the
   nearest old vertex (eq. 7), with the clustering fallback for new
   vertices not connected to the old graph.
2. :mod:`repro.core.layering` — the Figure 3 labelling algorithm: each
   vertex learns its closest *foreign* partition and BFS layer, yielding
   the movable-vertex counts ``delta[i][j]``.
3. :mod:`repro.core.balance` — the load-balancing LP (eqs. 10–12) with
   the γ-relaxation of §2.3 for infeasible instances.
4. :mod:`repro.core.refine` — the cut-reducing refinement LP
   (eqs. 14–16), iterated with the ≥ → > switch the paper describes.

:class:`~repro.core.partitioner.IncrementalGraphPartitioner` drives the
whole pipeline (the paper's IGP; with ``refine=True`` it is IGPR).
:mod:`repro.core.parallel_igp` runs that same driver on every rank of the
virtual machine; the operations a rank does differently — the LP solve,
the load and cut allreduces, the exchanges after assignment and layering
and of the movers — are the :class:`~repro.core.ops.PhaseOps` seam.
:mod:`repro.core.quality` computes the cutset/balance metrics the
paper's tables report.
"""

from repro.core.quality import (
    PartitionQuality,
    cut_metrics,
    edge_cut,
    evaluate_partition,
    partition_sizes,
    partition_weights,
)
from repro.core.assign import assign_new_vertices
from repro.core.layering import LayeringResult, layer_partitions
from repro.core.balance import BalanceLP, BalanceSolution, build_balance_lp, solve_balance
from repro.core.refine import RefinementPass, RefineStats, refine_partition
from repro.core.mover import apply_moves, select_movers
from repro.core.partitioner import (
    IGPConfig,
    IncrementalGraphPartitioner,
    RepartitionResult,
)
from repro.core.multistage import chunked_insertion_repartition
from repro.core.streaming import BatchRecord, FlushPolicy, StreamingPartitioner
from repro.core.multilevel import multilevel_bisection_partition

__all__ = [
    "BalanceLP",
    "BatchRecord",
    "BalanceSolution",
    "IGPConfig",
    "IncrementalGraphPartitioner",
    "LayeringResult",
    "PartitionQuality",
    "RefineStats",
    "RefinementPass",
    "FlushPolicy",
    "RepartitionResult",
    "apply_moves",
    "assign_new_vertices",
    "build_balance_lp",
    "chunked_insertion_repartition",
    "cut_metrics",
    "edge_cut",
    "evaluate_partition",
    "layer_partitions",
    "multilevel_bisection_partition",
    "partition_sizes",
    "partition_weights",
    "refine_partition",
    "StreamingPartitioner",
    "select_movers",
    "solve_balance",
]
