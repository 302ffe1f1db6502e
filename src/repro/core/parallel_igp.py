"""Parallel IGP/IGPR: the serial pipeline as an SPMD rank program.

This is the configuration the paper timed: 32 partitions on a 32-node
CM-5.  Every rank runs
:meth:`~repro.core.partitioner.IncrementalGraphPartitioner.repartition`
— the serial stage loop and phase functions — on replicated data.  Only
the operations of :class:`~repro.core.ops.PhaseOps` are SPMD:

* the LP solve: the column-distributed dense simplex
  (:mod:`repro.lp.parallel_simplex`) for the tableau backends, whose
  pivot sequence is the serial tableau's; every other backend solves
  replicated, each rank from the same carried basis;
* the per-partition loads and the edge cut, combined by allreduce;
* the exchanges that keep the replicas equal: an allgather of the new
  vertices' labels after assignment; the cross-arc halo before layering
  and an allgather of the labels and layers after it; the owner exchange
  of the movers.

Ownership: partition ``q`` lives on rank ``q mod size``, an unassigned
new vertex on rank ``id mod size``.  The cost model is the rows that
owned vertices read plus the named exchanges: each rank's graph view
charges one work unit per arc of the owned rows a phase reads, the
exchanges charge their messages and owned items, and the LP solve its
pivots.  Only rank 0 records the ``lp.*`` spans.

Determinism contract: there is one code path, and every SPMD operation
returns the serial value bit for bit, so :func:`parallel_repartition`
returns exactly the partition, stage records and refinement statistics
of a serial run with the same starting warm-start bases (seed a call
that must match a *reused* serial partitioner with
``initial_bases=igp.warm_bases``).  ``num_ranks=1`` gives the paper's
``Time-s`` (one CM-5 node), ``num_ranks=32`` its ``Time-p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.layering import LayeringResult
from repro.core.ops import PhaseOps
from repro.core.partitioner import (
    IGPConfig,
    IncrementalGraphPartitioner,
    RepartitionResult,
)
from repro.core.quality import edge_cut
from repro.graph.csr import CSRGraph
from repro.lp.backends import get_backend_spec
from repro.lp.parallel_simplex import parallel_simplex_solve
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult
from repro.lp.revised import BasisCarrier
from repro.obs import Tracer, get_tracer
from repro.parallel.machine import CM5, MachineModel
from repro.parallel.runtime import DEFAULT_RECV_TIMEOUT, VirtualMachine

__all__ = [
    "ParallelRepartitionResult",
    "igp_rank_program",
    "parallel_repartition",
]


# Backends whose serial pivot sequence the column-distributed parallel
# simplex reproduces exactly; any other backend must run replicated or the
# serial and parallel drivers could land on different alternate optima.
_TABLEAU_BACKENDS = frozenset({"dense_simplex", "tableau"})

# Ranks other than 0 time their phases without recording them.
_SILENT = Tracer(enabled=False)


class _RankView:
    """One rank's view of the replicated graph.

    Delegates the graph-view surface (``rows``, ``ensure_boundary``,
    ``set_boundary``, ``note_moves``) and every attribute to the
    :class:`~repro.graph.csr.CSRGraph`, and charges ``comm.compute`` one
    unit per arc of the rows this rank owns.  Ownership follows the
    partition vector last passed to ``ensure_boundary`` (the carried
    vector until then, whose unassigned vertices are owned by id).
    """

    def __init__(self, graph: CSRGraph, comm, part: np.ndarray):
        self._graph = graph
        self._comm = comm
        self._degree = np.diff(graph.xadj)
        self._own(part)

    def __getattr__(self, name: str):
        return getattr(self._graph, name)

    def _own(self, part: np.ndarray) -> None:
        owner = np.where(part >= 0, part, np.arange(len(part)))
        self._mine = owner % self._comm.size == self._comm.rank

    def rows(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        verts = np.asarray(vertices, dtype=np.int64)
        self._comm.compute(int(self._degree[verts[self._mine[verts]]].sum()))
        return self._graph.rows(verts)

    def ensure_boundary(self, part: np.ndarray) -> np.ndarray:
        self._own(part)
        return self._graph.ensure_boundary(part)


class _RankOps(PhaseOps):
    """The SPMD forms of the :class:`~repro.core.ops.PhaseOps` operations."""

    def __init__(self, comm, config: IGPConfig):
        super().__init__(config.num_partitions, config.lp_backend)
        self.comm = comm

    def tracer(self) -> Tracer:
        return get_tracer() if self.comm.rank == 0 else _SILENT

    def assign(self, graph, part: np.ndarray) -> np.ndarray:
        """The owner of each new vertex (by id) allgathers the label the
        BFS gave it, so every replica holds the assigned vector."""
        new_part = super().assign(graph, part)
        size, rank = self.comm.size, self.comm.rank
        fresh = np.flatnonzero(part < 0)
        mine = fresh[fresh % size == rank]
        self.comm.allgather((mine, new_part[mine]))
        return new_part

    def layer(self, graph, part: np.ndarray, loads: np.ndarray) -> LayeringResult:
        """Each rank layers its own partitions.  Up front it ships the
        partition of each owned cross-arc source to the owner of the arc's
        far side (the halo a distributed graph has to fetch); afterwards
        the labels and layers of its vertices are allgathered, from which
        every rank bins ``δ``."""
        size, rank = self.comm.size, self.comm.rank
        src, dst = graph.arc_sources(), graph.adj
        halo = (part[src] != part[dst]) & (part[src] % size == rank)
        hsrc, dest = src[halo], part[dst[halo]] % size
        by_dest = (hsrc[dest == r] for r in range(size))
        self.comm.alltoall([(v, part[v]) for v in by_dest])
        self.comm.compute(len(hsrc))
        layering = super().layer(graph, part, loads)
        labeled = layering.label >= 0
        mine = np.flatnonzero(labeled & (part % size == rank))
        self.comm.allgather((mine, layering.label[mine], layering.layer[mine]))
        self.comm.compute(int(labeled.sum()))
        return layering

    def solve(self, lp: LinearProgram, carrier: BasisCarrier | None) -> LPResult:
        """Column-distributed for the tableau backends, else replicated:
        each rank solves the same LP with the same deterministic solver
        from the same carried basis and is charged the full work."""
        spec = get_backend_spec(self.lp_backend)
        if spec.name in _TABLEAU_BACKENDS:
            return parallel_simplex_solve(self.comm, lp)
        result = super().solve(lp, carrier)
        if spec.supports_warm_start:
            stats = result.extra.get("stats")
            if stats is not None:
                m, n = stats.rows, stats.cols
                self.comm.compute(
                    stats.total_iterations * (2 * m * m + m * n)
                    + stats.refactorizations * m ** 3
                )
        else:
            # Generic estimate: iterations over the dense matrix.
            self.comm.compute(
                max(result.iterations, 1)
                * max(lp.num_constraints, 1)
                * max(lp.num_variables, 1)
            )
        return result

    def loads(self, graph, part: np.ndarray) -> np.ndarray:
        """Each rank bins its own partitions' vertices; every bin has a
        single contributor, so the summed vector is the serial one."""
        mine = part % self.comm.size == self.comm.rank
        self.comm.compute(int(mine.sum()))
        local = np.bincount(
            part[mine], weights=graph.vweights[mine], minlength=self.num_partitions
        )
        return self.comm.allreduce(local)

    def move(
        self, graph, part: np.ndarray, movers: dict[tuple[int, int], np.ndarray]
    ) -> np.ndarray:
        """Each rank selected the movers out of its own partitions: it
        ships them to the destination partitions' owners and allgathers
        them, then every rank applies the whole selection."""
        size, rank = self.comm.size, self.comm.rank
        owned = [(pair, v) for pair, v in movers.items() if pair[0] % size == rank]
        self.comm.compute(sum(len(v) for _, v in owned))
        self.comm.alltoall(
            [[(j, v) for (_, j), v in owned if j % size == r] for r in range(size)]
        )
        self.comm.allgather(owned)
        self.comm.compute(sum(len(v) for v in movers.values()))
        return super().move(graph, part, movers)

    def cut(self, graph, part: np.ndarray) -> float:
        """The view charges this rank's rows; the allreduce is the
        combine a distributed-memory run needs.  Every rank summed the
        same replicated arcs in the serial order, so ``max`` returns that
        sum unchanged (a ``+`` over per-rank partials would round
        differently from the serial cut)."""
        return self.comm.allreduce(edge_cut(graph, part), op=max)


class _RankPartitioner(IncrementalGraphPartitioner):
    """The serial driver with this rank's operations."""

    def __init__(self, comm, config: IGPConfig):
        super().__init__(config)
        self._ops = _RankOps(comm, config)


@dataclass
class ParallelRepartitionResult:
    """The serial driver's result plus simulated-machine accounting."""

    result: RepartitionResult  # stage records, refine stats, quality
    elapsed: float  # simulated seconds (Time-p for 32 ranks)
    rank_times: list[float]
    messages: int
    bytes_sent: int
    extra: dict = field(default_factory=dict)

    @property
    def part(self) -> np.ndarray:
        """The final partition vector."""
        return self.result.part

    @property
    def num_stages(self) -> int:
        """Balance stages performed."""
        return self.result.num_stages


def igp_rank_program(
    comm,
    graph: CSRGraph,
    carried_part: np.ndarray,
    config: IGPConfig,
    initial_bases: tuple | None = None,
) -> tuple[RepartitionResult, tuple]:
    """The SPMD program each rank executes: the serial driver over this
    rank's view of ``graph``.

    Returns ``(result, (balance_basis, refine_basis))``; the final bases
    let a caller chaining incremental steps thread warm starts into the
    next :func:`parallel_repartition` call, as the serial partitioner's
    persistent carriers do.
    """
    igp = _RankPartitioner(comm, config)
    if initial_bases is not None:
        igp.seed_warm_start(initial_bases)
    result = igp.repartition(_RankView(graph, comm, carried_part), carried_part)
    return result, igp.warm_bases


def parallel_repartition(
    graph: CSRGraph,
    carried_part: np.ndarray,
    config: IGPConfig,
    *,
    num_ranks: int = 32,
    machine: MachineModel = CM5,
    recv_timeout: float = DEFAULT_RECV_TIMEOUT,
    initial_bases: tuple | None = None,
) -> ParallelRepartitionResult:
    """Run the SPMD pipeline on a fresh virtual machine.

    ``num_ranks=1`` gives the paper's one-node ``Time-s`` for the same
    algorithm; ``num_ranks=32`` the ``Time-p`` of the tables.

    ``recv_timeout`` defaults to the runtime-wide
    :data:`~repro.parallel.runtime.DEFAULT_RECV_TIMEOUT` so deadlock
    diagnostics behave the same here as on a hand-built machine.

    ``initial_bases`` — ``(balance_basis, refine_basis)`` — seeds the
    warm-start carriers of every rank; the run's final bases come back in
    ``result.extra["final_bases"]``.  A caller chaining incremental steps
    under ``lp_backend="revised"`` threads them call to call; matching a
    *reused* serial :class:`~repro.core.partitioner
    .IncrementalGraphPartitioner` requires passing its carried bases
    (``warm_bases``), since each virtual machine otherwise starts cold.
    """
    vm = VirtualMachine(num_ranks, machine=machine, recv_timeout=recv_timeout)
    run = vm.run(
        igp_rank_program, graph, np.asarray(carried_part), config, initial_bases
    )
    first, bases = run.results[0]
    for other, _ in run.results[1:]:
        if not np.array_equal(first.part, other.part):
            raise AssertionError("ranks disagree on the final partition")
    return ParallelRepartitionResult(
        result=first,
        elapsed=run.elapsed,
        rank_times=run.rank_times,
        messages=run.messages,
        bytes_sent=run.bytes_sent,
        extra={"final_bases": bases},
    )
