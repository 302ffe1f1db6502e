"""The Incremental Graph Partitioner driver (the paper's IGP / IGPR).

Orchestrates the four phases of Figure 1 over one incremental step:

1. assign new vertices (§2.1),
2. layer partitions (§2.2),
3. balance loads via LP, escalating the §2.3 γ-relaxation across stages
   when one exact step is infeasible,
4. optionally refine the cut via the §2.4 LP (that variant is the
   tables' **IGPR**; without it, **IGP**).

Staging policy (automating the paper's "trial and error" γ choice): each
stage first tries exact balance (γ = 1); if the LP is infeasible the
schedule is walked upward, skipping values whose load target would not
actually reduce the current maximum (those would solve to zero movement
and stall).  A feasible relaxed stage moves vertices, the layering is
recomputed — the boundary has shifted, so new vertices become movable —
and the next stage tries γ = 1 again.  If no admissible γ at or below the
cap ``C`` is feasible, :class:`~repro.errors.RepartitionInfeasibleError`
is raised: the paper's advice then is to repartition from scratch or add
vertices in chunks (:mod:`repro.core.multistage`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.balance import solve_stage
from repro.core.mover import select_movers
from repro.core.ops import PhaseOps
from repro.core.quality import PartitionQuality, evaluate_partition
from repro.core.refine import RefineStats, refine_partition
from repro.errors import (
    APIUsageError,
    RepartitionInfeasibleError,
    ValidationError,
)
from repro.graph.csr import CSRGraph
from repro.lp.backends import get_backend_spec
from repro.lp.revised import BasisCarrier

__all__ = ["IGPConfig", "StageRecord", "RepartitionResult", "IncrementalGraphPartitioner"]

_DEFAULT_GAMMAS = (1.0, 1.1, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0)


@dataclass(frozen=True)
class IGPConfig:
    """Tunables of the incremental partitioner.

    Attributes mirror the paper's knobs: ``gamma_cap`` is the constant
    ``C`` of §2.3 (give up beyond it), ``refine`` selects IGPR,
    ``refine_strict_after`` is the round at which the ≥ test becomes >.
    ``lp_backend`` must name a registered backend
    (:func:`~repro.lp.backends.available_backends`); an unknown name
    raises :class:`~repro.errors.UnknownBackendError` here rather than
    at the first LP solve.
    """

    num_partitions: int = 32
    refine: bool = False
    gamma_schedule: tuple[float, ...] = _DEFAULT_GAMMAS
    gamma_cap: float = 4.0
    max_stages: int = 16
    refine_max_rounds: int = 8
    refine_strict_after: int = 2
    refine_min_gain: float = 0.5
    lp_backend: str = "tableau"

    def __post_init__(self):
        if self.num_partitions < 1:
            raise ValidationError("need at least one partition")
        if any(g < 1.0 for g in self.gamma_schedule):
            raise ValidationError("gamma values must be >= 1")
        get_backend_spec(self.lp_backend)


@dataclass(frozen=True)
class StageRecord:
    """One balance stage: which γ was used and what the LP looked like."""

    gamma: float
    total_moved: float
    lp_variables: int
    lp_constraints: int
    lp_iterations: int
    max_load_before: float
    max_load_after: float


@dataclass
class RepartitionResult:
    """Everything a caller (or the benchmark harness) wants to know."""

    part: np.ndarray
    stages: list[StageRecord] = field(default_factory=list)
    refine_stats: RefineStats | None = None
    quality_initial: PartitionQuality | None = None  # after Step 1
    quality_final: PartitionQuality | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def num_stages(self) -> int:
        """Balance stages performed (the paper's 'number of stages')."""
        return len(self.stages)

    @property
    def total_time(self) -> float:
        """Wall-clock total across phases (seconds)."""
        return sum(self.timings.values())


class IncrementalGraphPartitioner:
    """Drives IGP/IGPR over one incremental graph step.

    Example
    -------
    >>> import numpy as np
    >>> from repro.graph import grid_graph
    >>> from repro.core import IncrementalGraphPartitioner
    >>> g = grid_graph(8, 8)
    >>> part = (np.arange(64) // 16).astype(np.int64)   # 4 balanced strips
    >>> igp = IncrementalGraphPartitioner(num_partitions=4)
    >>> res = igp.repartition(g, part)
    >>> res.quality_final.imbalance <= 1.01
    True
    """

    def __init__(self, config: IGPConfig | None = None, **kwargs):
        if config is None:
            config = IGPConfig(**kwargs)
        elif kwargs:
            raise APIUsageError(
                "pass either a config object or keyword overrides"
            )
        self.config = config
        # The LP solve, loads, mover application, cut and span tracer:
        # serial calls here, the SPMD rank program swaps in its own.
        self._ops = PhaseOps(config.num_partitions, config.lp_backend)
        # Warm-start state: under a warm-capable backend ("revised") the
        # balance stages and refinement rounds deposit their final bases
        # here, and successive stages *and successive repartition() calls
        # on this instance* reuse them instead of restarting Phase 1 from
        # artificials.  Other backends leave the carriers empty.
        self._balance_carrier = BasisCarrier()
        self._refine_carrier = BasisCarrier()

    def reset_warm_start(self) -> None:
        """Drop carried LP bases; the next repartition solves cold."""
        self._balance_carrier.reset()
        self._refine_carrier.reset()

    def seed_warm_start(self, bases: tuple) -> None:
        """Install a ``(balance_basis, refine_basis)`` pair to warm-start
        the next repartition — the inverse of :attr:`warm_bases`.  Used by
        restored sessions so a reloaded snapshot pivots exactly like the
        uninterrupted run; ``(None, None)`` is equivalent to
        :meth:`reset_warm_start`."""
        balance, refine = bases
        self._balance_carrier.basis = balance
        self._refine_carrier.basis = refine

    @property
    def warm_bases(self) -> tuple:
        """Carried ``(balance_basis, refine_basis)`` — pass as
        ``initial_bases`` to :func:`~repro.core.parallel_igp
        .parallel_repartition` to make a fresh virtual machine reproduce
        this instance's warm-started pivot sequence."""
        return (self._balance_carrier.basis, self._refine_carrier.basis)

    # ------------------------------------------------------------------
    def repartition(self, graph: CSRGraph, part: np.ndarray) -> RepartitionResult:
        """Run the pipeline; ``part`` may contain ``-1`` for new vertices.

        ``graph`` is a graph view: a :class:`~repro.graph.csr.CSRGraph`,
        or a :class:`~repro.graph.frame.BoundaryFrame` over a sharded
        graph (only the shards owning boundary rows are paged).  Every
        phase reads arcs through ``rows()``, which returns a
        global-CSR-order subsequence on both views, so labels, pivots,
        stage records and quality bundles are bit-identical between
        them.  λ comes from ``graph.total_vertex_weight``.
        """
        cfg = self.config
        p = cfg.num_partitions
        ops = self._ops
        tracer = ops.tracer()
        timings = {"assign": 0.0, "layering": 0.0, "lp": 0.0, "move": 0.0, "refine": 0.0}

        with tracer.span("lp.assign") as sp:
            part = ops.assign(graph, part)
        timings["assign"] = sp.duration_s

        result = RepartitionResult(part=part, timings=timings)
        result.quality_initial = evaluate_partition(graph, part, p)

        integral = bool(np.allclose(graph.vweights, np.round(graph.vweights)))
        lam = graph.total_vertex_weight / p
        # Achievable balance granularity: with unit weights the optimum
        # max load is ceil(λ); with heavier vertices the mover's
        # never-overshoot selection can leave up to (w_max − 1) extra
        # weight on a partition (bin-packing granularity).
        w_max = float(graph.vweights.max()) if graph.num_vertices else 1.0
        if integral:
            balanced_max = float(np.ceil(lam - 1e-9)) + max(w_max - 1.0, 0.0)
        else:
            balanced_max = lam * (1 + 1e-9) + w_max

        exact_target = float(np.ceil(lam - 1e-9)) if integral else lam

        def excess_of(loads_vec: np.ndarray) -> float:
            return float(np.maximum(loads_vec - exact_target, 0.0).sum())

        for _ in range(cfg.max_stages):
            loads = ops.loads(graph, part)
            max_load = float(loads.max())
            if max_load <= balanced_max + 1e-9:
                break  # already balanced

            with tracer.span("lp.layer") as sp:
                layering = ops.layer(graph, part, loads)
            timings["layering"] += sp.duration_s

            with tracer.span("lp.balance") as sp:
                stage = solve_stage(
                    layering.delta,
                    loads,
                    lambda lp: ops.solve(lp, self._balance_carrier),
                )
                if stage is not None:
                    sp.set("pivots", int(stage[0].result.iterations))
            timings["lp"] += sp.duration_s
            if stage is None:
                raise RepartitionInfeasibleError(
                    "balance LP infeasible and the relaxation cannot move "
                    "anything; repartition from scratch or insert vertices "
                    "in chunks (paper §2.3)",
                    gamma_tried=cfg.gamma_cap,
                )
            solution, gamma = stage

            with tracer.span("lp.move") as sp:
                movers = select_movers(graph, part, layering, solution.moves)
                part = ops.move(graph, part, movers)
            timings["move"] += sp.duration_s

            new_loads = ops.loads(graph, part)
            if not np.isfinite(gamma):
                gamma = float(new_loads.max()) / lam  # relaxed stage
                if gamma > cfg.gamma_cap + 1e-9:
                    raise RepartitionInfeasibleError(
                        f"imbalance after relaxed stage ({gamma:.2f}) "
                        f"exceeds the cap C={cfg.gamma_cap} (paper §2.3)",
                        gamma_tried=gamma,
                    )
            if excess_of(new_loads) >= excess_of(loads) - 1e-9:
                raise RepartitionInfeasibleError(
                    "balance stage made no progress (movers could not "
                    "realise the LP flow — indivisible vertex weights?)",
                    gamma_tried=gamma,
                )
            result.stages.append(
                StageRecord(
                    gamma=gamma,
                    total_moved=solution.total_movement,
                    lp_variables=solution.balance_lp.num_variables,
                    lp_constraints=solution.balance_lp.num_constraints,
                    lp_iterations=solution.result.iterations,
                    max_load_before=max_load,
                    max_load_after=float(new_loads.max()),
                )
            )
        else:
            loads = ops.loads(graph, part)
            if float(loads.max()) > balanced_max + 1e-9:
                raise RepartitionInfeasibleError(
                    f"balance not reached within {cfg.max_stages} stages",
                    gamma_tried=cfg.gamma_cap,
                )

        if cfg.refine:
            with tracer.span("lp.refine") as sp:
                part, refine_stats = refine_partition(
                    graph,
                    part,
                    p,
                    max_rounds=cfg.refine_max_rounds,
                    strict_after=cfg.refine_strict_after,
                    min_gain=cfg.refine_min_gain,
                    carrier=self._refine_carrier,
                    ops=ops,
                )
                sp.set("pivots", int(refine_stats.lp_iterations))
                sp.set("rounds", int(refine_stats.rounds))
            timings["refine"] = sp.duration_s
            result.refine_stats = refine_stats

        result.part = part
        result.quality_final = evaluate_partition(graph, part, p)
        return result
