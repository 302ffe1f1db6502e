"""Experiment drivers for the paper's evaluation section.

Each driver returns a list of :class:`ExperimentRow` — one row per
(mesh version × partitioner) cell of the paper's tables — carrying both
quality metrics and three kinds of timing:

* ``wall_s`` — measured Python wall-clock of the *serial* implementation
  (our hardware; absolute values incomparable to 1994, ratios meaningful);
* ``sim_time_s`` — simulated one-CM-5-node time (the paper's ``Time-s``),
  obtained by running the SPMD pipeline on the virtual machine with one
  rank;
* ``sim_time_p`` — simulated 32-node CM-5 time (the paper's ``Time-p``).

SB rows time recursive spectral bisection from scratch; its simulated
times are estimated from an operation count (Lanczos mat-vecs dominate;
see :func:`estimate_rsb_cm5_time`) because RSB is not the paper's
contribution and the authors' RSB was itself serial (no ``Time-p`` is
reported for SB in the paper either).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.parallel_igp import parallel_repartition
from repro.core.partitioner import IGPConfig, IncrementalGraphPartitioner
from repro.core.quality import evaluate_partition
from repro.graph.csr import CSRGraph
from repro.graph.incremental import apply_delta, carry_partition
from repro.parallel.machine import CM5, MachineModel
from repro.spectral.rsb import rsb_partition

__all__ = [
    "ExperimentRow",
    "estimate_rsb_cm5_time",
    "run_figure11",
    "run_figure14",
    "run_speedup_curve",
]


@dataclass
class ExperimentRow:
    """One table cell-row: a partitioner applied to one mesh version."""

    dataset: str
    version: int
    partitioner: str
    num_vertices: int
    num_edges: int
    cut_total: float
    cut_max: float
    cut_min: float
    imbalance: float
    wall_s: float
    sim_time_s: float | None = None
    sim_time_p: float | None = None
    stages: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Flat dict (for printers and the recorder)."""
        return {
            "dataset": self.dataset,
            "version": self.version,
            "partitioner": self.partitioner,
            "|V|": self.num_vertices,
            "|E|": self.num_edges,
            "Total": self.cut_total,
            "Max": self.cut_max,
            "Min": self.cut_min,
            "imbal": round(self.imbalance, 3),
            "wall_s": round(self.wall_s, 3),
            "Time-s": None if self.sim_time_s is None else round(self.sim_time_s, 2),
            "Time-p": None if self.sim_time_p is None else round(self.sim_time_p, 2),
            "stages": self.stages,
        }


def estimate_rsb_cm5_time(
    graph: CSRGraph, num_partitions: int, machine: MachineModel = CM5
) -> float:
    """Operation-count estimate of serial RSB time on the machine model.

    RSB cost is dominated by Lanczos mat-vecs on each bisection level:
    every level touches all ~2m arcs of the level's subgraphs, times the
    Lanczos iteration count.  The per-level mat-vec constant
    (``1000 · sqrt(n / 1071)``) is calibrated against *both* of the
    paper's own RSB anchors: 31.7 s for the 1071-node dataset A and
    800–905 s for the 10166-node dataset B on a one-node CM-5 — this
    formula lands at ≈30 s and ≈870 s respectively.
    """
    n = max(graph.num_vertices, 2)
    m = graph.num_arcs
    levels = int(np.ceil(np.log2(max(num_partitions, 2))))
    matvecs_per_level = 1000.0 * np.sqrt(n / 1071.0)
    work_units = levels * matvecs_per_level * (2.0 * m + 10.0 * n)
    return machine.compute_time(work_units)


def _check_parallel(par, res) -> None:
    """The SPMD run must reproduce the serial partition and stages."""
    if not np.array_equal(par.part, res.part) or par.result.stages != res.stages:
        raise AssertionError("parallel result diverged from serial")


def _igp_rows(
    dataset: str,
    version: int,
    graph: CSRGraph,
    carried: np.ndarray,
    num_partitions: int,
    *,
    with_serial_sim: bool,
    with_parallel: bool,
    machine: MachineModel,
    parallel_ranks: int,
    lp_backend: str = "tableau",
) -> list[ExperimentRow]:
    rows = []
    for refine, name in ((False, "IGP"), (True, "IGPR")):
        cfg = IGPConfig(
            num_partitions=num_partitions, refine=refine, lp_backend=lp_backend
        )
        t0 = time.perf_counter()
        res = IncrementalGraphPartitioner(cfg).repartition(graph, carried.copy())
        wall = time.perf_counter() - t0
        sim_s = sim_p = None
        if with_serial_sim:
            one = parallel_repartition(
                graph, carried.copy(), cfg, num_ranks=1, machine=machine
            )
            sim_s = one.elapsed
        if with_parallel:
            par = parallel_repartition(
                graph, carried.copy(), cfg, num_ranks=parallel_ranks, machine=machine
            )
            _check_parallel(par, res)
            sim_p = par.elapsed
        q = res.quality_final
        rows.append(
            ExperimentRow(
                dataset=dataset,
                version=version,
                partitioner=name,
                num_vertices=graph.num_vertices,
                num_edges=graph.num_edges,
                cut_total=q.cut_total,
                cut_max=q.cut_max,
                cut_min=q.cut_min,
                imbalance=q.imbalance,
                wall_s=wall,
                sim_time_s=sim_s,
                sim_time_p=sim_p,
                stages=res.num_stages,
            )
        )
    return rows


def _sb_row(
    dataset: str,
    version: int,
    graph: CSRGraph,
    num_partitions: int,
    seed: int,
    machine: MachineModel,
) -> ExperimentRow:
    t0 = time.perf_counter()
    part = rsb_partition(graph, num_partitions, seed=seed)
    wall = time.perf_counter() - t0
    q = evaluate_partition(graph, part, num_partitions)
    return ExperimentRow(
        dataset=dataset,
        version=version,
        partitioner="SB",
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        cut_total=q.cut_total,
        cut_max=q.cut_max,
        cut_min=q.cut_min,
        imbalance=q.imbalance,
        wall_s=wall,
        sim_time_s=estimate_rsb_cm5_time(graph, num_partitions, machine),
        sim_time_p=None,
        stages=0,
    )


def run_figure11(
    sequence,
    *,
    num_partitions: int = 32,
    seed: int = 0,
    with_parallel: bool = True,
    parallel_versions: tuple[int, ...] | None = None,
    machine: MachineModel = CM5,
    parallel_ranks: int = 32,
    lp_backend: str = "tableau",
) -> list[ExperimentRow]:
    """Dataset-A experiment: chained refinements, SB vs IGP vs IGPR.

    Matches the paper's protocol: the base mesh is partitioned with RSB;
    each refined mesh is repartitioned (a) from scratch with RSB and
    (b) incrementally from the *previous incremental* result.
    """
    graphs = sequence.graphs
    rows: list[ExperimentRow] = []

    base_part = rsb_partition(graphs[0], num_partitions, seed=seed)
    q0 = evaluate_partition(graphs[0], base_part, num_partitions)
    rows.append(
        ExperimentRow(
            dataset=sequence.name,
            version=0,
            partitioner="SB(base)",
            num_vertices=graphs[0].num_vertices,
            num_edges=graphs[0].num_edges,
            cut_total=q0.cut_total,
            cut_max=q0.cut_max,
            cut_min=q0.cut_min,
            imbalance=q0.imbalance,
            wall_s=0.0,
        )
    )

    # The paper chains IGP results; IGPR chains its own results too.
    chained = {"IGP": {0: base_part}, "IGPR": {0: base_part}}
    for k, delta in enumerate(sequence.deltas):
        parent = sequence.parents[k]
        version = k + 1
        inc = apply_delta(graphs[parent], delta)
        rows.append(
            _sb_row(sequence.name, version, inc.graph, num_partitions, seed, machine)
        )
        for refine, name in ((False, "IGP"), (True, "IGPR")):
            carried = carry_partition(chained[name][parent], inc)
            cfg = IGPConfig(
                num_partitions=num_partitions, refine=refine, lp_backend=lp_backend
            )
            t0 = time.perf_counter()
            res = IncrementalGraphPartitioner(cfg).repartition(inc.graph, carried.copy())
            wall = time.perf_counter() - t0
            sim_s = sim_p = None
            if with_parallel:
                one = parallel_repartition(
                    inc.graph, carried.copy(), cfg, num_ranks=1, machine=machine
                )
                sim_s = one.elapsed
                if parallel_versions is None or version in parallel_versions:
                    par = parallel_repartition(
                        inc.graph, carried.copy(), cfg,
                        num_ranks=parallel_ranks, machine=machine,
                    )
                    _check_parallel(par, res)
                    sim_p = par.elapsed
            chained[name][version] = res.part
            q = res.quality_final
            rows.append(
                ExperimentRow(
                    dataset=sequence.name,
                    version=version,
                    partitioner=name,
                    num_vertices=inc.graph.num_vertices,
                    num_edges=inc.graph.num_edges,
                    cut_total=q.cut_total,
                    cut_max=q.cut_max,
                    cut_min=q.cut_min,
                    imbalance=q.imbalance,
                    wall_s=wall,
                    sim_time_s=sim_s,
                    sim_time_p=sim_p,
                    stages=res.num_stages,
                )
            )
    return rows


def run_figure14(
    sequence,
    *,
    num_partitions: int = 32,
    seed: int = 0,
    with_parallel: bool = True,
    parallel_versions: tuple[int, ...] | None = None,
    machine: MachineModel = CM5,
    parallel_ranks: int = 32,
    lp_backend: str = "tableau",
) -> list[ExperimentRow]:
    """Dataset-B experiment: star variants off one base partitioning.

    ``parallel_versions`` restricts the (host-expensive) 32-rank virtual
    machine runs to the listed versions; simulated serial ``Time-s`` is
    still produced for every row when ``with_parallel``.
    """
    graphs = sequence.graphs
    rows: list[ExperimentRow] = []
    base_part = rsb_partition(graphs[0], num_partitions, seed=seed)
    q0 = evaluate_partition(graphs[0], base_part, num_partitions)
    rows.append(
        ExperimentRow(
            dataset=sequence.name,
            version=0,
            partitioner="SB(base)",
            num_vertices=graphs[0].num_vertices,
            num_edges=graphs[0].num_edges,
            cut_total=q0.cut_total,
            cut_max=q0.cut_max,
            cut_min=q0.cut_min,
            imbalance=q0.imbalance,
            wall_s=0.0,
        )
    )
    for k, delta in enumerate(sequence.deltas):
        version = k + 1
        inc = apply_delta(graphs[sequence.parents[k]], delta)
        carried = carry_partition(base_part, inc)
        rows.append(
            _sb_row(sequence.name, version, inc.graph, num_partitions, seed, machine)
        )
        par_ok = with_parallel and (
            parallel_versions is None or version in parallel_versions
        )
        rows.extend(
            _igp_rows(
                sequence.name,
                version,
                inc.graph,
                carried,
                num_partitions,
                with_serial_sim=with_parallel,
                with_parallel=par_ok,
                machine=machine,
                parallel_ranks=parallel_ranks,
                lp_backend=lp_backend,
            )
        )
    return rows


def run_speedup_curve(
    graph: CSRGraph,
    carried: np.ndarray,
    *,
    num_partitions: int = 32,
    rank_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    refine: bool = True,
    machine: MachineModel = CM5,
    lp_backend: str = "tableau",
) -> list[dict]:
    """E5: simulated CM-5 speedup of the IGP pipeline vs rank count."""
    cfg = IGPConfig(
        num_partitions=num_partitions, refine=refine, lp_backend=lp_backend
    )
    out = []
    base = None
    for ranks in rank_counts:
        res = parallel_repartition(
            graph, carried.copy(), cfg, num_ranks=ranks, machine=machine
        )
        if base is None:
            base = res.elapsed
        out.append(
            {
                "ranks": ranks,
                "sim_time": res.elapsed,
                "speedup": base / res.elapsed,
                "messages": res.messages,
                "bytes": res.bytes_sent,
            }
        )
    return out
