"""Step 4 — LP-based cut refinement (paper §2.4, eqs. 14–16).

After balancing, a vertex ``v`` in partition ``i`` whose edges into a
neighbour partition ``j`` outweigh its local edges
(``out(v, j) − in(v) ≥ 0``) can move to ``j`` and not increase — usually
decrease — the cut.  The refinement LP moves as many such vertices as
possible **without disturbing the load balance**::

    maximise    Σ l_ij                                   (14)
    subject to  0 ≤ l_ij ≤ b_ij                          (15)
                net-flow(q) = 0          for all q       (16)

where ``b_ij`` counts the eligible vertices.  The paper iterates this
until the gain is small, switching the eligibility test from ``≥ 0`` to
``> 0`` after a few rounds so zero-gain vertices stop shuttling between
partitions (§2.4's closing remark).

Two deliberate deviations, both documented in DESIGN.md:

* each vertex is counted toward a *single* pair ``(i, best j)`` — the
  paper's per-pair counts can overlap, which would let the LP request
  more movers than exist; disjoint pools make every LP flow exactly
  realisable (same fixed points, conservative per-round bound);
* a round whose *realised* cut gain is negative (possible because batch
  moves interact — gains are computed on a snapshot) is rolled back and
  refinement stops.  This makes ``refine_partition`` monotone in cut
  cost, which the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ops import PhaseOps
from repro.lp.problem import LinearProgram
from repro.lp.revised import BasisCarrier

__all__ = [
    "RefinementPass",
    "RefineStats",
    "refine_partition",
    "refinement_pools",
    "refinement_pools_from_arcs",
]


@dataclass
class RefineStats:
    """Instrumentation of a refinement run."""

    rounds: int = 0
    vertices_moved: int = 0
    cut_before: float = 0.0
    cut_after: float = 0.0
    reverted_last_round: bool = False
    lp_iterations: int = 0

    @property
    def gain(self) -> float:
        """Total cut improvement (positive = better)."""
        return self.cut_before - self.cut_after


@dataclass(frozen=True)
class RefinementPass:
    """One round's eligible-vertex pools and LP."""

    b: np.ndarray  # (P, P) disjoint eligible counts
    pools: dict[tuple[int, int], np.ndarray]  # (i, j) -> vertex ids, best gain first
    lp: LinearProgram | None
    pairs: list[tuple[int, int]]


def refinement_pools(
    graph, part: np.ndarray, num_partitions: int, strict: bool
) -> RefinementPass:
    """Compute eligible movers and build the round's LP.

    For every vertex with cross edges: ``in(v)`` is the weight of edges to
    its own partition, ``out(v, j)`` the weight to partition ``j``.  A
    vertex joins the pool of its best foreign partition when
    ``out − in ≥ 0`` (or ``> 0`` in strict mode).  ``graph`` is a graph
    view; only its boundary superset's rows are read.
    """
    src, dst, ew = graph.rows(graph.ensure_boundary(part))
    return refinement_pools_from_arcs(
        src, dst, ew, graph.num_vertices, part, num_partitions, strict
    )


def refinement_pools_from_arcs(
    src: np.ndarray,
    dst: np.ndarray,
    ew: np.ndarray,
    num_vertices: int,
    part: np.ndarray,
    num_partitions: int,
    strict: bool,
) -> RefinementPass:
    """:func:`refinement_pools` over explicit arc arrays.

    The arcs may be any global-CSR-order subsequence of the graph's arc
    arrays that contains every arc out of a boundary vertex — such as
    the rows of a graph view's boundary superset.  ``in_w`` is then
    complete for every vertex that can appear in a pool, and all sums
    accumulate in the same order as over the full arc arrays.
    """
    p = num_partitions
    part = np.asarray(part, dtype=np.int64)
    dst_part = part[dst]
    same = part[src] == dst_part

    n = num_vertices
    in_w = np.bincount(src[same], weights=ew[same], minlength=n)

    cross_src = src[~same]
    cross_part = dst_part[~same]
    if len(cross_src) == 0:
        return RefinementPass(b=np.zeros((p, p)), pools={}, lp=None, pairs=[])
    key = cross_src * np.int64(p) + cross_part
    uniq, inv = np.unique(key, return_inverse=True)
    out_w = np.bincount(inv, weights=ew[~same])
    v_of = (uniq // p).astype(np.int64)
    j_of = (uniq % p).astype(np.int64)

    # Best foreign partition per vertex: max out_w, ties toward smaller j.
    order = np.lexsort((j_of, -out_w, v_of))
    vv, jj, ww = v_of[order], j_of[order], out_w[order]
    first = np.ones(len(vv), dtype=bool)
    first[1:] = vv[1:] != vv[:-1]
    best_v, best_j, best_w = vv[first], jj[first], ww[first]

    gain = best_w - in_w[best_v]
    eligible = gain > 1e-12 if strict else gain >= -1e-12
    best_v, best_j, gain = best_v[eligible], best_j[eligible], gain[eligible]
    if len(best_v) == 0:
        return RefinementPass(b=np.zeros((p, p)), pools={}, lp=None, pairs=[])

    # Group movers by pair (i, j) = (own, best foreign partition) with
    # one sort: pair, then best gain first, then vertex id.
    flat = part[best_v] * np.int64(p) + best_j
    order = np.lexsort((best_v, -gain, flat))
    flat, movers = flat[order], best_v[order]
    bounds = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1], True])
    starts = bounds[:-1]
    pair_i, pair_j = flat[starts] // p, flat[starts] % p
    counts = np.diff(bounds).astype(np.float64)
    pairs = list(zip(pair_i.tolist(), pair_j.tolist()))
    cuts = bounds.tolist()
    pools = {
        pair: movers[lo:hi] for pair, lo, hi in zip(pairs, cuts, cuts[1:])
    }
    b = np.zeros((p, p))
    b[pair_i, pair_j] = counts

    v = len(pairs)
    a_eq = np.zeros((p, v))
    a_eq[pair_i, np.arange(v)] = -1.0
    a_eq[pair_j, np.arange(v)] = 1.0
    lp = LinearProgram(
        c=np.ones(v),
        A_eq=a_eq,
        b_eq=np.zeros(p),
        upper_bounds=counts,
        maximize=True,
        variable_names=[f"l{i}_{j}" for i, j in pairs],
    )
    return RefinementPass(b=b, pools=pools, lp=lp, pairs=pairs)


def refine_partition(
    graph,
    part: np.ndarray,
    num_partitions: int,
    *,
    max_rounds: int = 8,
    strict_after: int = 2,
    min_gain: float = 0.5,
    carrier: BasisCarrier | None = None,
    ops: PhaseOps | None = None,
) -> tuple[np.ndarray, RefineStats]:
    """Iterated LP refinement; returns ``(new_part, stats)``.

    ``strict_after`` rounds use the ``≥`` eligibility, later rounds the
    strict ``>`` (paper §2.4); iteration stops when the realised gain of
    a round falls below ``min_gain``, when the LP moves nothing, or when
    a round would worsen the cut (that round is rolled back).

    ``graph`` is a graph view: pools read the rows of its boundary
    superset, and each round's movers are reported through
    ``note_moves`` before the candidate cut is evaluated.

    ``carrier`` threads a warm-start basis between rounds (and across
    calls, if the caller keeps it): every round's circulation LP shares
    its row structure (one flow-conservation row per partition), so the
    previous round's basis usually prices out in a handful of pivots
    under ``lp_backend="revised"``.

    ``ops`` supplies the LP solve (and with it the LP backend), the
    mover application and the cut: the serial
    :class:`~repro.core.ops.PhaseOps` under ``"tableau"`` by default;
    an SPMD rank passes its own.
    """
    if ops is None:
        ops = PhaseOps(num_partitions, "tableau")
    part = np.asarray(part, dtype=np.int64).copy()
    stats = RefineStats(cut_before=ops.cut(graph, part))
    current_cut = stats.cut_before
    forced_strict = False

    for round_idx in range(max_rounds):
        strict = forced_strict or round_idx >= strict_after
        pass_ = refinement_pools(graph, part, num_partitions, strict)
        if pass_.lp is None:
            break
        result = ops.solve(pass_.lp, carrier)
        stats.lp_iterations += result.iterations
        if not result.is_optimal or result.objective <= 1e-9:
            break

        # Realise the circulation: flows are integral (TU matrix), pools
        # are disjoint, so exact counts always exist.
        movers: dict[tuple[int, int], np.ndarray] = {}
        x = np.clip(np.round(np.asarray(result.x)), 0, None)
        for k, pair in enumerate(pass_.pairs):
            count = int(x[k])
            if count:
                movers[pair] = pass_.pools[pair][:count]
        if not movers:
            break
        candidate = ops.move(graph, part, movers)
        new_cut = ops.cut(graph, candidate)
        if new_cut > current_cut + 1e-9:
            # Batch interactions made the snapshot gains lie.  Zero-gain
            # shuttling is the usual culprit: retry in strict mode once
            # (the paper's ≥ → > switch) before giving up.
            stats.reverted_last_round = True
            if not strict:
                forced_strict = True
                continue
            break
        stats.reverted_last_round = False
        part = candidate
        stats.rounds += 1
        stats.vertices_moved += sum(len(v) for v in movers.values())
        gain = current_cut - new_cut
        current_cut = new_cut
        if gain < min_gain and strict:
            break

    stats.cut_after = current_cut
    return part, stats
