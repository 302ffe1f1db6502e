"""Vertex movement: realising an LP flow as actual partition changes.

The balance LP decides *how much* weight moves between each partition
pair; this module decides *which vertices* carry it.  Following §2.2's
rationale ("the vertices transferred between two partitions are close to
the boundary of the two partitions"), movers are drawn from the layering
candidates in (layer, id) order — boundary vertices first.

With unit vertex weights (the paper's experiments and every benchmark
table) the LP solution is integral and the greedy selection moves exactly
``l_ij`` vertices.  With general weights the greedy never overshoots a
flow (it stops before exceeding ``l_ij``), so balance is approached from
below; the residual is at most one vertex weight per pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.layering import LayeringResult
from repro.errors import PartitioningError
from repro.graph.csr import CSRGraph

__all__ = ["select_movers", "apply_moves"]


def select_movers(
    graph: CSRGraph,
    part: np.ndarray,
    layering: LayeringResult,
    moves: np.ndarray,
    *,
    tol: float = 1e-6,
) -> dict[tuple[int, int], np.ndarray]:
    """Choose the vertices realising each positive flow ``moves[i, j]``.

    Returns ``{(i, j): vertex ids}``.  Raises if a flow exceeds what the
    layering candidates can carry (the LP's ``l_ij ≤ δ_ij`` bound makes
    that impossible unless the inputs are inconsistent).
    """
    out: dict[tuple[int, int], np.ndarray] = {}
    p = layering.num_partitions
    for i in range(p):
        for j in range(p):
            amount = float(moves[i, j])
            if amount <= tol:
                continue
            cands = layering.candidates(part, i, j)
            if len(cands) == 0:
                raise PartitioningError(
                    f"flow {amount} from {i} to {j} but no layered candidates"
                )
            w = graph.vweights[cands]
            total = float(w.sum())
            # The LP bound l_ij <= delta_ij guarantees the candidates can
            # carry the whole flow (exactly, for unit weights); anything
            # else means the inputs are inconsistent.
            if total < amount - max(tol, float(w.max())):
                raise PartitioningError(
                    f"flow {amount} from {i} to {j} exceeds candidate "
                    f"weight {total}"
                )
            if np.all(w == 1.0):
                # Unit weights (the paper's experiments): the flow is
                # integral, take exactly l_ij boundary-first vertices.
                out[(i, j)] = cands[: int(round(amount))]
                continue
            # General weights: greedy boundary-first accumulation that
            # skips any vertex that would overshoot the flow — a heavy
            # vertex at the boundary must not block lighter ones behind
            # it.  Never exceeds l_ij; residual < min skipped weight.
            chosen: list[int] = []
            cum = 0.0
            for v, wv in zip(cands.tolist(), w.tolist()):
                if cum + wv <= amount + tol:
                    chosen.append(v)
                    cum += wv
                    if cum >= amount - tol:
                        break
            if not chosen:
                continue
            out[(i, j)] = np.asarray(chosen, dtype=np.int64)
    return out


def apply_moves(
    part: np.ndarray, movers: dict[tuple[int, int], np.ndarray]
) -> np.ndarray:
    """Return a new partition vector with every selected vertex moved."""
    part = np.asarray(part, dtype=np.int64)
    new_part = part.copy()
    if not movers:
        return new_part
    verts = list(movers.values())
    ids = np.concatenate(verts)
    sizes = [len(v) for v in verts]
    source = np.repeat(np.array([i for i, _ in movers], dtype=np.int64), sizes)
    stray = part[ids] != source
    if stray.any():
        k = int(np.argmax(stray))
        raise PartitioningError(
            f"vertex {ids[k]} expected in partition {source[k]}, "
            f"found {part[ids[k]]}"
        )
    ordered = np.sort(ids)
    twice = ordered[1:] == ordered[:-1]
    if twice.any():
        raise PartitioningError(
            f"vertex {int(ordered[1:][twice][0])} selected for two different flows"
        )
    new_part[ids] = np.repeat(np.array([j for _, j in movers], dtype=np.int64), sizes)
    return new_part
