"""Golden pins for the IGP/IGPR pipeline: labels and simplex pivots.

The library's contract is that a refactor or optimisation of the
pipeline's internals (delta application, refinement pools, the revised
simplex) changes neither a label nor a pivot.  These tests pin:

* the sha256 of the final labels and the per-batch ``lp_pivots`` of a
  short ``refine_in_disc`` IGPR chain (``refine=True``,
  ``lp_backend="revised"``, one flush per refinement);
* the same for a churn chain (vertex and edge deletions), run monolithic
  and sharded at 4x over the resident budget (16 shards, 4 resident);
* the revised solver's per-solve ``(iterations, bound_flips,
  degenerate_pivots)`` on the balance and refine LPs of the mesh chain.

Any pivot or label drift fails here.  The values were recorded before
the splice-based ``apply_delta``, the vectorised refinement pools and
the single-matvec revised pricing landed.  Regenerate them only for a
change that is *meant* to alter labels or pivots, and say so::

    PYTHONPATH=src python tests/test_golden_pipeline.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro import open_session
from repro.core.streaming import FlushPolicy
from repro.lp.revised import RevisedSimplexSolver
from repro.rng import make_rng

P = 8


def _labels_sha(part: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(part, dtype=np.int64).tobytes()).hexdigest()


def _mesh_chain(steps: int = 6):
    from repro.mesh.dual import node_graph
    from repro.mesh.generators import irregular_mesh
    from repro.mesh.refinement import refine_in_disc

    mesh = irregular_mesh(1200, seed=1994)
    base = node_graph(mesh)
    rng = make_rng(7)
    center = np.array([0.4, 0.55])
    deltas = []
    for i in range(steps):
        center = np.clip(center + rng.normal(0.0, 0.05, size=2), 0.2, 0.8)
        refinement = refine_in_disc(mesh, center, 0.15, 20 + 10 * (i % 3))
        deltas.append(refinement.delta)
        mesh = refinement.new_mesh
    return base, deltas


def _churn_chain():
    from repro.bench.workloads import social_churn_stream

    return social_churn_stream(n=600, steps=24, seed=5)


def _drive(session, deltas) -> tuple[str, list[int]]:
    for delta in deltas:
        session.push(delta)
    session.flush()
    return _labels_sha(session.part), [h.lp_pivots for h in session.history()]


def run_mesh() -> tuple[str, list[int]]:
    base, deltas = _mesh_chain()
    session = open_session(
        base, P, refine=True, lp_backend="revised",
        policy=FlushPolicy(max_pending=1), seed=3,
    )
    return _drive(session, deltas)


def run_churn(shard_dir=None) -> tuple[str, list[int]]:
    base, deltas = _churn_chain()
    graph = base
    if shard_dir is not None:
        from repro.graph.sharded import DirectoryShardStore, ShardedCSRGraph

        store = DirectoryShardStore(shard_dir, max_resident=4)
        graph = ShardedCSRGraph.from_csr(base, 16, store=store)
    session = open_session(
        graph, P, lp_backend="revised", policy=FlushPolicy(max_pending=4),
        seed=3,
    )
    return _drive(session, deltas)


def run_solver_stats() -> list[tuple[str, int, int, int]]:
    """``(kind, iterations, bound_flips, degenerate_pivots)`` of every
    revised solve the mesh chain makes, in call order."""
    original = RevisedSimplexSolver.solve_with_stats
    seen: list[tuple[str, int, int, int]] = []

    def recording(self, lp, basis=None):
        result, stats = original(self, lp, basis)
        # Refinement LPs maximise a circulation; balance LPs minimise.
        kind = "refine" if lp.maximize else "balance"
        seen.append(
            (kind, stats.total_iterations, stats.bound_flips, stats.degenerate_pivots)
        )
        return result, stats

    RevisedSimplexSolver.solve_with_stats = recording
    try:
        run_mesh()
    finally:
        RevisedSimplexSolver.solve_with_stats = original
    return seen


MESH_GOLDEN = (
    "2c39cba6bd9d6be5d946a8dc8ae3a80b6fc4d53214e3d8b9e773fa41d403b2cc",
    [10, 14, 12, 12, 12, 12],
)
CHURN_GOLDEN = (
    "c3dad467df5cdf0fd76f17eeeb44a6cc1dfe7a8d0ba06643df610047206b26e2",
    [8, 20, 12, 18, 12, 20],
)
# One line group per flush of the mesh chain: its balance solve, then
# its refinement rounds.
SOLVER_GOLDEN = [
    ("balance", 10, 1, 1), ("refine", 30, 6, 14), ("refine", 30, 6, 16),
    ("refine", 23, 7, 10), ("refine", 14, 5, 7), ("refine", 12, 2, 8),
    ("refine", 13, 4, 8), ("refine", 9, 1, 6), ("refine", 10, 2, 8),
    ("balance", 14, 1, 0), ("refine", 25, 8, 13), ("refine", 24, 8, 12),
    ("refine", 17, 6, 9), ("refine", 2, 0, 2), ("refine", 13, 4, 9),
    ("refine", 3, 1, 2), ("refine", 8, 2, 6), ("refine", 0, 0, 0),
    ("balance", 12, 0, 3), ("refine", 22, 5, 10), ("refine", 25, 5, 11),
    ("refine", 18, 7, 10), ("refine", 10, 3, 6), ("refine", 7, 1, 5),
    ("refine", 7, 2, 5),
    ("balance", 12, 2, 0), ("refine", 22, 2, 15), ("refine", 1, 0, 1),
    ("refine", 9, 4, 5), ("refine", 8, 1, 5), ("refine", 3, 0, 3),
    ("balance", 12, 2, 1), ("refine", 20, 4, 7), ("refine", 26, 3, 12),
    ("refine", 16, 6, 8), ("refine", 10, 4, 6), ("refine", 6, 2, 4),
    ("balance", 12, 2, 1), ("refine", 22, 5, 9), ("refine", 23, 3, 11),
    ("refine", 20, 6, 12), ("refine", 7, 2, 4), ("refine", 0, 0, 0),
    ("refine", 0, 0, 0),
]


def test_mesh_igpr_chain_labels_and_pivots_are_pinned():
    assert run_mesh() == MESH_GOLDEN


def test_churn_chain_monolithic_is_pinned():
    assert run_churn() == CHURN_GOLDEN


def test_churn_chain_sharded_over_budget_is_pinned(tmp_path):
    assert run_churn(tmp_path / "shards") == CHURN_GOLDEN


def test_revised_solver_per_solve_stats_are_pinned():
    assert run_solver_stats() == SOLVER_GOLDEN


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile

    print("MESH_GOLDEN =", run_mesh())
    print("CHURN_GOLDEN =", run_churn())
    with tempfile.TemporaryDirectory() as tmp:
        print("CHURN_SHARDED =", run_churn(f"{tmp}/shards"))
    print("SOLVER_GOLDEN =", run_solver_stats())
