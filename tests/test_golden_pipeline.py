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
  degenerate_pivots)`` on the balance and refine LPs of the mesh chain;
* per batch of the mesh chain and of the churn chain (monolithic and
  sharded), every balance ``StageRecord`` and the ``quality_initial`` /
  ``quality_final`` bundles (cut total, sha256 of the per-partition cut
  and weight vectors, imbalance);
* an empty-batch ``repartition()`` (nothing pending) on a monolithic and
  on a sharded graph: labels, stage records, quality and refinement
  statistics.

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


def _array_sha(values: np.ndarray) -> str:
    data = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _quality(q) -> tuple:
    return (q.cut_total, _array_sha(q.cut_per_partition), _array_sha(q.weights), q.imbalance)


def _record(result) -> tuple:
    """``(stages, quality_initial, quality_final)`` of one batch; each
    stage is ``(gamma, moved, lp_variables, lp_constraints, iterations,
    max_load_before, max_load_after)``."""
    stages = [
        (
            s.gamma, s.total_moved, s.lp_variables, s.lp_constraints,
            s.lp_iterations, s.max_load_before, s.max_load_after,
        )
        for s in result.stages
    ]
    return (stages, _quality(result.quality_initial), _quality(result.quality_final))


def _drive_records(session, deltas) -> tuple[str, list[int], list[tuple]]:
    results = [session.push(delta) for delta in deltas]
    results.append(session.flush())
    records = [_record(r) for r in results if r is not None]
    return (
        _labels_sha(session.part),
        [h.lp_pivots for h in session.history()],
        records,
    )


def _drive(session, deltas) -> tuple[str, list[int]]:
    return _drive_records(session, deltas)[:2]


def _sharded(base, shard_dir):
    from repro.graph.sharded import DirectoryShardStore, ShardedCSRGraph

    store = DirectoryShardStore(shard_dir, max_resident=4)
    return ShardedCSRGraph.from_csr(base, 16, store=store)


def _mesh_session():
    base, deltas = _mesh_chain()
    session = open_session(
        base, P, refine=True, lp_backend="revised",
        policy=FlushPolicy(max_pending=1), seed=3,
    )
    return session, deltas


def _churn_session(shard_dir=None):
    base, deltas = _churn_chain()
    graph = base if shard_dir is None else _sharded(base, shard_dir)
    session = open_session(
        graph, P, lp_backend="revised", policy=FlushPolicy(max_pending=4),
        seed=3,
    )
    return session, deltas


def run_mesh() -> tuple[str, list[int]]:
    return _drive(*_mesh_session())


def run_churn(shard_dir=None) -> tuple[str, list[int]]:
    return _drive(*_churn_session(shard_dir))


def run_mesh_records() -> list[tuple]:
    return _drive_records(*_mesh_session())[2]


def run_churn_records(shard_dir=None) -> list[tuple]:
    return _drive_records(*_churn_session(shard_dir))[2]


def run_empty_batch(shard_dir=None) -> tuple:
    """One ``repartition()`` with nothing pending, from x-strips whose
    first partition holds 1.5 shares and whose second holds 0.5: balance
    stages, then IGPR refinement, on the mesh chain's base graph."""
    base, _ = _mesh_chain(steps=0)
    n = base.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(base.coords[:, 0], kind="stable")] = np.arange(n)
    part = rank * P // n
    part[(part == 1) & (rank < n * 3 // (2 * P))] = 0
    graph = base if shard_dir is None else _sharded(base, shard_dir)
    session = open_session(
        graph, P, initial="given", part=part, refine=True,
        lp_backend="revised", seed=3,
    )
    result = session.repartition()
    stats = result.refine_stats
    return (
        _labels_sha(session.part),
        _record(result),
        (stats.rounds, stats.vertices_moved, stats.cut_before,
         stats.cut_after, stats.lp_iterations),
    )


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


# Per batch: (stages, quality_initial, quality_final) — see _record.
MESH_RECORDS_GOLDEN = [
    ([(1.0, 15.0, 31, 39, 10, 165.0, 153.0)],
     (359.0, "778c07aafe0e1fd1", "06221be372519202", 1.0819672131147542),
     (307.0, "8ed7298e0e6c6046", "939cd4f944e2b1b8", 1.0032786885245901)),
    ([(1.0, 19.0, 30, 38, 14, 169.0, 157.0)],
     (315.0, "2dddaf1448d70ee8", "b01590f7a648a971", 1.0816),
     (308.0, "c205a325f9ca8788", "7c89d7d710edebeb", 1.0048)),
    ([(1.0, 40.0, 28, 36, 12, 187.0, 162.0)],
     (320.0, "bd3d94ed53b3a520", "879ad2a48017a85d", 1.15968992248062),
     (319.0, "fd1d0626257681b1", "3a9cbdbae9db4a58", 1.0046511627906978)),
    ([(1.0, 20.0, 31, 39, 12, 172.0, 164.0)],
     (329.0, "4e7b804751b6b927", "6d18edfb16f6afb1", 1.050381679389313),
     (306.0, "f9d419972ed1bb93", "148292beb21d2a10", 1.001526717557252)),
    ([(1.0, 26.0, 31, 39, 12, 184.0, 168.0)],
     (327.0, "707d0f84376249cd", "405a4bd34a706264", 1.0985074626865672),
     (316.0, "a38efd9559904c5e", "c545f2cd2c512f5c", 1.0029850746268656)),
    ([(1.0, 29.0, 31, 39, 12, 187.0, 173.0)],
     (327.0, "7ee1b2bf953c15cc", "01fe383a0786f900", 1.0840579710144929),
     (323.0, "6c9d6ad70fcc8409", "87c549445f51e35a", 1.0028985507246377)),
]
CHURN_RECORDS_GOLDEN = [
    ([(1.0, 7.0, 56, 64, 8, 83.0, 77.0)],
     (1055.0, "bb434a550eb84e0d", "565f71c8a9e7fa56", 1.0849673202614378),
     (1058.0, "82cb9bc4f281ab68", "19791e99a3db2c51", 1.0065359477124183)),
    ([(1.0, 9.0, 56, 64, 20, 82.0, 78.0)],
     (1097.0, "1ab2a10a022c6fdf", "bbc66e6aaede54e5", 1.0512820512820513),
     (1117.0, "c69927a9e358daf5", "350b331838bc6aed", 1.0)),
    ([(1.0, 7.0, 56, 64, 12, 84.0, 80.0)],
     (1163.0, "d75405e48ef8b0c8", "a9109d09fa5bcd04", 1.0566037735849056),
     (1168.0, "48e95b34c79e3a67", "42c9868ecb17c416", 1.0062893081761006)),
    ([(1.0, 9.0, 56, 64, 18, 84.0, 81.0)],
     (1212.0, "60bcede39c617793", "7c823619595365ca", 1.037037037037037),
     (1231.0, "c2b64c0fd7e660da", "9a0028759c9a1eb5", 1.0)),
    ([(1.0, 5.0, 56, 64, 12, 85.0, 83.0)],
     (1266.0, "45e44b728bb79199", "6ac438c6951e4002", 1.0303030303030303),
     (1266.0, "ec4b49c731eef0b7", "639a3e2343c8ab28", 1.006060606060606)),
    ([(1.0, 7.0, 56, 64, 20, 88.0, 84.0)],
     (1303.0, "d45bd62a4c790089", "0e3ad27ebda26d93", 1.0476190476190477),
     (1315.0, "a3c4048378a70cb9", "5ff8f0429d8dc0bb", 1.0)),
]
# (labels sha256, batch record, refinement (rounds, vertices_moved,
# cut_before, cut_after, lp_iterations)).
EMPTY_BATCH_GOLDEN = (
    "0fbfaba92ebe2bdc6c6827b8724631003be3b39fed17ead2e482f34592332940",
    ([(1.0, 75.0, 19, 27, 12, 225.0, 150.0)],
     (566.0, "66004de3438a7621", "ff3365c99dad277b", 1.5),
     (532.0, "ebb29b4f6edcc898", "999dff7a9bec1e04", 1.0)),
    (4, 90, 595.0, 532.0, 35),
)


def test_mesh_igpr_chain_labels_and_pivots_are_pinned():
    assert run_mesh() == MESH_GOLDEN


def test_churn_chain_monolithic_is_pinned():
    assert run_churn() == CHURN_GOLDEN


def test_churn_chain_sharded_over_budget_is_pinned(tmp_path):
    assert run_churn(tmp_path / "shards") == CHURN_GOLDEN


def test_revised_solver_per_solve_stats_are_pinned():
    assert run_solver_stats() == SOLVER_GOLDEN


def test_mesh_chain_stage_records_and_quality_are_pinned():
    assert run_mesh_records() == MESH_RECORDS_GOLDEN


def test_churn_chain_monolithic_records_are_pinned():
    assert run_churn_records() == CHURN_RECORDS_GOLDEN


def test_churn_chain_sharded_records_are_pinned(tmp_path):
    assert run_churn_records(tmp_path / "shards") == CHURN_RECORDS_GOLDEN


def test_empty_batch_repartition_monolithic_is_pinned():
    assert run_empty_batch() == EMPTY_BATCH_GOLDEN


def test_empty_batch_repartition_sharded_is_pinned(tmp_path):
    assert run_empty_batch(tmp_path / "shards") == EMPTY_BATCH_GOLDEN


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile
    from pprint import pprint

    print("MESH_GOLDEN =", run_mesh())
    print("CHURN_GOLDEN =", run_churn())
    with tempfile.TemporaryDirectory() as tmp:
        print("CHURN_SHARDED =", run_churn(f"{tmp}/shards"))
    print("SOLVER_GOLDEN =", run_solver_stats())
    print("MESH_RECORDS_GOLDEN = ", end="")
    pprint(run_mesh_records())
    print("CHURN_RECORDS_GOLDEN = ", end="")
    pprint(run_churn_records())
    with tempfile.TemporaryDirectory() as tmp:
        print("CHURN_RECORDS_SHARDED = ", end="")
        pprint(run_churn_records(f"{tmp}/shards"))
    print("EMPTY_BATCH_GOLDEN = ", end="")
    pprint(run_empty_batch())
    with tempfile.TemporaryDirectory() as tmp:
        print("EMPTY_BATCH_SHARDED = ", end="")
        pprint(run_empty_batch(f"{tmp}/shards"))
