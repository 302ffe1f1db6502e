"""repro — Parallel Incremental Graph Partitioning Using Linear Programming.

A complete reproduction — and progressive scale-up — of Ou & Ranka
(SC 1994): the LP-based incremental graph partitioner (IGP/IGPR), every
substrate it depends on (CSR graphs, DIME-style adaptive meshes, recursive
spectral bisection, simplex solvers, a simulated 32-node CM-5), and the
benchmark harness that regenerates the paper's tables.

Quick start — the session API is the front door for every scenario
(one-shot, streaming, resumable)::

    import repro
    from repro.mesh import irregular_mesh, refine_in_disc

    mesh = irregular_mesh(1000, seed=1)
    session = repro.open_session(mesh, 32, lp_backend="revised")
    print(session.quality())                       # initial RSB partition

    ref = refine_in_disc(mesh, (0.7, 0.3), 0.15, 40)   # adapt the mesh
    session.push(ref.delta)        # batched under the FlushPolicy
    session.repartition()          # force the IGP pipeline now
    print(session.quality())

    session.save("state.igps")     # durable snapshot: graph + partition
                                   # + pending delta + warm LP bases
    restored = repro.PartitionSession.load("state.igps")
    restored.repartition()         # warm-starts exactly like the original

``open_session`` accepts a graph or a mesh, picks the initial partitioner
from a registry (``rsb`` / ``rcb`` / ``inertial`` / ``given``), and wraps
the streaming engine so pushed deltas are composed and flushed under a
:class:`~repro.core.streaming.FlushPolicy`.  The lower-level pieces
(``IncrementalGraphPartitioner``, ``StreamingPartitioner``) remain
available under :mod:`repro.core` for custom drivers — see the README's
"advanced / internals" section.

Package map (see DESIGN.md for the full inventory):

=================  ====================================================
``repro.session``  the public session facade: open/push/flush/save/load
``repro.service``  the network service: TCP server, WAL, session manager
``repro.graph``    CSR graphs, builders, generators, incremental deltas
``repro.mesh``     DIME-style triangulations, refinement, datasets A/B
``repro.lp``       dense two-phase simplex, netflow, parallel simplex
``repro.spectral`` RSB / RCB / RGB / inertial / KL baselines
``repro.parallel`` virtual CM-5 (SPMD ranks, collectives, sim clocks)
``repro.core``     the paper's four-step incremental partitioner
``repro.bench``    paper-table harness (Figures 11 and 14, speedups)
=================  ====================================================
"""

from repro._version import __version__
from repro.errors import (
    GraphError,
    LPError,
    MeshError,
    ParallelError,
    PartitioningError,
    RepartitionInfeasibleError,
    ReproError,
    ServiceError,
    SnapshotError,
)
from repro.graph import (
    CSRGraph,
    DirectoryShardStore,
    GraphDelta,
    InMemoryShardStore,
    ShardedCSRGraph,
    apply_delta,
    compose_deltas,
)
from repro.core import (
    FlushPolicy,
    IGPConfig,
    PartitionQuality,
    evaluate_partition,
)
from repro.session import (
    BatchSummary,
    PartitionSession,
    available_initial_partitioners,
    open_session,
    register_initial_partitioner,
)
from repro.spectral import rsb_partition

__all__ = [
    "BatchSummary",
    "CSRGraph",
    "DirectoryShardStore",
    "FlushPolicy",
    "GraphDelta",
    "GraphError",
    "IGPConfig",
    "InMemoryShardStore",
    "LPError",
    "MeshError",
    "ParallelError",
    "PartitionQuality",
    "PartitionSession",
    "PartitioningError",
    "RepartitionInfeasibleError",
    "ReproError",
    "ServiceError",
    "ShardedCSRGraph",
    "SnapshotError",
    "__version__",
    "apply_delta",
    "available_initial_partitioners",
    "compose_deltas",
    "evaluate_partition",
    "open_session",
    "register_initial_partitioner",
    "rsb_partition",
]
