"""Parallel IGP must be bit-identical to serial, at every rank count.

Every rank runs the serial driver on its view of the replicated graph,
so serial == SPMD holds by construction; these tests pin it, per
backend, with and without refinement, at rank counts that do and do not
divide P, on integral and fractional weights.
"""

import numpy as np
import pytest

from repro.core import IGPConfig, IncrementalGraphPartitioner
from repro.core.assign import assign_new_vertices
from repro.core.layering import layer_partitions
from repro.core.parallel_igp import _RankOps, _RankView, parallel_repartition
from repro.core.quality import partition_weights
from repro.graph import GraphDelta
from repro.graph.incremental import apply_delta, carry_partition
from repro.mesh import irregular_mesh, node_graph, refine_in_disc
from repro.obs import get_tracer
from repro.parallel import CM5, ZERO_COST
from repro.parallel.runtime import VirtualMachine
from repro.spectral import rsb_partition


def _mesh_step(n_new=30, radius=0.14):
    mesh = irregular_mesh(350, seed=19)
    g0 = node_graph(mesh)
    base = rsb_partition(g0, 8, seed=0)
    ref = refine_in_disc(mesh, (0.7, 0.3), radius, n_new)
    inc = apply_delta(g0, ref.delta)
    return inc.graph, carry_partition(base, inc)


def _fractional(graph, carried):
    """Vertex and edge weights ``k/97``: non-dyadic, so a summation
    order that differs between serial and SPMD shows in the last bits."""
    v = np.arange(graph.num_vertices)
    src, dst = graph.arc_sources(), graph.adj
    ek = ((src + dst) * 13 + (src * dst) % 89) % 97 + 1  # symmetric in (u, v)
    g = graph.with_vertex_weights((97 + (v * 37) % 97) / 97.0)
    return g.with_edge_weights(ek / 97.0), carried


def _detached(graph, carried):
    """Three new vertices with no path to the old graph: assignment's
    clustering fallback has to place them."""
    n = graph.num_vertices
    step = apply_delta(
        graph, GraphDelta(num_added_vertices=3, added_edges=[(n, n + 1), (n + 1, n + 2)])
    )
    return step.graph, carry_partition(carried, step)


SCENARIOS = {
    "mesh": lambda: _mesh_step(),
    "fractional": lambda: _fractional(*_mesh_step()),
    "detached": lambda: _detached(*_mesh_step()),
    # 120 new nodes in a small disc: a relaxed stage precedes the exact one.
    "multistage": lambda: _mesh_step(n_new=120, radius=0.1),
}


@pytest.fixture(scope="module")
def scenario():
    return SCENARIOS["mesh"]()


@pytest.fixture(scope="module")
def any_scenario(request):
    return SCENARIOS[request.param]()


def _pipeline_cases():
    """Every scenario x backend x refine at ranks 1, 3 and 8 (3 does not
    divide P = 8), plus ranks 2 and 4 on the mesh with the default
    backend and refinement, which keep their ids ``2`` and ``4``."""
    cases = [
        pytest.param(s, b, r, k, id=f"{s}-{b}-{r}-{k}")
        for s in sorted(SCENARIOS)
        for b in ("tableau", "revised")
        for r in (False, True)
        for k in (1, 3, 8)
    ]
    cases += [pytest.param("mesh", "tableau", True, k, id=str(k)) for k in (2, 4)]
    return cases


class _Tally:
    """The slice of a communicator the rank view uses."""

    def __init__(self, size, rank):
        self.size, self.rank, self.work = size, rank, 0

    def compute(self, units):
        self.work += units


def _rank_step(comm, name, graph, part, *args):
    ops = _RankOps(comm, IGPConfig(num_partitions=8))
    return getattr(ops, name)(_RankView(graph, comm, part), part, *args)


class TestOwnership:
    def test_round_robin(self, scenario):
        """Partition q lives on rank q mod size, an unassigned vertex on
        rank id mod size, and each rank is charged the arcs of exactly
        the rows it owns."""
        graph, carried = scenario
        degree = np.diff(graph.xadj)
        new = np.flatnonzero(carried < 0)
        part = assign_new_vertices(graph, carried, 8)
        charged = 0
        for rank in range(3):
            comm = _Tally(3, rank)
            view = _RankView(graph, comm, carried)
            view.rows(new)
            assert comm.work == degree[new[new % 3 == rank]].sum()
            comm.work = 0
            view.rows(view.ensure_boundary(part))
            assert comm.work == degree[part % 3 == rank].sum()
            charged += comm.work
        assert charged == degree.sum()  # each arc is charged to one rank


class TestDistributedSteps:
    """The serial phase functions run unchanged on each rank's view; the
    rank's exchanges keep the replicas equal."""

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_assign_matches_serial(self, scenario, ranks):
        graph, carried = scenario
        serial = assign_new_vertices(graph, carried, 8)
        vm = VirtualMachine(ranks, machine=CM5, recv_timeout=30)
        run = vm.run(_rank_step, "assign", graph, carried)
        for out in run.results:
            assert np.array_equal(out, serial)
        assert all(t > 0 for t in run.rank_times)  # each rank read rows
        assert (run.messages > 0) == (ranks > 1)  # the labels' allgather

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_layering_matches_serial(self, scenario, ranks):
        graph, carried = scenario
        part = assign_new_vertices(graph, carried, 8)
        loads = partition_weights(graph, part, 8)
        serial = layer_partitions(graph, part, 8, loads=loads)
        vm = VirtualMachine(ranks, machine=ZERO_COST, recv_timeout=30)
        run = vm.run(_rank_step, "layer", graph, part, loads)
        for lay in run.results:
            assert np.array_equal(lay.label, serial.label)
            assert np.array_equal(lay.layer, serial.layer)
            assert np.array_equal(lay.delta, serial.delta)
        assert (run.messages > 0) == (ranks > 1)  # halo and allgather


class TestFullPipeline:
    @pytest.mark.parametrize(
        "any_scenario, backend, refine, ranks", _pipeline_cases(),
        indirect=["any_scenario"],
    )
    def test_identical_to_serial(self, any_scenario, backend, refine, ranks):
        graph, carried = any_scenario
        cfg = IGPConfig(num_partitions=8, refine=refine, lp_backend=backend)
        serial = IncrementalGraphPartitioner(cfg).repartition(graph, carried.copy())
        par = parallel_repartition(
            graph, carried.copy(), cfg, num_ranks=ranks, machine=CM5
        )
        assert np.array_equal(par.part, serial.part)
        assert par.num_stages == serial.num_stages
        assert par.result.stages == serial.stages
        assert par.result.refine_stats == serial.refine_stats

    def test_rank_zero_alone_records_spans(self, scenario):
        graph, carried = scenario
        tracer = get_tracer()
        tracer.clear()
        tracer.configure(enabled=True)
        try:
            parallel_repartition(
                graph, carried.copy(), IGPConfig(num_partitions=8, refine=True),
                num_ranks=3,
            )
            spans = tracer.finished()
        finally:
            tracer.configure(enabled=False)
            tracer.clear()
        names = [sp.name for sp in spans]
        assert names.count("lp.assign") == names.count("lp.refine") == 1
        assert len({sp.tid for sp in spans}) == 1

    def test_simulated_speedup_positive(self, scenario):
        graph, carried = scenario
        cfg = IGPConfig(num_partitions=8, refine=False)
        t1 = parallel_repartition(graph, carried.copy(), cfg, num_ranks=1)
        t8 = parallel_repartition(graph, carried.copy(), cfg, num_ranks=8)
        assert t8.elapsed < t1.elapsed  # parallelism helps at this size
        assert t8.messages > 0
        assert t1.messages == 0  # single rank never communicates

    def test_deterministic_simulated_times(self, scenario):
        graph, carried = scenario
        cfg = IGPConfig(num_partitions=8, refine=False)
        a = parallel_repartition(graph, carried.copy(), cfg, num_ranks=4)
        b = parallel_repartition(graph, carried.copy(), cfg, num_ranks=4)
        assert a.elapsed == b.elapsed
        assert a.rank_times == b.rank_times
