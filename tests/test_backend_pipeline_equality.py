"""Integration: the pipeline under lp_backend="tableau" vs "revised".

The acceptance bar of the revised-simplex engine: both backends reach
the same balance, the revised engine spends far fewer pivots, serial ==
SPMD holds per backend at 4 ranks, and warm-start carriers on a reused
partitioner survive across repartition calls (the wider serial == SPMD
sweep is ``test_core_parallel_igp.py::TestFullPipeline::test_identical_to_serial``).
"""

import numpy as np
import pytest

from repro.core import IGPConfig, IncrementalGraphPartitioner
from repro.core.parallel_igp import parallel_repartition
from repro.graph.incremental import apply_delta, carry_partition
from repro.mesh import irregular_mesh, node_graph, refine_in_disc
from repro.spectral import rsb_partition


@pytest.fixture(scope="module")
def scenario():
    mesh = irregular_mesh(350, seed=19)
    g0 = node_graph(mesh)
    base = rsb_partition(g0, 8, seed=0)
    ref = refine_in_disc(mesh, (0.7, 0.3), 0.14, 30)
    inc = apply_delta(g0, ref.delta)
    carried = carry_partition(base, inc)
    return inc.graph, carried


class TestBackendEquality:
    @pytest.mark.parametrize("backend", ["tableau", "revised"])
    @pytest.mark.parametrize("refine", [False, True])
    def test_parallel_identical_to_serial(self, scenario, backend, refine):
        graph, carried = scenario
        cfg = IGPConfig(num_partitions=8, refine=refine, lp_backend=backend)
        serial = IncrementalGraphPartitioner(cfg).repartition(
            graph, carried.copy()
        )
        par = parallel_repartition(graph, carried.copy(), cfg, num_ranks=4)
        assert np.array_equal(par.part, serial.part)
        assert par.num_stages == serial.num_stages
        assert par.result.stages == serial.stages

    @pytest.mark.parametrize("refine", [False, True])
    def test_revised_reaches_same_balance_with_fewer_pivots(
        self, scenario, refine
    ):
        """Both engines must reach the same balance; the partition vector
        itself may differ (alternate LP optima pick different movers),
        which is why the equality contract is serial-vs-parallel *per
        backend*, not across backends."""
        graph, carried = scenario
        results = {}
        for backend in ("tableau", "revised"):
            cfg = IGPConfig(num_partitions=8, refine=refine, lp_backend=backend)
            results[backend] = IncrementalGraphPartitioner(cfg).repartition(
                graph, carried.copy()
            )
        qt = results["tableau"].quality_final
        qr = results["revised"].quality_final
        assert qr.imbalance == pytest.approx(qt.imbalance)
        # the revised engine does materially less pivoting
        tab_iters = sum(s.lp_iterations for s in results["tableau"].stages)
        rev_iters = sum(s.lp_iterations for s in results["revised"].stages)
        if tab_iters:
            assert rev_iters < tab_iters


class TestWarmStartAcrossCalls:
    def test_chained_calls_match_parallel_with_threaded_bases(self, scenario):
        """A *reused* serial partitioner warm-starts from the previous
        call's basis; a fresh VM starts cold, so the parallel side must
        be seeded with ``initial_bases=igp.warm_bases`` to stay
        vector-identical across a chained incremental sequence."""
        graph, carried = scenario
        cfg = IGPConfig(num_partitions=8, refine=True, lp_backend="revised")
        igp = IncrementalGraphPartitioner(cfg)
        rng = np.random.default_rng(7)
        part = carried.copy()
        for step in range(3):
            bases = igp.warm_bases
            serial = igp.repartition(graph, part.copy())
            par = parallel_repartition(
                graph, part.copy(), cfg, num_ranks=4, initial_bases=bases
            )
            assert np.array_equal(par.part, serial.part), f"step {step}"
            assert par.extra["final_bases"] == igp.warm_bases
            # next incremental step: dump a random clump onto partition 0
            part = serial.part.copy()
            part[rng.integers(0, graph.num_vertices, 40)] = 0

    def test_carrier_persists_and_resets(self, scenario):
        graph, carried = scenario
        igp = IncrementalGraphPartitioner(
            IGPConfig(num_partitions=8, refine=True, lp_backend="revised")
        )
        assert igp._balance_carrier.basis is None
        first = igp.repartition(graph, carried.copy())
        assert first.quality_final.imbalance <= 1.51
        # A stage was solved, so a basis was deposited for the next call.
        if first.num_stages:
            assert igp._balance_carrier.basis is not None
        second = igp.repartition(graph, first.part.copy())
        assert second.quality_final.imbalance <= 1.51
        igp.reset_warm_start()
        assert igp._balance_carrier.basis is None
        assert igp._refine_carrier.basis is None

    def test_default_backend_keeps_carriers_empty(self, scenario):
        graph, carried = scenario
        igp = IncrementalGraphPartitioner(IGPConfig(num_partitions=8))
        igp.repartition(graph, carried.copy())
        assert igp._balance_carrier.basis is None
        assert igp._refine_carrier.basis is None
