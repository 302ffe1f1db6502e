"""End-to-end tests for the IGP/IGPR driver."""

import numpy as np
import pytest

from repro.core import IGPConfig, IncrementalGraphPartitioner
from repro.core.quality import edge_cut, partition_sizes
from repro.errors import RepartitionInfeasibleError, UnknownBackendError
from repro.graph import grid_graph, random_geometric_graph
from repro.graph.incremental import GraphDelta, apply_delta, carry_partition


class TestConfig:
    def test_kwargs_shortcut(self):
        igp = IncrementalGraphPartitioner(num_partitions=4, refine=True)
        assert igp.config.num_partitions == 4
        assert igp.config.refine

    def test_config_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            IncrementalGraphPartitioner(IGPConfig(), num_partitions=4)

    def test_invalid_gamma_schedule(self):
        with pytest.raises(ValueError):
            IGPConfig(gamma_schedule=(0.5,))

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            IGPConfig(num_partitions=0)

    def test_unknown_lp_backend_rejected_at_construction(self):
        with pytest.raises(UnknownBackendError, match="nope"):
            IGPConfig(lp_backend="nope")
        with pytest.raises(UnknownBackendError):
            IncrementalGraphPartitioner(num_partitions=4, lp_backend="nope")

    def test_legacy_backend_alias_still_accepted(self):
        # Snapshot manifests store asdict(config); old ones may name the
        # legacy alias of the tableau backend.
        assert IGPConfig(lp_backend="dense_simplex").lp_backend == "dense_simplex"


class TestRepartition:
    def _grow(self, g, part, extra, seed=3):
        """Attach `extra` new vertices near vertex 0's partition."""
        rng = np.random.default_rng(seed)
        anchor = np.flatnonzero(part == part[0])
        edges = []
        n = g.num_vertices
        for k in range(extra):
            a = int(rng.choice(anchor))
            edges.append((a, n + k))
            if k > 0:
                edges.append((n + k - 1, n + k))
        inc = apply_delta(g, GraphDelta(num_added_vertices=extra, added_edges=edges))
        return inc.graph, carry_partition(part, inc)

    def test_balance_restored(self, strip_partition):
        g = grid_graph(8, 8)
        part = strip_partition(g, 4)
        g2, carried = self._grow(g, part, 12)
        res = IncrementalGraphPartitioner(num_partitions=4).repartition(g2, carried)
        sizes = partition_sizes(g2, res.part, 4)
        assert sizes.max() == np.ceil(g2.num_vertices / 4)

    def test_already_balanced_is_a_noop(self, strip_partition):
        g = grid_graph(8, 8)
        part = strip_partition(g, 4)
        res = IncrementalGraphPartitioner(num_partitions=4).repartition(g, part.copy())
        assert res.num_stages == 0
        assert np.array_equal(res.part, part)

    def test_refinement_improves_or_equals(self, strip_partition):
        g = random_geometric_graph(400, seed=21)
        part = strip_partition(g, 8)
        g2, carried = self._grow(g, part, 30)
        plain = IncrementalGraphPartitioner(num_partitions=8).repartition(
            g2, carried.copy()
        )
        refined = IncrementalGraphPartitioner(
            num_partitions=8, refine=True
        ).repartition(g2, carried.copy())
        assert edge_cut(g2, refined.part) <= edge_cut(g2, plain.part)
        assert refined.refine_stats is not None

    def test_quality_records_present(self, strip_partition):
        g = grid_graph(6, 6)
        part = strip_partition(g, 3)
        g2, carried = self._grow(g, part, 6)
        res = IncrementalGraphPartitioner(num_partitions=3).repartition(g2, carried)
        assert res.quality_initial is not None
        assert res.quality_final is not None
        assert res.quality_final.imbalance <= res.quality_initial.imbalance + 1e-9

    def test_timings_recorded(self, strip_partition):
        g = grid_graph(6, 6)
        part = strip_partition(g, 3)
        g2, carried = self._grow(g, part, 6)
        res = IncrementalGraphPartitioner(num_partitions=3).repartition(g2, carried)
        assert set(res.timings) == {"assign", "layering", "lp", "move", "refine"}
        assert res.total_time >= 0

    def test_stage_records_track_loads(self, strip_partition):
        g = grid_graph(8, 8)
        part = strip_partition(g, 4)
        g2, carried = self._grow(g, part, 16)
        res = IncrementalGraphPartitioner(num_partitions=4).repartition(g2, carried)
        assert res.num_stages >= 1
        for s in res.stages:
            assert s.max_load_after <= s.max_load_before
            assert s.lp_variables > 0

    def test_multi_stage_on_severe_imbalance(self):
        # A long path where one end grows a big blob: δ capacities are
        # tiny (width-1 boundaries), forcing γ-relaxed stages.
        from repro.graph import path_graph

        g = path_graph(40)
        part = (np.arange(40) // 10).astype(np.int64)  # 4 x 10
        g2, carried = self._grow(g, part, 24, seed=5)
        res = IncrementalGraphPartitioner(
            num_partitions=4, gamma_schedule=(1.0, 1.2, 1.5, 2.0, 3.0)
        ).repartition(g2, carried)
        sizes = partition_sizes(g2, res.part, 4)
        assert sizes.max() == np.ceil(g2.num_vertices / 4)
        assert res.num_stages >= 2  # needed several stages

    def test_infeasible_raises_with_cap(self):
        from repro.graph import path_graph

        g = path_graph(12)
        part = (np.arange(12) // 3).astype(np.int64)
        g2, carried = self._grow(g, part, 30, seed=7)
        with pytest.raises(RepartitionInfeasibleError):
            IncrementalGraphPartitioner(
                num_partitions=4,
                gamma_schedule=(1.0,),
                gamma_cap=1.0,
                max_stages=1,
            ).repartition(g2, carried)

    def test_weighted_vertices_balanced_approximately(self):
        g = random_geometric_graph(200, seed=31)
        w = np.ones(200)
        w[:20] = 3.0
        g = g.with_vertex_weights(w)
        part = (np.arange(200) * 4 // 200).astype(np.int64)
        res = IncrementalGraphPartitioner(num_partitions=4).repartition(
            g, part
        )
        from repro.core.quality import partition_weights

        loads = partition_weights(g, res.part, 4)
        lam = w.sum() / 4
        assert loads.max() <= lam + 3.0  # within one heavy vertex
