"""Shard-native LP assembly: frame parity, paging, and the RPR801 gate.

The contract under test: the one repartition pipeline, reading a
sharded graph through :class:`repro.graph.frame.BoundaryFrame`, produces
bit-identical labels and LP pivot trajectories to reading the monolithic
:class:`~repro.graph.csr.CSRGraph` view, while never paging untouched
shards from the store once the frame is warm.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.analysis import analyze_source
from repro.bench.workloads import make_stream
from repro.core.streaming import FlushPolicy, StreamingPartitioner
from repro.graph import (
    BoundaryFrame,
    DirectoryShardStore,
    GraphDelta,
    ShardedCSRGraph,
    grid_graph,
)
from repro.spectral.rsb import rsb_partition


def codes_of(findings):
    return [f.code for f in findings]


def batch_pivots(sp):
    """Per-batch LP pivot totals (balance stages + refinement)."""
    out = []
    for rec in sp.history:
        pivots = sum(s.lp_iterations for s in rec.result.stages)
        if rec.result.refine_stats is not None:
            pivots += rec.result.refine_stats.lp_iterations
        out.append(pivots)
    return out


class TestFrameParity:
    """Labels and pivots are bit-identical to the monolithic path."""

    @pytest.mark.parametrize("source", ["dataset-a", "churn", "adversarial"])
    def test_stream_labels_and_pivots_match_monolith(self, source):
        base, deltas = make_stream(source, scale=0.3, steps=6, seed=7)
        part = rsb_partition(base, 4, seed=0)
        policy = FlushPolicy(max_pending=2)
        kwargs = dict(
            num_partitions=4, refine=True, lp_backend="revised"
        )

        mono = StreamingPartitioner(
            base, part, policy=policy, strict=False, **kwargs
        )
        shard = StreamingPartitioner(
            ShardedCSRGraph.from_csr(base, 6),
            part,
            policy=policy,
            strict=False,
            **kwargs,
        )
        mono.extend(deltas)
        shard.extend(deltas)

        assert len(mono.history) == len(shard.history) > 0
        assert np.array_equal(mono.part, shard.part)
        assert batch_pivots(mono) == batch_pivots(shard)
        for m_rec, s_rec in zip(mono.history, shard.history):
            mq, sq = m_rec.result.quality_final, s_rec.result.quality_final
            assert mq.cut_total == sq.cut_total
            assert mq.imbalance == sq.imbalance

    def test_empty_batch_repartition_uses_frame(self):
        base, _ = make_stream("churn", scale=0.2, steps=2, seed=1)
        sp = StreamingPartitioner(
            ShardedCSRGraph.from_csr(base, 4),
            rsb_partition(base, 4, seed=0),
            num_partitions=4,
            refine=True,
        )
        result = sp.repartition()
        assert isinstance(sp.quality_view, BoundaryFrame)
        mono = StreamingPartitioner(
            base, rsb_partition(base, 4, seed=0), num_partitions=4, refine=True
        )
        assert np.array_equal(result.part, mono.repartition().part)


class TestUntouchedShardsStayCold:
    """The zero-paging property: a warm frame never loads untouched blocks."""

    def _engine(self, tmp_path, n_side=16, num_shards=8, p=4):
        base = grid_graph(n_side, n_side)
        store = DirectoryShardStore(tmp_path / "shards", max_resident=2)
        sharded = ShardedCSRGraph.from_csr(base, num_shards, store=store)
        sp = StreamingPartitioner(
            sharded,
            rsb_partition(base, p, seed=0),
            num_partitions=p,
            refine=True,
            policy=FlushPolicy(max_pending=1),
        )
        return base, store, sp

    def test_localized_flush_loads_only_touched_blocks(self, tmp_path):
        base, store, sp = self._engine(tmp_path)
        sp.repartition()  # warm-up: attaches the frame (one full sweep)
        assert isinstance(sp.quality_view, BoundaryFrame)

        counts_before = dict(store.load_counts)
        # A delta entirely inside shard 0 (contiguous split: vertices
        # 0..31 of the 256-vertex grid): one new diagonal edge.
        result = sp.push(GraphDelta(added_edges=[(0, 17)]))
        assert result is not None  # max_pending=1 flushed

        touched = {0}
        for key, count in store.load_counts.items():
            gained = count - counts_before.get(key, 0)
            if gained == 0:
                continue
            sid = int(key.split("_")[1])
            assert sid in touched, (
                f"untouched shard block {key} was paged {gained}x during a "
                f"flush that only touched shards {sorted(touched)}"
            )

    def test_streak_of_localized_flushes_stays_boundary_local(self, tmp_path):
        base, store, sp = self._engine(tmp_path)
        sp.repartition()
        counts_before = dict(store.load_counts)
        # Edge-only churn pinned to shard 0; every flush after warm-up
        # must page shard-0 revisions only.
        for k in range(3):
            sp.push(GraphDelta(added_edges=[(k, k + 17)]))
        for key, count in store.load_counts.items():
            gained = count - counts_before.get(key, 0)
            if gained:
                assert key.startswith("shard_00000_"), key


class TestSessionQuality:
    """Satellite 5: sharded session quality() is frame-routed + memoized."""

    def test_quality_routes_through_frame_and_memoizes(self):
        base, deltas = make_stream("churn", scale=0.25, steps=4, seed=7)
        session = repro.open_session(
            ShardedCSRGraph.from_csr(base, 5),
            4,
            policy=FlushPolicy(max_pending=2),
            seed=0,
            strict=False,
        )
        session.extend(deltas)
        assert isinstance(session._sp.quality_view, BoundaryFrame)
        q = session.quality()
        # bit-identical to the monolithic evaluation of the same state
        from repro.core.quality import evaluate_partition

        dense = session.graph.to_csr()
        ref = evaluate_partition(dense, session.part, 4)
        assert q.cut_total == ref.cut_total
        assert q.cut_max == ref.cut_max
        assert q.imbalance == ref.imbalance
        assert np.array_equal(q.weights, ref.weights)
        # memoized until the next mutation
        assert session.quality() is q
        n = session.graph.num_vertices
        session.push(GraphDelta(num_added_vertices=1, added_edges=[(0, n)]))
        assert session.quality() is not q


class TestBoundaryFrameUnit:
    def test_rows_are_global_csr_subsequence(self):
        base = grid_graph(6, 6)
        frame = BoundaryFrame(ShardedCSRGraph.from_csr(base, 3))
        verts = np.array([0, 7, 20, 35])
        src, dst, ew = frame.rows(verts)
        gsrc = base.arc_sources()
        keep = np.isin(gsrc, verts)
        assert np.array_equal(src, gsrc[keep])
        assert np.array_equal(dst, base.adj[keep])
        assert np.array_equal(ew, base.eweights[keep])

    def test_cache_cap_validation(self):
        base = grid_graph(4, 4)
        sharded = ShardedCSRGraph.from_csr(base, 2)
        with pytest.raises(repro.errors.GraphError):
            BoundaryFrame(sharded, max_cached_blocks=0)


class TestRPR801:
    """The lint gate that keeps the hot path shard-native."""

    def test_flags_library_to_csr_call(self):
        src = "def f(g):\n    return g.to_csr()\n"
        assert "RPR801" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_allow_list_site_is_exempt(self):
        src = "def open_session(g):\n    return g.to_csr()\n"
        assert codes_of(analyze_source(src, "repro/session.py")) == []
        # ...but only at that exact site
        assert "RPR801" in codes_of(analyze_source(src, "repro/core/x.py"))

    def test_inline_suppression_is_honoured(self):
        src = (
            "def f(g):\n"
            "    return g.to_csr()  # repro: ignore[RPR801] - debug path\n"
        )
        assert codes_of(analyze_source(src, "repro/core/x.py")) == []

    def test_tests_and_benchmarks_are_exempt(self):
        src = "def f(g):\n    return g.to_csr()\n"
        assert codes_of(analyze_source(src, "tests/test_x.py")) == []
        assert codes_of(analyze_source(src, "benchmarks/bench_x.py")) == []

    def test_method_qualname_in_class_is_not_allow_listed(self):
        src = (
            "class S:\n"
            "    def open_session(self, g):\n"
            "        return g.to_csr()\n"
        )
        assert "RPR801" in codes_of(analyze_source(src, "repro/session.py"))
