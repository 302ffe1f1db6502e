"""Sharded CSR graphs: split/round-trip properties, monolith equivalence,
shard stores, and the shard-streaming metric paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workloads import social_churn_stream
from repro.core.quality import cut_metrics, edge_cut, evaluate_partition
from repro.errors import GraphError, GraphValidationError
from repro.graph import (
    CSRGraph,
    DirectoryShardStore,
    GraphDelta,
    InMemoryShardStore,
    ShardBlock,
    ShardedCSRGraph,
    apply_delta,
    boundary_vertices,
    carry_partition,
    grid_graph,
)
from repro.mesh.sequences import dataset_a
from repro.rng import make_rng


@pytest.fixture
def grid() -> CSRGraph:
    return grid_graph(8, 8)


def assert_graphs_equal(dense: CSRGraph, mono: CSRGraph):
    assert dense.same_structure(mono)
    assert (dense.coords is None) == (mono.coords is None)
    if mono.coords is not None:
        assert np.array_equal(dense.coords, mono.coords, equal_nan=True)


# ----------------------------------------------------------------------
# Split / reassemble round-trips
# ----------------------------------------------------------------------
class TestSplitRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 3, 8, 64, 100])
    def test_to_csr_reassembles_exactly(self, grid, num_shards):
        sharded = ShardedCSRGraph.from_csr(grid, num_shards)
        sharded.validate()
        assert_graphs_equal(sharded.to_csr(validate=True), grid)
        assert sharded.num_vertices == grid.num_vertices
        assert sharded.num_edges == grid.num_edges
        assert sharded.num_arcs == grid.num_arcs
        assert sharded.total_vertex_weight == grid.total_vertex_weight

    def test_per_shard_block_arrays_roundtrip(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        for _, block in sharded.iter_shards():
            clone = ShardBlock.from_arrays(block.to_arrays())
            assert np.array_equal(clone.births, block.births)
            assert np.array_equal(clone.xadj, block.xadj)
            assert np.array_equal(clone.adj, block.adj)
            assert np.array_equal(clone.eweights, block.eweights)
            assert np.array_equal(clone.vweights, block.vweights)
            clone.validate()

    def test_block_arrays_reject_missing_keys(self):
        with pytest.raises(GraphError, match="missing required keys"):
            ShardBlock.from_arrays({"births": np.zeros(0, np.int64)})

    def test_custom_assignment_and_halo_mirroring(self, grid):
        assignment = (np.arange(64) % 3).astype(np.int64)
        sharded = ShardedCSRGraph.from_csr(grid, 3, assignment=assignment)
        sharded.validate()
        assert_graphs_equal(sharded.to_csr(validate=True), grid)
        # A cut edge must be visible from both endpoint shards (halo).
        b0 = sharded.shard_block(0)
        assert len(b0.halo_births()) > 0
        for u, v in [(0, 1), (0, 8)]:
            su, sv = sharded.shard_of(u), sharded.shard_of(v)
            assert su != sv  # mod-3 striping cuts both grid edges of 0
            assert sharded.has_edge(u, v) and sharded.has_edge(v, u)

    def test_bad_assignment_rejected(self, grid):
        with pytest.raises(GraphError):
            ShardedCSRGraph.from_csr(grid, 2, assignment=np.zeros(3, np.int64))
        with pytest.raises(GraphError):
            ShardedCSRGraph.from_csr(
                grid, 2, assignment=np.full(64, 5, np.int64)
            )
        with pytest.raises(GraphError):
            ShardedCSRGraph.from_csr(grid, 0)

    def test_read_api_matches_monolith(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 5)
        for v in range(grid.num_vertices):
            assert np.array_equal(sharded.neighbors(v), grid.neighbors(v))
            assert np.array_equal(
                sharded.incident_weights(v), grid.incident_weights(v)
            )
            assert sharded.degree(v) == grid.degree(v)
            assert sharded.vertex_weight(v) == grid.vweights[v]
        assert np.array_equal(sharded.degrees(), grid.degrees())
        assert np.array_equal(sharded.vweights, grid.vweights)
        assert len(sharded) == len(grid)
        assert not sharded.has_edge(0, 2)
        with pytest.raises(KeyError):
            sharded.edge_weight(0, 2)
        assert sharded.edge_weight(0, 1) == grid.edge_weight(0, 1)

    def test_shard_subgraph_contains_owned_rows(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        subgraph, cur = sharded.shard_subgraph(1)
        block = sharded.shard_block(1)
        assert subgraph.num_vertices == block.num_vertices + len(
            block.halo_births()
        )
        # every owned vertex keeps its full degree in the subgraph
        for i in range(block.num_vertices):
            assert subgraph.degree(i) == int(
                block.xadj[i + 1] - block.xadj[i]
            )
        assert np.array_equal(
            np.sort(cur[: block.num_vertices]),
            sharded.current_ids(block.births),
        )


# ----------------------------------------------------------------------
# Monolith equivalence along delta chains
# ----------------------------------------------------------------------
def assert_step_matches(inc_m, inc_s, i):
    """One sharded apply_delta step equals the monolith's: id mapping,
    new-vertex ids, structure and bit-equal edge weights."""
    assert np.array_equal(inc_m.old_to_new, inc_s.old_to_new), i
    assert np.array_equal(inc_m.new_vertex_ids, inc_s.new_vertex_ids), i
    assert np.array_equal(inc_m.is_new, inc_s.is_new), i
    dense = inc_s.graph.to_csr(validate=True)
    assert_graphs_equal(dense, inc_m.graph)
    assert dense.eweights.tobytes() == inc_m.graph.eweights.tobytes(), i


def run_chain_equivalence(mono, deltas, num_shards, part=None, **kwargs):
    sharded = ShardedCSRGraph.from_csr(mono, num_shards)
    carried_m = carried_s = (
        None if part is None else np.asarray(part, dtype=np.int64)
    )
    for i, delta in enumerate(deltas):
        inc_m = apply_delta(mono, delta, **kwargs)
        inc_s = sharded.apply_delta(delta, **kwargs)
        assert_step_matches(inc_m, inc_s, i)
        if carried_m is not None:
            carried_m = carry_partition(carried_m, inc_m)
            carried_s = carry_partition(carried_s, inc_s)
            assert np.array_equal(carried_m, carried_s), i
        sharded.drop_blocks_not_in(inc_s.graph)
        mono, sharded = inc_m.graph, inc_s.graph
        sharded.validate()
    return mono, sharded


class TestDeltaEquivalence:
    def test_dataset_a_chain(self):
        seq = dataset_a(scale=0.25)
        part = np.arange(seq.graphs[0].num_vertices) % 4
        run_chain_equivalence(seq.graphs[0], list(seq.deltas), 6, part=part)

    def test_social_churn_chain(self):
        base, deltas = social_churn_stream(n=120, steps=6, seed=11)
        part = np.arange(base.num_vertices) % 3
        run_chain_equivalence(base, deltas, 5, part=part)

    def test_single_shard_degenerate(self):
        base, deltas = social_churn_stream(n=60, steps=3, seed=2)
        run_chain_equivalence(base, deltas, 1)

    def test_more_shards_than_touched(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 8)
        delta = GraphDelta(num_added_vertices=1, added_edges=[(0, 64)])
        inc = sharded.apply_delta(delta)
        assert inc.touched_shards == frozenset({0})
        assert inc.new_vertex_shards.tolist() == [0]
        # untouched shards kept their revision (and their stored bytes)
        assert int(inc.graph.revs[0]) == 1
        assert np.all(np.asarray(inc.graph.revs[1:]) == 0)

    def test_strict_missing_deletion_raises_like_monolith(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        delta = GraphDelta(deleted_edges=[(0, 9)])  # not a grid edge
        with pytest.raises(GraphError, match="do not exist"):
            apply_delta(grid, delta)
        with pytest.raises(GraphError, match="do not exist"):
            sharded.apply_delta(delta)
        inc_m = apply_delta(grid, delta, strict=False)
        inc_s = sharded.apply_delta(delta, strict=False)
        assert_graphs_equal(inc_s.graph.to_csr(validate=True), inc_m.graph)

    def test_duplicate_added_edge_raises_like_monolith(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        delta = GraphDelta(added_edges=[(0, 1)])
        with pytest.raises(GraphError, match="duplicate"):
            apply_delta(grid, delta)
        with pytest.raises(GraphError, match="duplicate"):
            sharded.apply_delta(delta)
        inc_m = apply_delta(grid, delta, accumulate_weights=True)
        inc_s = sharded.apply_delta(delta, accumulate_weights=True)
        assert inc_s.graph.edge_weight(0, 1) == 2.0
        assert_graphs_equal(inc_s.graph.to_csr(validate=True), inc_m.graph)

    def test_added_edge_to_deleted_vertex_raises(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        delta = GraphDelta(added_edges=[(0, 27)], deleted_vertices=[27])
        with pytest.raises(GraphError, match="deleted vertex"):
            sharded.apply_delta(delta)

    def test_self_loop_rejected(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        with pytest.raises(GraphError, match="[Ss]elf-loop"):
            sharded.apply_delta(GraphDelta(added_edges=[(3, 3)]))


#: Edge weights ``k / 997``: non-dyadic, so a changed summation order
#: shows up in the last bits.
WEIGHTS = st.integers(1, 10**6).map(lambda k: k / 997.0)


@st.composite
def random_delta_chain(draw):
    """A small weighted graph, the ``apply_delta`` flags and a chain of
    random deltas against it.

    The deltas delete vertices and edges (either orientation, repeats,
    edges that die with a deleted vertex, and edges that do not exist),
    add vertices and edges (to new vertices, between survivors, the
    same edge in both orientations) and sometimes break a rule (a
    self-loop, a duplicate, a missing deletion).  The chain is built on
    the monolith: a delta it rejects leaves the graph unchanged.
    """
    strict = draw(st.booleans())
    accumulate = draw(st.booleans())
    n = draw(st.integers(6, 14))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=12,
        )
    )
    edges = {(i, i + 1) for i in range(n - 1)}  # path keeps it connected
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = sorted(edges)
    graph = CSRGraph.from_edges(
        n, edges, eweights=[draw(WEIGHTS) for _ in edges]
    )
    kwargs = {"strict": strict, "accumulate_weights": accumulate}
    deltas = []
    cur = graph
    for _ in range(draw(st.integers(1, 4))):
        m = cur.num_vertices
        if m < 2:
            break
        live = [tuple(int(x) for x in e) for e in cur.edge_array()]
        dead = draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True))
        survivors = [v for v in range(m) if v not in dead]

        deleted = []
        if live:
            for i in draw(st.lists(st.integers(0, len(live) - 1), max_size=4)):
                u, v = live[i]
                deleted.append((v, u) if draw(st.booleans()) else (u, v))
        dying = [e for e in live if e[0] in dead or e[1] in dead]
        if dying and draw(st.booleans()):
            deleted.append(draw(st.sampled_from(dying)))
        if draw(st.integers(0, 4)) == 4:  # maybe a non-edge
            deleted.append(
                (draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1)))
            )

        n_add = draw(st.integers(0, 3)) if survivors else 0
        added = [
            (draw(st.sampled_from(survivors)), m + j) for j in range(n_add)
        ]
        if n_add > 1 and draw(st.booleans()):
            added.append((m + n_add - 1, m))
        gone = {(min(e), max(e)) for e in deleted}
        fresh = [
            (u, v)
            for i, u in enumerate(survivors)
            for v in survivors[i + 1 :]
            if (u, v) in gone or not cur.has_edge(u, v)
        ]
        if fresh:
            added += draw(st.lists(st.sampled_from(fresh), max_size=3))
        if added and draw(st.booleans()) and (
            accumulate or draw(st.integers(0, 3)) == 3
        ):  # the same edge again, in the other orientation
            u, v = draw(st.sampled_from(added))
            added.append((v, u))
        if live and draw(st.integers(0, 3)) == 3:  # maybe a surviving edge
            u, v = draw(st.sampled_from(live))
            added.append((u, v))
            if accumulate and draw(st.booleans()):
                added += [(v, u), (u, v)]
        if draw(st.integers(0, 9)) == 9:
            v = draw(st.integers(0, m - 1))
            added.append((v, v))

        delta = GraphDelta(
            num_added_vertices=n_add,
            added_edges=np.array(added, dtype=np.int64).reshape(-1, 2),
            deleted_vertices=np.array(dead, dtype=np.int64),
            deleted_edges=np.array(deleted, dtype=np.int64).reshape(-1, 2),
            added_vweights=[draw(WEIGHTS) for _ in range(n_add)],
            added_eweights=[draw(WEIGHTS) for _ in added],
        )
        try:
            cur = apply_delta(cur, delta, **kwargs).graph
        except GraphError:
            pass
        deltas.append(delta)
    return graph, kwargs, deltas


class TestPropertyEquivalence:
    @given(random_delta_chain(), st.integers(1, 5))
    @settings(deadline=None)
    def test_random_chain_matches_monolith(self, chain, num_shards):
        """Valid deltas give bit-equal graphs; invalid ones raise the
        monolith's message and leave the store as it was."""
        mono, kwargs, deltas = chain
        sharded = ShardedCSRGraph.from_csr(mono, num_shards)
        for i, delta in enumerate(deltas):
            try:
                inc_m = apply_delta(mono, delta, **kwargs)
            except GraphError as err:
                keys = sharded.store.keys()
                with pytest.raises(GraphError) as raised:
                    sharded.apply_delta(delta, **kwargs)
                assert str(raised.value) == str(err), i
                assert sharded.store.keys() == keys, i
                continue
            inc_s = sharded.apply_delta(delta, **kwargs)
            assert_step_matches(inc_m, inc_s, i)
            sharded.drop_blocks_not_in(inc_s.graph)
            mono, sharded = inc_m.graph, inc_s.graph
            sharded.validate()


def reference_route(sharded, delta):
    """New-vertex routing as a per-edge Python loop: the rules
    ``route_new_vertices`` must keep."""
    n = sharded.num_vertices
    n_add = delta.num_added_vertices
    routed = np.full(n_add, -1, dtype=np.int64)
    votes = [dict() for _ in range(n_add)]
    new_links = [[] for _ in range(n_add)]
    for u, v in delta.added_edges:
        for a, b in ((int(u), int(v)), (int(v), int(u))):
            if a >= n:
                if b < n:
                    sid = int(sharded.shard_of_birth[sharded.births[b]])
                    votes[a - n][sid] = votes[a - n].get(sid, 0) + 1
                else:
                    new_links[a - n].append(b - n)
    sizes = sharded.shard_sizes()
    for j in range(n_add):
        if votes[j]:
            routed[j] = max(votes[j].items(), key=lambda kv: (kv[1], -kv[0]))[0]
            sizes[routed[j]] += 1
    for j in range(n_add):
        if routed[j] < 0:
            linked = [k for k in new_links[j] if routed[k] >= 0]
            routed[j] = routed[min(linked)] if linked else int(np.argmin(sizes))
            sizes[routed[j]] += 1
    return routed


@st.composite
def routing_case(draw):
    """A sharded graph (after some deletions, so births are not the
    current ids) and a delta whose new vertices have old neighbours,
    new neighbours only, or none, with repeated edges and vote ties."""
    n = draw(st.integers(0, 12))
    num_shards = draw(st.integers(1, 4))
    assignment = draw(st.lists(
        st.integers(0, num_shards - 1), min_size=n, max_size=n
    ))
    sharded = ShardedCSRGraph.from_csr(
        CSRGraph.from_edges(n, []), num_shards, assignment=assignment
    )
    dead = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
    sharded = sharded.apply_delta(GraphDelta(deleted_vertices=dead)).graph
    n_cur = sharded.num_vertices
    n_add = draw(st.integers(0, 6))
    edges = []
    if n_add:
        new = st.integers(n_cur, n_cur + n_add - 1)
        kinds = [st.tuples(new, new)]
        if n_cur:
            old = st.integers(0, n_cur - 1)
            kinds += [st.tuples(new, old), st.tuples(old, new)]
        edges = draw(st.lists(st.one_of(kinds), max_size=12))
    return sharded, GraphDelta(num_added_vertices=n_add, added_edges=edges)


class TestRouting:
    @given(routing_case())
    @settings(deadline=None)
    def test_route_new_vertices_matches_reference_loop(self, case):
        sharded, delta = case
        routed = sharded.route_new_vertices(delta)
        assert routed.tolist() == reference_route(sharded, delta).tolist()

    def test_routing_rules(self, grid):
        # Shards of 16 vertices each: 0-15, 16-31, 32-47, 48-63.
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        delta = GraphDelta(
            num_added_vertices=7,
            added_edges=[
                (64, 0), (64, 16),            # tie: the smaller shard
                (65, 20), (65, 21), (65, 40),  # majority
                (66, 67), (67, 50),           # new-only: 67's vote-routed shard
                (69, 70),                     # new-only chain, nothing routed
            ],                                # 68 is isolated
        )
        # After the votes the sizes are 17, 17, 16, 17; 66 joins shard 3,
        # 68 the smallest (2), 69 the smallest then (0) and 70 follows it.
        assert sharded.route_new_vertices(delta).tolist() == [0, 1, 3, 3, 2, 0, 0]


class TestApplyDeltaRegressions:
    def test_edge_added_in_both_orientations_sums_symmetrically(self):
        """One delta adding an edge as (1, 0), (0, 1), (1, 0): both arcs
        carry the one sum, old weight first, then delta order."""
        rng = make_rng(23)  # summing the old weight last would differ here
        path = CSRGraph.from_edges(
            6, [(i, i + 1) for i in range(5)], eweights=rng.random(5)
        )
        delta = GraphDelta(
            added_edges=[(1, 0), (0, 1), (1, 0)], added_eweights=rng.random(3)
        )
        inc_m = apply_delta(path, delta, accumulate_weights=True)
        inc_s = ShardedCSRGraph.from_csr(path, 2).apply_delta(
            delta, accumulate_weights=True
        )
        dense = inc_s.graph.to_csr(validate=True)
        assert dense.eweights.tobytes() == inc_m.graph.eweights.tobytes()
        w = delta.added_eweights
        assert dense.edge_weight(0, 1) == ((path.edge_weight(0, 1) + w[0]) + w[1]) + w[2]

    @pytest.mark.parametrize(
        "delta",
        [
            # missing deletion before a duplicate
            GraphDelta(added_edges=[(0, 2), (2, 0)], deleted_edges=[(0, 5)]),
            # duplicate before a self-loop
            GraphDelta(added_edges=[(3, 4), (2, 2)]),
            # offending duplicates listed in delta order
            GraphDelta(added_edges=[(9, 10), (2, 3), (10, 9), (3, 2)]),
        ],
    )
    def test_errors_match_monolith(self, grid, delta):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        keys = sharded.store.keys()
        with pytest.raises(GraphError) as mono:
            apply_delta(grid, delta)
        with pytest.raises(GraphError) as shard:
            sharded.apply_delta(delta)
        assert str(shard.value) == str(mono.value)
        assert sharded.store.keys() == keys


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class TestStores:
    def test_in_memory_store_miss_raises(self):
        store = InMemoryShardStore()
        with pytest.raises(GraphError, match="no block"):
            store.get("shard_00000_r0")

    def test_directory_store_roundtrip_and_lru(self, grid, tmp_path):
        store = DirectoryShardStore(tmp_path, max_resident=2)
        sharded = ShardedCSRGraph.from_csr(grid, 6, store=store)
        assert store.resident_count <= 2
        assert_graphs_equal(sharded.to_csr(validate=True), grid)
        assert store.resident_count <= 2
        loads_before = store.load_count
        sharded.to_csr()  # second sweep must hit disk again (LRU evicted)
        assert store.load_count > loads_before

    def test_directory_store_persistence_and_meta(self, grid, tmp_path):
        store = DirectoryShardStore(tmp_path)
        sharded = ShardedCSRGraph.from_csr(grid, 4, store=store)
        sharded.save_meta()
        reopened = ShardedCSRGraph.open_dir(tmp_path, max_resident=2)
        assert_graphs_equal(reopened.to_csr(validate=True), grid)
        reopened.validate()

    def test_open_dir_rejects_non_shard_dir(self, tmp_path):
        with pytest.raises(GraphError, match="not a sharded graph"):
            ShardedCSRGraph.open_dir(tmp_path / "empty")

    def test_directory_store_delete_and_contains(self, tmp_path):
        store = DirectoryShardStore(tmp_path)
        store.put("shard_00000_r0", {"x": np.arange(3)})
        assert "shard_00000_r0" in store
        store.delete("shard_00000_r0")
        assert "shard_00000_r0" not in store
        with pytest.raises(GraphError, match="no block"):
            store.get("shard_00000_r0")

    def test_max_resident_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DirectoryShardStore(tmp_path, max_resident=0)

    def test_revision_gc(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        inc = sharded.apply_delta(
            GraphDelta(num_added_vertices=1, added_edges=[(0, 64)])
        )
        keys_before = set(sharded.store.keys())
        dropped = sharded.drop_blocks_not_in(inc.graph)
        assert dropped == len(inc.touched_shards)
        assert set(sharded.store.keys()) < keys_before
        # the new handle still reads fine
        inc.graph.validate()

    def test_gc_requires_shared_store(self, grid):
        a = ShardedCSRGraph.from_csr(grid, 2)
        b = ShardedCSRGraph.from_csr(grid, 2)
        with pytest.raises(GraphError, match="share"):
            a.drop_blocks_not_in(b)


# ----------------------------------------------------------------------
# Shard-streaming metric paths (quality.py / operations.py)
# ----------------------------------------------------------------------
class TestShardedMetrics:
    def test_quality_matches_monolith(self):
        base, deltas = social_churn_stream(n=100, steps=4, seed=3)
        sharded = ShardedCSRGraph.from_csr(base, 5)
        part = (np.arange(base.num_vertices) % 4).astype(np.int64)
        q_mono = evaluate_partition(base, part, 4)
        q_shard = evaluate_partition(sharded, part, 4)
        assert q_mono.cut_total == q_shard.cut_total
        assert q_mono.cut_max == q_shard.cut_max
        assert np.array_equal(q_mono.weights, q_shard.weights)
        assert q_mono.imbalance == q_shard.imbalance
        assert edge_cut(base, part) == edge_cut(sharded, part)
        total_m, per_m = cut_metrics(base, part, 4)
        total_s, per_s = cut_metrics(sharded, part, 4)
        assert total_m == total_s and np.array_equal(per_m, per_s)

    def test_boundary_vertices_matches_monolith(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 4)
        part = (np.arange(64) // 16).astype(np.int64)
        assert np.array_equal(
            boundary_vertices(grid, part), boundary_vertices(sharded, part)
        )
        uniform = np.zeros(64, dtype=np.int64)
        assert len(boundary_vertices(sharded, uniform)) == 0

    def test_block_validate_catches_corruption(self, grid):
        sharded = ShardedCSRGraph.from_csr(grid, 2)
        block = sharded.shard_block(0)
        bad = ShardBlock(
            births=block.births,
            xadj=block.xadj,
            adj=block.adj[::-1].copy(),  # unsorted rows
            eweights=block.eweights,
            vweights=block.vweights,
        )
        with pytest.raises(GraphValidationError):
            bad.validate()
