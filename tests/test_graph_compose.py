"""Delta-algebra tests: compose_deltas equivalence, cancellation, associativity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import IncrementalGraphPartitioner
from repro.bench.workloads import social_churn_stream
from repro.errors import GraphError
from repro.graph import CSRGraph, GraphDelta, apply_delta, compose_deltas
from repro.graph.incremental import carry_partition
from repro.mesh.sequences import dataset_a


def apply_chain(graph, deltas, part=None, **kwargs):
    """Sequential application; returns (final_graph, final_carried_part)."""
    cur = graph
    carried = None if part is None else np.asarray(part, dtype=np.int64)
    for d in deltas:
        inc = apply_delta(cur, d, **kwargs)
        if carried is not None:
            carried = carry_partition(carried, inc)
        cur = inc.graph
    return cur, carried


def assert_equivalent(graph, deltas, part=None, **kwargs):
    """Composed delta reproduces the sequential graph and carried part."""
    g_seq, p_seq = apply_chain(graph, deltas, part, **kwargs)
    composed = compose_deltas(graph, deltas, **kwargs)
    inc = apply_delta(graph, composed, **kwargs)
    assert g_seq.same_structure(inc.graph)
    if graph.coords is not None:
        assert np.allclose(g_seq.coords, inc.graph.coords, equal_nan=True)
    if part is not None:
        p_comp = carry_partition(np.asarray(part, dtype=np.int64), inc)
        assert np.array_equal(p_seq, p_comp)
    return composed


@pytest.fixture
def base() -> CSRGraph:
    return CSRGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])


class TestComposeBasics:
    def test_empty_chain_is_identity(self, base):
        c = compose_deltas(base, [])
        assert c.num_added_vertices == 0
        assert len(c.added_edges) == len(c.deleted_edges) == len(c.deleted_vertices) == 0
        assert apply_delta(base, c).graph.same_structure(base)

    def test_single_delta_roundtrip(self, base):
        d = GraphDelta(num_added_vertices=1, added_edges=[(0, 6)], deleted_edges=[(1, 4)])
        assert_equivalent(base, [d], part=np.arange(6) % 2)

    def test_none_entries_skipped(self, base):
        d = GraphDelta(num_added_vertices=1, added_edges=[(0, 6)])
        c_with = compose_deltas(base, [None, d, None])
        c_without = compose_deltas(base, [d])
        assert apply_delta(base, c_with).graph.same_structure(
            apply_delta(base, c_without).graph
        )

    def test_pure_growth_chain(self, base):
        d1 = GraphDelta(num_added_vertices=2, added_edges=[(0, 6), (6, 7)])
        d2 = GraphDelta(num_added_vertices=1, added_edges=[(7, 8), (3, 8)])
        c = assert_equivalent(base, [d1, d2], part=np.arange(6) % 3)
        assert c.num_added_vertices == 3
        assert c.is_pure_growth


class TestCancellation:
    def test_add_then_delete_vertex_cancels(self, base):
        d1 = GraphDelta(num_added_vertices=2, added_edges=[(0, 6), (6, 7), (1, 7)])
        d2 = GraphDelta(deleted_vertices=[6])  # delete the first addition
        c = assert_equivalent(base, [d1, d2], part=np.zeros(6))
        assert c.num_added_vertices == 1
        assert len(c.deleted_vertices) == 0  # no *original* vertex dies

    def test_add_then_delete_edge_cancels(self, base):
        d1 = GraphDelta(added_edges=[(0, 3)])
        d2 = GraphDelta(deleted_edges=[(3, 0)])  # reversed orientation
        c = assert_equivalent(base, [d1, d2])
        assert len(c.added_edges) == 0 and len(c.deleted_edges) == 0

    def test_delete_then_readd_original_edge(self, base):
        d1 = GraphDelta(deleted_edges=[(1, 4)])
        d2 = GraphDelta(added_edges=[(4, 1)], added_eweights=[9.0])
        c = assert_equivalent(base, [d1, d2])
        # re-added weight wins, exactly as sequential application
        assert apply_delta(base, c).graph.edge_weight(1, 4) == 9.0

    def test_intermediate_id_renumbering(self, base):
        """Deleting an original vertex shifts later current ids; the
        composed delta must translate them back to the base frame."""
        d1 = GraphDelta(deleted_vertices=[2])
        # current id 4 now refers to original vertex 5
        d2 = GraphDelta(num_added_vertices=1, added_edges=[(4, 5)])
        c = assert_equivalent(base, [d1, d2], part=np.arange(6))
        assert 5 in c.added_edges.flatten()  # original id, not current id


class TestChainsOnRealWorkloads:
    def test_dataset_a_chain(self):
        seq = dataset_a(scale=0.25)
        part = np.arange(seq.graphs[0].num_vertices) % 4
        c = assert_equivalent(seq.graphs[0], list(seq.deltas), part=part)
        total_added = sum(d.num_added_vertices for d in seq.deltas)
        assert c.num_added_vertices == total_added  # refinement never deletes vertices

    def test_churn_chain_deletion_heavy(self):
        base, deltas = social_churn_stream(n=120, steps=6, seed=11)
        part = np.arange(base.num_vertices) % 4
        c = assert_equivalent(base, deltas, part=part)
        assert len(c.deleted_vertices) > 0  # churn really deletes

    def test_associativity_fold(self):
        """compose(g, [compose(g, ds[:k]), ds[k]]) == compose(g, ds) —
        the property the streaming layer's one-at-a-time folding needs."""
        base, deltas = social_churn_stream(n=100, steps=5, seed=2)
        folded = None
        for d in deltas:
            chain = [folded, d] if folded is not None else [d]
            folded = compose_deltas(base, chain)
        all_at_once = compose_deltas(base, deltas)
        g1 = apply_delta(base, folded).graph
        g2 = apply_delta(base, all_at_once).graph
        assert g1.same_structure(g2)

    def test_delta_composer_fold_matches_compose(self):
        """Incremental DeltaComposer.fold (what StreamingPartitioner uses)
        produces the same composed delta as the one-shot wrapper."""
        from repro.graph import DeltaComposer

        base, deltas = social_churn_stream(n=100, steps=5, seed=8)
        composer = DeltaComposer(base)
        for d in deltas:
            composer.fold(d)
        assert composer.num_folded == len(deltas)
        g1 = apply_delta(base, composer.to_delta()).graph
        g2 = apply_delta(base, compose_deltas(base, deltas)).graph
        assert g1.same_structure(g2)

    def test_partition_quality_matches_sequential(self):
        """Repartitioning the composed graph equals repartitioning the
        sequentially-built graph: same final graph + carried part in,
        same deterministic pipeline out."""
        seq = dataset_a(scale=0.2)
        g0 = seq.graphs[0]
        part = np.arange(g0.num_vertices) % 4
        g_seq, p_seq = apply_chain(g0, list(seq.deltas), part)
        inc = apply_delta(g0, compose_deltas(g0, list(seq.deltas)))
        p_comp = carry_partition(part, inc)
        res_seq = IncrementalGraphPartitioner(num_partitions=4).repartition(g_seq, p_seq)
        res_comp = IncrementalGraphPartitioner(num_partitions=4).repartition(inc.graph, p_comp)
        assert np.array_equal(res_seq.part, res_comp.part)
        assert res_seq.quality_final.cut_total == res_comp.quality_final.cut_total


class TestComposeValidation:
    def test_missing_deletion_raises(self, base):
        with pytest.raises(GraphError):
            compose_deltas(base, [GraphDelta(deleted_edges=[(0, 2)])])

    def test_missing_deletion_skipped_non_strict(self, base):
        c = compose_deltas(base, [GraphDelta(deleted_edges=[(0, 2)])], strict=False)
        assert len(c.deleted_edges) == 0

    def test_double_delete_across_chain_raises(self, base):
        ds = [GraphDelta(deleted_edges=[(0, 1)]), GraphDelta(deleted_edges=[(0, 1)])]
        with pytest.raises(GraphError):
            compose_deltas(base, ds)

    def test_duplicate_delete_within_one_delta_tolerated(self, base):
        """apply_delta's np.isin dedups repeated deletion keys within one
        delta (either orientation); compose must accept the same delta."""
        d = GraphDelta(deleted_edges=[(0, 1), (1, 0)])
        g_direct = apply_delta(base, d).graph
        g_composed = apply_delta(base, compose_deltas(base, [d])).graph
        assert not g_direct.has_edge(0, 1)
        assert g_direct.same_structure(g_composed)

    def test_duplicate_add_raises(self, base):
        with pytest.raises(GraphError):
            compose_deltas(base, [GraphDelta(added_edges=[(0, 1)])])

    def test_duplicate_add_accumulates_with_flag(self, base):
        ds = [GraphDelta(added_edges=[(1, 0)], added_eweights=[2.0])]
        c = compose_deltas(base, ds, accumulate_weights=True)
        g = apply_delta(base, c, accumulate_weights=True).graph
        assert g.edge_weight(0, 1) == 3.0  # 1.0 original + 2.0 added
        g_seq, _ = apply_chain(base, ds, accumulate_weights=True)
        assert g_seq.same_structure(g)

    def test_accumulated_weights_sum_in_chain_order(self):
        """(0.1 + 0.7) + 0.3 is 1.0999999999999999; pre-summing the added
        weights would give 0.1 + 1.0 = 1.1."""
        path = CSRGraph.from_edges(3, [(0, 1), (1, 2)], eweights=[0.1, 1.0])
        ds = [
            GraphDelta(added_edges=[(0, 1)], added_eweights=[0.7]),
            GraphDelta(added_edges=[(1, 0)], added_eweights=[0.3]),
        ]
        c = compose_deltas(path, ds, accumulate_weights=True)
        assert c.added_edges.tolist() == [[0, 1], [0, 1]]
        g = apply_delta(path, c, accumulate_weights=True).graph
        g_seq, _ = apply_chain(path, ds, accumulate_weights=True)
        assert g.edge_weight(0, 1) == g_seq.edge_weight(0, 1) == (0.1 + 0.7) + 0.3

    def test_accumulated_edge_deleted_entirely(self, base):
        """Deleting a previously-accumulated edge kills both the original
        and the added share, matching sequential merge semantics."""
        ds = [
            GraphDelta(added_edges=[(0, 1)], added_eweights=[2.0]),
            GraphDelta(deleted_edges=[(0, 1)]),
        ]
        c = compose_deltas(base, ds, accumulate_weights=True)
        g = apply_delta(base, c, accumulate_weights=True).graph
        assert not g.has_edge(0, 1)
        g_seq, _ = apply_chain(base, ds, accumulate_weights=True)
        assert g_seq.same_structure(g)

    def test_out_of_range_mid_chain(self, base):
        ds = [GraphDelta(deleted_vertices=[5]), GraphDelta(deleted_vertices=[5])]
        with pytest.raises(GraphError):
            compose_deltas(base, ds)  # second delta's frame has 5 vertices


#: Edge weights ``k / 997``: non-dyadic, so a changed summation order
#: shows up in the last bits.
WEIGHTS = st.integers(1, 10**6).map(lambda k: k / 997.0)

#: Messages ``DeltaComposer.fold`` shares with ``apply_delta``.
SHARED_ERRORS = {
    "deleted vertex id out of range",
    "added edge endpoint out of range",
    "deleted edge endpoint out of range",
    "added edge references a deleted vertex",
}


def fold_error(cur, delta, accumulate_weights=False):
    """The message ``compose_deltas`` raises at the step where a chain's
    sequential application stops with a ``GraphError``: the checks
    ``apply_delta`` shares come first, then missing deletions in delta
    order, then each added edge in delta order."""
    try:
        apply_delta(cur, delta, accumulate_weights=accumulate_weights)
    except GraphError as err:
        if str(err) in SHARED_ERRORS:
            return str(err)
    else:
        return None
    for u, v in delta.deleted_edges.tolist():
        if not cur.has_edge(u, v):
            return (
                f"deleted edge ({u}, {v}) does not exist at its step of the "
                f"chain (pass strict=False to skip missing deletions)"
            )
    n = cur.num_vertices
    gone = {(min(e), max(e)) for e in delta.deleted_edges.tolist()}
    seen = set()
    for u, v in delta.added_edges.tolist():
        if u == v:
            return "self-loops are not allowed"
        key = (min(u, v), max(u, v))
        duplicate = key in seen or (
            key not in gone and key[1] < n and cur.has_edge(u, v)
        )
        if duplicate and not accumulate_weights:
            return (
                f"added edge ({u}, {v}) duplicates an existing edge at its "
                f"step of the chain (pass accumulate_weights=True to sum the "
                f"weights)"
            )
        seen.add(key)
    raise AssertionError("apply_delta raised, but no fold check fires")


@st.composite
def faulty_chain(draw):
    """A weighted base graph and a chain of deltas against it: vertex
    and edge deletions, re-adds of deleted edges, additions deleted
    again (cancellations) and, sometimes, one fault.  The chain stops
    at the first delta that sequential application rejects.  Under
    ``accumulate_weights`` the duplicate-edge faults are valid steps
    that sum onto the existing edge, and steps add live edges again on
    purpose."""
    kwargs = {"accumulate_weights": draw(st.booleans())}
    n = draw(st.integers(4, 12))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=10,
        )
    )
    edges = {(i, i + 1) for i in range(n - 1)}
    edges |= {(min(u, v), max(u, v)) for u, v in extra if u != v}
    edges = sorted(edges)
    graph = CSRGraph.from_edges(
        n, edges, eweights=[draw(WEIGHTS) for _ in edges]
    )
    deltas = []
    cur, recent, born, again = graph, [], [], []
    for _ in range(draw(st.integers(1, 5))):
        m = cur.num_vertices
        if m < 2:
            break
        live = [tuple(int(x) for x in e) for e in cur.edge_array()]
        dead = set(draw(st.lists(st.integers(0, m - 1), max_size=2)))
        if born and draw(st.booleans()):  # cancel an earlier addition
            dead.add(draw(st.sampled_from(born)))
        survivors = [v for v in range(m) if v not in dead]

        deleted = []
        if live:
            for i in draw(st.lists(st.integers(0, len(live) - 1), max_size=3)):
                u, v = live[i]
                deleted.append((v, u) if draw(st.booleans()) else (u, v))
        gone = {(min(e), max(e)) for e in deleted}
        fresh = [
            (u, v)
            for i, u in enumerate(survivors)
            for v in survivors[i + 1 :]
            if (u, v) in gone or not cur.has_edge(u, v)
        ]
        readd = [e for e in recent if e[0] not in dead and e[1] not in dead]
        n_add = draw(st.integers(0, 2)) if survivors else 0
        added = [
            (draw(st.sampled_from(survivors)), m + j) for j in range(n_add)
        ]
        if fresh:
            added += draw(st.lists(st.sampled_from(fresh), max_size=2, unique=True))
        if readd and draw(st.booleans()):
            added.append(draw(st.sampled_from(readd)))
        if kwargs["accumulate_weights"]:
            # Sum onto a live edge, and again onto one the previous step
            # added: an original edge then carries several added weights.
            for pool in (live, again):
                pool = [e for e in pool if e[0] not in dead and e[1] not in dead]
                if pool and draw(st.booleans()):
                    added.append(draw(st.sampled_from(pool)))

        fault = draw(st.integers(0, 19))  # 14..19 break one rule
        if fault == 14:
            deleted.append((0, 0))
        elif fault == 15 and live:
            added.append(draw(st.sampled_from(live)))
        elif fault == 16 and added:
            u, v = draw(st.sampled_from(added))
            added.append((v, u))
        elif fault == 17:
            added.append((m - 1, m - 1))
        elif fault == 18 and dead:
            added.append((min(dead), m + n_add))
            n_add += 1
        elif fault == 19:
            added.append((0, m + n_add + 1))

        delta = GraphDelta(
            num_added_vertices=n_add,
            added_edges=np.array(added, dtype=np.int64).reshape(-1, 2),
            deleted_vertices=np.array(sorted(dead), dtype=np.int64),
            deleted_edges=np.array(deleted, dtype=np.int64).reshape(-1, 2),
            added_vweights=[draw(WEIGHTS) for _ in range(n_add)],
            added_eweights=[draw(WEIGHTS) for _ in added],
        )
        deltas.append(delta)
        try:
            inc = apply_delta(cur, delta, **kwargs)
        except GraphError:
            return graph, kwargs, deltas, fold_error(cur, delta, **kwargs)
        cur = inc.graph
        recent = [
            (min(a, b), max(a, b))
            for a, b in (inc.old_to_new[list(e)] for e in gone)
            if a >= 0 and b >= 0
        ]
        born = [int(v) for v in inc.new_vertex_ids]
        ids = np.concatenate([inc.old_to_new, inc.new_vertex_ids])
        again = [(int(a), int(b)) for a, b in ids[delta.added_edges]]
    return graph, kwargs, deltas, None


class TestComposeProperty:
    @given(faulty_chain())
    @settings(deadline=None)
    def test_composed_equals_sequential(self, chain):
        """A valid chain composes to a delta whose application equals
        the sequential one bit for bit; a faulty chain raises at the
        faulty step with that step's message."""
        graph, kwargs, deltas, message = chain
        if message is not None:
            with pytest.raises(GraphError) as raised:
                compose_deltas(graph, deltas, **kwargs)
            assert str(raised.value) == message
            return
        part = np.arange(graph.num_vertices) % 3
        g_seq, p_seq = apply_chain(graph, deltas, part, **kwargs)
        inc = apply_delta(graph, compose_deltas(graph, deltas, **kwargs), **kwargs)
        assert g_seq.same_structure(inc.graph)
        assert g_seq.eweights.tobytes() == inc.graph.eweights.tobytes()
        assert g_seq.vweights.tobytes() == inc.graph.vweights.tobytes()
        assert np.array_equal(p_seq, carry_partition(part, inc))
