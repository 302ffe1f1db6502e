"""``apply_delta`` against an edge-list rebuild.

``apply_delta`` splices the new CSR arrays out of the old ones.  The
reference here rebuilds the graph the slow, obvious way: a Python dict
of the surviving edges plus the added ones, handed to
``CSRGraph.from_edges`` (which merges duplicates by summing weights in
list order).  Every case must give bit-identical arrays, or raise a
:class:`GraphError` of the same kind in both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph import CSRGraph
from repro.graph.incremental import DeltaComposer, GraphDelta, apply_delta
from repro.graph.sharded import ShardedCSRGraph


def reference_apply(graph, delta, *, strict=True, accumulate_weights=False):
    """The graph ``apply_delta`` must produce, or the error it must raise."""
    n_old = graph.num_vertices
    n_add = delta.num_added_vertices
    dead = {int(v) for v in delta.deleted_vertices}
    if any(v < 0 or v >= n_old for v in dead):
        raise GraphError("deleted vertex id out of range")
    added = [tuple(int(x) for x in row) for row in delta.added_edges]
    if any(x < 0 or x >= n_old + n_add for e in added for x in e):
        raise GraphError("added edge endpoint out of range")
    deleted = [tuple(int(x) for x in row) for row in delta.deleted_edges]
    if any(x < 0 or x >= n_old for e in deleted for x in e):
        raise GraphError("deleted edge endpoint out of range")
    if any(x in dead for e in added for x in e if x < n_old):
        raise GraphError("added edge references a deleted vertex")

    old = {
        (int(u), int(v)): float(w)
        for (u, v), w in zip(graph.edge_array(), graph.edge_weight_array())
    }
    gone = {(min(e), max(e)) for e in deleted}
    if strict and not gone <= old.keys():
        raise GraphError("deleted_edges entries do not exist in the graph")
    surviving = {
        e: w for e, w in old.items()
        if e not in gone and e[0] not in dead and e[1] not in dead
    }

    survivors = [v for v in range(n_old) if v not in dead]
    new_id = {v: i for i, v in enumerate(survivors)}
    new_id.update({n_old + t: len(survivors) + t for t in range(n_add)})
    n_new = len(survivors) + n_add

    add_w = (
        [1.0] * len(added) if delta.added_eweights is None
        else [float(w) for w in delta.added_eweights]
    )
    if not accumulate_weights:
        seen = set(surviving)
        for u, v in added:
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError("added_edges duplicate existing or other added edges")
            seen.add(key)

    edges = [(new_id[u], new_id[v]) for u, v in surviving]
    edges += [(new_id[u], new_id[v]) for u, v in added]
    weights = list(surviving.values()) + add_w
    vweights = np.concatenate([
        graph.vweights[survivors],
        np.ones(n_add) if delta.added_vweights is None else delta.added_vweights,
    ])
    coords = None
    if graph.coords is not None:
        add_coords = (
            np.full((n_add, graph.coords.shape[1]), np.nan)
            if delta.added_coords is None else delta.added_coords
        )
        coords = np.vstack([graph.coords[survivors], add_coords])
    return CSRGraph.from_edges(
        n_new, edges, eweights=weights, vweights=vweights, coords=coords
    )


def _error_kind(exc: GraphError) -> str:
    return str(exc).split(":")[0]


def assert_matches_reference(graph, delta, **kwargs):
    """Same arrays as the reference, or the same kind of GraphError."""
    try:
        want = reference_apply(graph, delta, **kwargs)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            apply_delta(graph, delta, **kwargs)
        assert _error_kind(got.value) == _error_kind(exc)
        return None
    got = apply_delta(graph, delta, **kwargs).graph
    for name in ("xadj", "adj", "vweights", "eweights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    if want.coords is None:
        assert got.coords is None
    else:
        np.testing.assert_array_equal(got.coords, want.coords)
    got.validate()
    return got


# ----------------------------------------------------------------------
# Hypothesis: random graphs and random, often invalid, deltas
# ----------------------------------------------------------------------
@st.composite
def graph_and_delta(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(
        st.sampled_from([0.1, 1.0, 2.0, 3.25]), min_size=len(edges), max_size=len(edges)
    ))
    with_coords = draw(st.booleans())
    coords = np.arange(2.0 * n).reshape(n, 2) if with_coords else None
    graph = CSRGraph.from_edges(n, edges, eweights=weights, coords=coords)

    n_add = draw(st.integers(0, 3))
    dead = draw(st.lists(st.integers(0, n - 1), max_size=3)) if n else []
    # Deletions: live edges in either orientation (possibly repeated, or
    # touching a deleted vertex), plus the odd miss.
    deleted = []
    for u, v in draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []:
        deleted.append((v, u) if draw(st.booleans()) else (u, v))
    if n >= 2 and draw(st.integers(0, 4)) == 0:
        deleted.append(tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))))
    # Additions: any pair of ids, so duplicates of live and of other
    # added edges, self-loops and references to deleted vertices occur.
    limit = n + n_add
    added = []
    if limit >= 2:
        added = draw(st.lists(
            st.lists(st.integers(0, limit - 1), min_size=2, max_size=2), max_size=5
        ))
    added_w = None
    if added and draw(st.booleans()):
        added_w = draw(st.lists(
            st.sampled_from([0.2, 0.3, 1.0, 4.0]), min_size=len(added), max_size=len(added)
        ))
    delta = GraphDelta(
        num_added_vertices=n_add,
        added_edges=np.asarray(added, dtype=np.int64).reshape(-1, 2),
        deleted_vertices=np.asarray(dead, dtype=np.int64),
        deleted_edges=np.asarray(deleted, dtype=np.int64).reshape(-1, 2),
        added_eweights=added_w,
        added_vweights=np.arange(1.0, n_add + 1.0) if draw(st.booleans()) else None,
        added_coords=(
            np.full((n_add, 2), 7.0) if with_coords and draw(st.booleans()) else None
        ),
    )
    return graph, delta


@given(graph_and_delta(), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_splice_matches_edge_list_rebuild(case, strict, accumulate):
    graph, delta = case
    assert_matches_reference(
        graph, delta, strict=strict, accumulate_weights=accumulate
    )


# ----------------------------------------------------------------------
# Chains: every step of a mesh refinement and of a churn stream
# ----------------------------------------------------------------------
def test_mesh_refinement_chain_matches(mesh400):
    from repro.mesh.dual import node_graph
    from repro.mesh.refinement import refine_in_disc

    mesh, graph = mesh400, node_graph(mesh400)
    for i in range(5):
        refinement = refine_in_disc(mesh, (0.3 + 0.1 * i, 0.5), 0.2, 15)
        graph = assert_matches_reference(graph, refinement.delta)
        mesh = refinement.new_mesh
        assert graph.num_vertices == mesh.num_nodes


def test_churn_chain_matches():
    from repro.bench.workloads import social_churn_stream

    graph, deltas = social_churn_stream(n=300, steps=12, seed=11)
    for delta in deltas:
        assert len(delta.deleted_vertices) and len(delta.deleted_edges)
        graph = assert_matches_reference(graph, delta)


# ----------------------------------------------------------------------
# Named corner cases
# ----------------------------------------------------------------------
def _square() -> CSRGraph:
    return CSRGraph.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], eweights=[1.0, 2.0, 3.0, 4.0],
        coords=np.arange(8.0).reshape(4, 2),
    )


def test_deletions_in_either_orientation_and_repeated():
    delta = GraphDelta(deleted_edges=[(1, 0), (0, 1), (2, 3), (3, 2)])
    got = assert_matches_reference(_square(), delta)
    assert got.num_edges == 2


def test_deleting_an_edge_of_a_deleted_vertex_is_a_hit():
    delta = GraphDelta(deleted_vertices=[1], deleted_edges=[(0, 1)])
    got = assert_matches_reference(_square(), delta)
    assert got.num_vertices == 3


def test_strict_miss_raises_and_lenient_miss_is_skipped():
    delta = GraphDelta(deleted_edges=[(0, 2), (1, 2)])
    with pytest.raises(GraphError, match="do not exist"):
        apply_delta(_square(), delta)
    got = assert_matches_reference(_square(), delta, strict=False)
    assert got.num_edges == 3


def test_accumulate_onto_surviving_and_added_edges():
    delta = GraphDelta(
        num_added_vertices=1,
        added_edges=[(1, 0), (0, 1), (4, 2), (2, 4)],
        added_eweights=[0.5, 0.25, 1.5, 2.0],
    )
    with pytest.raises(GraphError, match="duplicate"):
        apply_delta(_square(), delta)
    got = assert_matches_reference(_square(), delta, accumulate_weights=True)
    assert got.edge_weight(0, 1) == 1.0 + 0.5 + 0.25
    assert got.edge_weight(4, 2) == 1.5 + 2.0


def test_accumulated_weights_sum_old_first_then_delta_order():
    graph = CSRGraph.from_edges(2, [(0, 1)], eweights=[0.1])
    delta = GraphDelta(added_edges=[(0, 1), (1, 0)], added_eweights=[0.2, 0.3])
    got = assert_matches_reference(graph, delta, accumulate_weights=True)
    # Floating-point addition is not associative: the order is observable.
    assert got.edge_weight(0, 1) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_readding_a_deleted_edge_takes_the_new_weight():
    delta = GraphDelta(deleted_edges=[(0, 1)], added_edges=[(1, 0)], added_eweights=[9.0])
    got = assert_matches_reference(_square(), delta)
    assert got.edge_weight(0, 1) == 9.0


def test_growth_from_an_empty_graph():
    delta = GraphDelta(num_added_vertices=3, added_edges=[(0, 1), (2, 1)])
    got = assert_matches_reference(CSRGraph.empty(0), delta)
    assert got.num_edges == 2 and got.coords is None


def test_pure_growth_keeps_old_rows_and_appends():
    delta = GraphDelta(num_added_vertices=2, added_edges=[(4, 0), (4, 5), (5, 2)])
    got = assert_matches_reference(_square(), delta)
    assert np.isnan(got.coords[4:]).all()


_ERROR_CASES = [
    (GraphDelta(deleted_vertices=[4]), "deleted vertex id out of range"),
    (GraphDelta(added_edges=[(0, 4)]), "added edge endpoint out of range"),
    (GraphDelta(deleted_edges=[(0, 9)]), "deleted edge endpoint out of range"),
    (
        GraphDelta(deleted_vertices=[2], added_edges=[(2, 0)]),
        "added edge references a deleted vertex",
    ),
    (GraphDelta(deleted_edges=[(1, 1)]), "deleted_edges entries do not exist in the graph"),
    (GraphDelta(added_edges=[(0, 2), (2, 0)]), "added_edges duplicate existing or other added edges"),
    (GraphDelta(added_edges=[(1, 2)]), "added_edges duplicate existing or other added edges"),
    (GraphDelta(num_added_vertices=1, added_edges=[(4, 4)]), "self-loops are not allowed"),
]


def _error_params():
    """Every case on the monolith and the sharded graph; the first four
    (the reference checks) on the composer too."""
    for i, (delta, kind) in enumerate(_ERROR_CASES):
        yield pytest.param("monolith", delta, kind, id=f"delta{i}-{kind}")
        yield pytest.param("sharded", delta, kind, id=f"sharded-delta{i}-{kind}")
        if i < 4:
            yield pytest.param(
                "composer", delta, kind, id=f"composer-delta{i}-{kind}"
            )


def _apply_on(side: str, graph: CSRGraph, delta: GraphDelta):
    if side == "monolith":
        return apply_delta(graph, delta)
    if side == "sharded":
        return ShardedCSRGraph.from_csr(graph, 2).apply_delta(delta)
    return DeltaComposer(graph).fold(delta)


@pytest.mark.parametrize("side, delta, kind", list(_error_params()))
def test_error_parity(side, delta, kind):
    with pytest.raises(GraphError) as mono:
        apply_delta(_square(), delta)
    with pytest.raises(GraphError) as got:
        _apply_on(side, _square(), delta)
    assert str(got.value) == str(mono.value)
    assert _error_kind(got.value) == kind
    assert_matches_reference(_square(), delta)
