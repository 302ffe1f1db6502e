"""The graph-view surface of ``CSRGraph``: ``rows`` and the boundary hooks.

The repartition phases read every graph through ``rows(vertices)``.  On a
:class:`~repro.graph.csr.CSRGraph` it is an ``xadj`` gather; on a sharded
graph it is :meth:`~repro.graph.frame.BoundaryFrame.rows`.  Both must
return the full arc arrays filtered to the given sources, in global CSR
order — the property that keeps the one pipeline bit-identical on both
views.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import BoundaryFrame, CSRGraph, ShardedCSRGraph


@st.composite
def weighted_graph_and_subset(draw):
    n = draw(st.integers(0, 24))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=3 * n,
        )
    )
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    eweights = draw(
        st.lists(
            st.floats(0.25, 8.0, allow_nan=False),
            min_size=len(edges), max_size=len(edges),
        )
    )
    vweights = np.asarray(
        draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    graph = CSRGraph.from_edges(n, edges, eweights=eweights, vweights=vweights)
    kind = draw(st.sampled_from(["empty", "all", "subset"]))
    if kind == "empty":
        subset = np.zeros(0, dtype=np.int64)
    elif kind == "all":
        subset = np.arange(n, dtype=np.int64)
    else:
        chosen = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else set()
        subset = np.asarray(sorted(chosen), dtype=np.int64)
    shards = draw(st.integers(1, 4))
    assignment = np.asarray(
        draw(st.lists(st.integers(0, shards - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return graph, subset, shards, assignment


def _reference_rows(graph: CSRGraph, subset: np.ndarray):
    src = graph.arc_sources()
    keep = np.isin(src, subset)
    return src[keep], graph.adj[keep], graph.eweights[keep]


@given(weighted_graph_and_subset())
@settings(max_examples=300, deadline=None)
def test_rows_equal_filtered_arc_arrays_and_frame_rows(case):
    graph, subset, shards, assignment = case
    got = graph.rows(subset)
    want = _reference_rows(graph, subset)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)

    frame = BoundaryFrame(
        ShardedCSRGraph.from_csr(graph, shards, assignment=assignment)
    )
    for g, f in zip(got, frame.rows(subset)):
        assert np.array_equal(g, f)


def test_all_vertices_return_the_stored_arrays_without_copy():
    graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], eweights=[1.0, 2.0, 3.0])
    src, dst, ew = graph.rows(np.arange(4))
    assert dst is graph.adj and ew is graph.eweights
    assert np.array_equal(src, graph.arc_sources())


def test_isolated_vertices_contribute_no_rows():
    graph = CSRGraph.from_edges(5, [(1, 3)])
    src, dst, ew = graph.rows(np.array([0, 2, 4]))
    assert len(src) == len(dst) == len(ew) == 0
    src, dst, _ = graph.rows(np.array([0, 1, 4]))
    assert src.tolist() == [1] and dst.tolist() == [3]


def test_boundary_hooks_cover_every_vertex_and_keep_no_state():
    graph = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    part = np.array([0, 0, 1, 1])
    assert np.array_equal(graph.ensure_boundary(part), np.arange(4))
    graph.set_boundary(np.array([1, 2]))
    graph.note_moves(np.array([1]))
    assert np.array_equal(graph.ensure_boundary(part), np.arange(4))
