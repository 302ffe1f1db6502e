"""``refinement_pools_from_arcs`` against a per-pair reference loop.

The pools are grouped with one sort; the reference below builds each
pair's pool with its own mask and sort, exactly as the paper's §2.4
round reads.  Pools, pairs, ``b`` and every LP array must be identical,
in strict and non-strict mode, on partitions where gains tie a lot
(unit edge weights) and where they rarely do (random weights).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.refine import refinement_pools, refinement_pools_from_arcs
from repro.graph import CSRGraph, grid_graph, random_geometric_graph
from repro.rng import make_rng


def reference_pools(graph, part, p, strict):
    """``(b, pools, pairs, a_eq, upper)`` built pair by pair."""
    src, dst, ew = graph.arc_sources(), graph.adj, graph.eweights
    n = graph.num_vertices
    same = part[src] == part[dst]
    in_w = np.bincount(src[same], weights=ew[same], minlength=n)
    out = {}
    for a, c, w in zip(src[~same], part[dst[~same]], ew[~same]):
        out[(int(a), int(c))] = out.get((int(a), int(c)), 0.0) + float(w)
    best = {}
    for (v, j), w in sorted(out.items()):
        if v not in best or w > best[v][1]:
            best[v] = (j, w)
    b = np.zeros((p, p))
    members = {}
    for v, (j, w) in best.items():
        gain = w - in_w[v]
        if (gain > 1e-12) if strict else (gain >= -1e-12):
            members.setdefault((int(part[v]), j), []).append((-gain, v))
    pools = {}
    for pair in sorted(members):
        pools[pair] = np.array([v for _, v in sorted(members[pair])], dtype=np.int64)
        b[pair] = len(pools[pair])
    pairs = sorted(pools)
    a_eq = np.zeros((p, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        a_eq[i, k] -= 1.0
        a_eq[j, k] += 1.0
    upper = np.array([b[pair] for pair in pairs])
    return b, pools, pairs, a_eq, upper


def _cases():
    rng = make_rng(2024)
    grid = grid_graph(14, 14)
    geo = random_geometric_graph(250, seed=8)
    for graph, p in ((grid, 4), (grid, 7), (geo, 5), (geo, 9)):
        for _ in range(3):
            yield graph, p, rng.integers(0, p, size=graph.num_vertices)
        # Blocky partitions: few movers, long runs of tied gains.
        yield graph, p, (np.arange(graph.num_vertices) * p) // graph.num_vertices


@pytest.mark.parametrize("strict", [False, True])
def test_pools_match_per_pair_reference(strict):
    checked = 0
    for graph, p, part in _cases():
        got = refinement_pools(graph, part, p, strict)
        b, pools, pairs, a_eq, upper = reference_pools(graph, part, p, strict)
        assert got.pairs == pairs
        assert list(got.pools) == pairs
        for pair in pairs:
            assert got.pools[pair].tolist() == pools[pair].tolist()
        np.testing.assert_array_equal(got.b, b)
        if not pairs:
            assert got.lp is None
            continue
        checked += 1
        lp = got.lp
        np.testing.assert_array_equal(lp.A_eq, a_eq)
        np.testing.assert_array_equal(lp.upper_bounds, upper)
        np.testing.assert_array_equal(lp.c, np.ones(len(pairs)))
        np.testing.assert_array_equal(lp.b_eq, np.zeros(p))
        assert lp.maximize
        assert lp.variable_names == [f"l{i}_{j}" for i, j in pairs]
    assert checked >= 10


def test_weighted_edges_match_reference():
    rng = make_rng(5)
    geo = random_geometric_graph(200, seed=3)
    edges = geo.edge_array()
    g = CSRGraph.from_edges(
        geo.num_vertices, edges, eweights=rng.integers(1, 5, size=len(edges)) * 0.5
    )
    for strict in (False, True):
        part = rng.integers(0, 6, size=g.num_vertices)
        got = refinement_pools_from_arcs(
            g.arc_sources(), g.adj, g.eweights, g.num_vertices, part, 6, strict
        )
        b, pools, pairs, a_eq, upper = reference_pools(g, part, 6, strict)
        assert got.pairs == pairs
        assert all(got.pools[k].tolist() == pools[k].tolist() for k in pairs)
        np.testing.assert_array_equal(got.b, b)
        np.testing.assert_array_equal(got.lp.A_eq, a_eq)
        np.testing.assert_array_equal(got.lp.upper_bounds, upper)
