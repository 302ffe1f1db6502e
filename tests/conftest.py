"""Shared fixtures: small graphs, meshes and partitions used across tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import CSRGraph, grid_graph, random_geometric_graph
from repro.mesh import irregular_mesh, node_graph

# A long, reproducible run of the property tests, selected with
# ``pytest --hypothesis-profile=ci-long``; tier-1 keeps the default.
settings.register_profile(
    "ci-long", max_examples=400, derandomize=True, deadline=None
)


@pytest.fixture
def triangle_graph() -> CSRGraph:
    """K3."""
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_path() -> CSRGraph:
    """Path on 5 vertices."""
    return CSRGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def grid8() -> CSRGraph:
    """8x8 grid with coordinates."""
    return grid_graph(8, 8)


@pytest.fixture
def geo300() -> CSRGraph:
    """Connected geometric graph, 300 vertices."""
    return random_geometric_graph(300, seed=123)


@pytest.fixture
def mesh400():
    """Small irregular mesh (400 nodes)."""
    return irregular_mesh(400, seed=9)


@pytest.fixture
def mesh400_graph(mesh400) -> CSRGraph:
    """Node graph of the 400-node mesh."""
    return node_graph(mesh400)


@pytest.fixture
def strip_partition():
    """Factory: partition a graph into P contiguous vertex-id strips."""

    def make(graph: CSRGraph, p: int) -> np.ndarray:
        n = graph.num_vertices
        return np.minimum((np.arange(n) * p) // n, p - 1).astype(np.int64)

    return make


@pytest.fixture
def two_cliques() -> CSRGraph:
    """Two K4s joined by one bridge edge — an obvious optimal bisection."""
    edges = []
    for base in (0, 4):
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    edges.append((0, 4))
    return CSRGraph.from_edges(8, edges)
