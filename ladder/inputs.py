"""Seeded inputs for the ladder benchmark, generated once and cached.

Two input shapes feed the three workloads:

* a mesh-refinement chain: an ``irregular_mesh`` node graph plus a chain
  of ``refine_in_disc`` deltas whose disc wanders over the domain
  (``mesh-refine``);
* a social-churn chain: a preferential-attachment graph plus a chain of
  deltas mixing vertex/edge additions and deletions, the shape of
  ``repro.bench.workloads.social_churn_stream`` (``gateway-churn`` and
  ``sharded-spill``).

``social_churn_stream`` re-checks global connectivity with a full BFS per
candidate deletion, which costs ~0.1-0.25 s per step at 10^4 vertices.
:func:`churn_chain` keeps connectivity structurally instead: every vertex
hangs off a spanning "backbone" parent, only backbone leaves are
deleted and backbone edges are never deleted, so each step costs O(churn).

Inputs depend only on ``(kind, seed, size, steps)``.  :func:`load` looks
the spec up in ``cache/``: the spec digest names a small ``.ref`` file
holding the sha256 of the cached ``.npz`` blob, which is verified on
every load.  On a miss the chain is generated in a child process (so its
memory never shows in the benchmark's peak RSS) and stored.

Run directly to fill the cache for one spec::

    python3 ladder/inputs.py '{"kind": "churn", "seed": 1, "n": 10000, "steps": 500}'
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CACHE = HERE / "cache"
#: Bump when a generator changes, so stale cache entries are never reused.
GENERATOR_VERSION = 2

#: Refinement sizes at 10^4 nodes, cycled in this fixed order so that
#: the seed moves the disc but not the amount of work per step.
MESH_STEP_SIZES = (60, 90, 120, 150, 75, 105, 135, 100)


def _src_on_path() -> None:
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def churn_chain(
    n: int,
    steps: int,
    seed: int,
    *,
    attach: int = 3,
    grow: int = 2,
    kill: int = 2,
    edge_add: int = 4,
    edge_del: int = 3,
):
    """Preferential-attachment base graph plus ``steps`` churn deltas.

    Each delta deletes up to ``kill`` low-degree vertices and
    ``edge_del`` edges, adds ``edge_add`` edges between survivors and
    ``grow`` new vertices attached preferentially (plus a chain edge
    between consecutive newcomers half the time).  ``grow == kill`` keeps
    the vertex count stationary, so per-flush cost does not drift over a
    run.  Returns ``(base_graph, deltas)``; ``deltas[i]`` is relative to
    the graph after ``deltas[:i]``.
    """
    _src_on_path()
    from repro.graph.csr import CSRGraph
    from repro.graph.incremental import GraphDelta

    rng = np.random.default_rng([seed, 1])
    cap = n + grow * steps
    nbrs: list[set[int]] = [set() for _ in range(cap)]
    deg = np.zeros(cap, dtype=np.int64)
    parent = np.full(cap, -1, dtype=np.int64)
    kids = np.zeros(cap, dtype=np.int64)
    alive = np.zeros(cap, dtype=bool)

    def link(u: int, v: int) -> None:
        nbrs[u].add(v)
        nbrs[v].add(u)
        deg[u] += 1
        deg[v] += 1

    def cut(u: int, v: int) -> None:
        nbrs[u].discard(v)
        nbrs[v].discard(u)
        deg[u] -= 1
        deg[v] -= 1

    def adopt(child: int, par: int) -> None:
        parent[child] = par
        kids[par] += 1

    # Base graph: a clique core, then each vertex attaches to `attach`
    # distinct earlier vertices drawn with probability ~ degree + 1.
    core = attach + 1
    edges: list[tuple[int, int]] = []
    pool: list[int] = list(range(core))
    for i in range(core):
        for j in range(i + 1, core):
            link(i, j)
            edges.append((i, j))
            pool += [i, j]
        if i:
            adopt(i, 0)
    for v in range(core, n):
        targets: list[int] = []
        while len(targets) < attach:
            t = pool[int(rng.integers(len(pool)))]
            if t not in targets:
                targets.append(t)
        for t in targets:
            link(t, v)
            edges.append((t, v))
            pool += [t, v]
        pool.append(v)
        adopt(v, targets[0])
    alive[:n] = True
    base = CSRGraph.from_edges(n, edges)

    deltas = []
    next_id = n
    for _ in range(steps):
        live = np.flatnonzero(alive)
        cur = np.full(cap, -1, dtype=np.int64)
        cur[live] = np.arange(len(live), dtype=np.int64)
        n_cur = len(live)

        # Vertex deletions: backbone leaves, lowest degree first among a
        # random sample (accounts leaving, leaf-heavy).
        cand = live[rng.integers(len(live), size=8 * kill)]
        cand = cand[(kids[cand] == 0) & (parent[cand] >= 0)]
        dead: list[int] = []
        for u in cand[np.argsort(deg[cand], kind="stable")]:
            u = int(u)
            if len(dead) >= kill:
                break
            if not alive[u]:
                continue
            for w in list(nbrs[u]):
                cut(u, w)
            alive[u] = False
            kids[parent[u]] -= 1
            dead.append(u)

        survivors = np.flatnonzero(alive)

        # Edge deletions among survivors, never on the backbone.
        del_edges: list[tuple[int, int]] = []
        for _ in range(8 * edge_del):
            if len(del_edges) >= edge_del:
                break
            u = int(survivors[rng.integers(len(survivors))])
            if not nbrs[u]:
                continue
            ring = sorted(nbrs[u])
            v = ring[int(rng.integers(len(ring)))]
            if parent[u] == v or parent[v] == u:
                continue
            cut(u, v)
            del_edges.append((u, v))

        # New edges between survivors, one endpoint preferential.
        cdf = np.cumsum(deg[survivors] + 1.0)

        def preferential() -> int:
            return int(
                survivors[np.searchsorted(cdf, rng.random() * cdf[-1], side="right")]
            )

        add_edges: list[tuple[int, int]] = []
        for _ in range(4 * edge_add):
            if len(add_edges) >= edge_add:
                break
            u = preferential()
            v = int(survivors[rng.integers(len(survivors))])
            if u == v or v in nbrs[u]:
                continue
            link(u, v)
            add_edges.append((u, v))
        added = [(int(cur[u]), int(cur[v])) for u, v in add_edges]

        # New vertices (accounts joining).
        for t in range(grow):
            s = next_id + t
            targets = []
            while len(targets) < attach:
                q = preferential()
                if q not in targets:
                    targets.append(q)
            for q in targets:
                link(q, s)
                added.append((int(cur[q]), n_cur + t))
            adopt(s, targets[0])
            if t > 0 and rng.random() < 0.5:
                link(s - 1, s)
                added.append((n_cur + t - 1, n_cur + t))
        alive[next_id : next_id + grow] = True
        next_id += grow

        deltas.append(
            GraphDelta(
                num_added_vertices=grow,
                added_edges=np.asarray(added, dtype=np.int64).reshape(-1, 2),
                deleted_vertices=np.sort(cur[dead]) if dead else np.zeros(0, np.int64),
                deleted_edges=np.asarray(
                    [(int(cur[u]), int(cur[v])) for u, v in del_edges],
                    dtype=np.int64,
                ).reshape(-1, 2),
            )
        )
    return base, deltas


def mesh_chain(n: int, steps: int, seed: int):
    """``irregular_mesh`` node graph plus ``steps`` localized refinements.

    The base mesh is the same for every seed, so runs at different seeds
    compare like with like; the seed drives the refinement disc, which
    does a reflected random walk over the domain.  The number of nodes
    inserted per step cycles through :data:`MESH_STEP_SIZES` (scaled to
    ``n``).  Returns ``(base_graph, deltas)``; deltas only add nodes, so
    old ids persist.
    """
    _src_on_path()
    from repro.mesh.dual import node_graph
    from repro.mesh.generators import irregular_mesh
    from repro.mesh.refinement import refine_in_disc

    mesh = irregular_mesh(n, seed=1994)
    rng = np.random.default_rng([seed, 2])
    base = node_graph(mesh)
    scale = n / 10_000
    radius = 0.06 / np.sqrt(scale)
    center = rng.uniform(0.25, 0.75, size=2)
    deltas = []
    for i in range(steps):
        step = rng.normal(0.0, 0.05, size=2)
        center = center + step
        # Reflect into [0.15, 0.85] so the disc stays inside the domain.
        center = np.where(center < 0.15, 0.3 - center, center)
        center = np.where(center > 0.85, 1.7 - center, center)
        size = max(4, int(round(MESH_STEP_SIZES[i % len(MESH_STEP_SIZES)] * scale)))
        refinement = refine_in_disc(mesh, center, radius, size)
        deltas.append(refinement.delta)
        mesh = refinement.new_mesh
    return base, deltas


GENERATORS = {"churn": churn_chain, "mesh": mesh_chain}


# ----------------------------------------------------------------------
# Packing: one flat npz, no pickles
# ----------------------------------------------------------------------
def _pack(base, deltas) -> dict[str, np.ndarray]:
    arrays = {f"base.{k}": np.asarray(v) for k, v in base.to_arrays().items()}
    arrays["d.nadd"] = np.array([d.num_added_vertices for d in deltas], np.int64)
    for key, attr in (("ae", "added_edges"), ("dv", "deleted_vertices"),
                      ("de", "deleted_edges")):
        parts = [np.asarray(getattr(d, attr), np.int64) for d in deltas]
        arrays[f"d.{key}_off"] = np.cumsum([0] + [len(p) for p in parts])
        width = (0, 2) if attr.endswith("edges") else (0,)
        arrays[f"d.{key}"] = (
            np.concatenate(parts) if parts else np.zeros(width, np.int64)
        )
    coords = [d.added_coords for d in deltas]
    if coords and all(c is not None for c in coords):
        arrays["d.coords"] = np.concatenate([np.asarray(c) for c in coords])
    return arrays


def _unpack(arrays: dict[str, np.ndarray]):
    _src_on_path()
    from repro.graph.csr import CSRGraph
    from repro.graph.incremental import GraphDelta

    base = CSRGraph.from_arrays(
        {k[5:]: v for k, v in arrays.items() if k.startswith("base.")},
        validate=True,
    )
    nadd = arrays["d.nadd"]
    coord_off = np.cumsum(np.concatenate([[0], nadd]))
    deltas = []
    for i, count in enumerate(nadd):
        cut = {}
        for key in ("ae", "dv", "de"):
            off = arrays[f"d.{key}_off"]
            cut[key] = arrays[f"d.{key}"][off[i] : off[i + 1]]
        deltas.append(
            GraphDelta(
                num_added_vertices=int(count),
                added_edges=cut["ae"].reshape(-1, 2),
                deleted_vertices=cut["dv"],
                deleted_edges=cut["de"].reshape(-1, 2),
                added_coords=(
                    arrays["d.coords"][coord_off[i] : coord_off[i + 1]]
                    if "d.coords" in arrays
                    else None
                ),
            )
        )
    return base, deltas


# ----------------------------------------------------------------------
# Content-addressed cache
# ----------------------------------------------------------------------
def spec_key(spec: dict) -> str:
    """The cache name of an input spec (``.ref`` file stem)."""
    canon = json.dumps({**spec, "version": GENERATOR_VERSION}, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:24]


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def generate(spec: dict) -> Path:
    """Generate the chain ``spec`` describes and store it in the cache;
    returns the blob path."""
    base, deltas = GENERATORS[spec["kind"]](spec["n"], spec["steps"], spec["seed"])
    CACHE.mkdir(exist_ok=True)
    buf = io.BytesIO()
    np.savez(buf, **_pack(base, deltas))
    data = buf.getvalue()
    digest = hashlib.sha256(data).hexdigest()
    blob = CACHE / f"{digest}.npz"
    _write_atomic(blob, data)
    _write_atomic(CACHE / f"{spec_key(spec)}.ref", digest.encode())
    return blob


def _cached_blob(spec: dict) -> bytes | None:
    ref = CACHE / f"{spec_key(spec)}.ref"
    if not ref.is_file():
        return None
    digest = ref.read_text().strip()
    blob = CACHE / f"{digest}.npz"
    if not blob.is_file():
        return None
    data = blob.read_bytes()
    if hashlib.sha256(data).hexdigest() != digest:
        print(f"ladder: cached input {blob.name} fails its digest; regenerating",
              file=sys.stderr)
        return None
    return data


def load(spec: dict):
    """``(base_graph, deltas)`` for ``spec``, generating on a cache miss
    in a child process.  The blob's sha256 is checked on every load."""
    data = _cached_blob(spec)
    if data is None:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), json.dumps(spec)],
            check=True,
            timeout=600,
        )
        data = _cached_blob(spec)
        if data is None:
            raise RuntimeError(f"input generation left no valid cache entry for {spec}")
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        return _unpack({name: npz[name] for name in npz.files})


if __name__ == "__main__":
    generate(json.loads(sys.argv[1]))
