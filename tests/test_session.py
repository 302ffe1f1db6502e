"""Tests for the session-first public API: open_session / PartitionSession.

Covers the initial-partitioner registry, facade semantics (push / flush /
repartition / quality / history), the durable snapshot format (in-process
and across a real subprocess boundary), rejection of corrupted and
newer-version snapshots, the serialization primitives it leans on, and
the top-level namespace.
"""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import IGPConfig, StreamingPartitioner
from repro.core.streaming import FlushPolicy
from repro.errors import GraphValidationError, PartitioningError, SnapshotError
from repro.graph import CSRGraph, GraphDelta, grid_graph
from repro.lp.revised import Basis
from repro.mesh.generators import irregular_mesh
from repro.mesh.sequences import dataset_a
from repro.session import (
    SNAPSHOT_VERSION,
    BatchSummary,
    PartitionSession,
    available_initial_partitioners,
    open_session,
    register_initial_partitioner,
)

PER_DELTA = FlushPolicy(weight_fraction=None, imbalance_limit=None, max_pending=1)
MANUAL = FlushPolicy(weight_fraction=None, imbalance_limit=None, max_pending=None)


@pytest.fixture(scope="module")
def seq_a():
    return dataset_a(scale=0.25)


def strip_partition(g, p):
    return (np.arange(g.num_vertices) * p // g.num_vertices).astype(np.int64)


# ----------------------------------------------------------------------
# open_session and the initial-partitioner registry
# ----------------------------------------------------------------------
class TestOpenSession:
    def test_registry_lists_builtins_and_given(self):
        names = available_initial_partitioners()
        assert {"rsb", "rcb", "inertial", "given"} <= set(names)

    def test_default_rsb(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0)
        assert s.initial == "rsb"
        assert len(s.part) == seq_a.graphs[0].num_vertices
        assert set(np.unique(s.part)) <= set(range(4))
        assert s.quality().imbalance < 2.0

    @pytest.mark.parametrize("initial", ["rcb", "inertial"])
    def test_coordinate_partitioners(self, initial):
        g = grid_graph(8, 8)  # has coords
        s = open_session(g, 4, initial=initial)
        assert len(np.unique(s.part)) == 4

    def test_given(self, seq_a):
        g = seq_a.graphs[0]
        part = strip_partition(g, 4)
        s = open_session(g, 4, initial="given", part=part)
        assert np.array_equal(s.part, part)

    def test_given_requires_part(self, seq_a):
        with pytest.raises(PartitioningError, match="given"):
            open_session(seq_a.graphs[0], 4, initial="given")

    def test_part_only_with_given(self, seq_a):
        g = seq_a.graphs[0]
        with pytest.raises(PartitioningError, match="given"):
            open_session(g, 4, part=strip_partition(g, 4))

    def test_unknown_initial_lists_registry(self, seq_a):
        with pytest.raises(PartitioningError, match="rsb"):
            open_session(seq_a.graphs[0], 4, initial="does-not-exist")

    def test_mesh_input(self):
        mesh = irregular_mesh(120, seed=1)
        s = open_session(mesh, 4, seed=0)
        assert s.graph.num_vertices == mesh.num_nodes
        assert s.graph.coords is not None

    def test_rejects_non_graph(self):
        with pytest.raises(PartitioningError, match="CSRGraph"):
            open_session([[0, 1]], 2)

    def test_config_k_conflict(self, seq_a):
        with pytest.raises(PartitioningError, match="num_partitions"):
            open_session(seq_a.graphs[0], 8, config=IGPConfig(num_partitions=4))

    def test_config_and_kwargs_exclusive(self, seq_a):
        with pytest.raises(TypeError):
            open_session(
                seq_a.graphs[0], 4,
                config=IGPConfig(num_partitions=4), refine=True,
            )

    def test_custom_registered_partitioner(self, seq_a):
        def halves(graph, k, rng):
            return (np.arange(graph.num_vertices) * k // graph.num_vertices).astype(
                np.int64
            )

        register_initial_partitioner("_test_halves", halves)
        try:
            s = open_session(seq_a.graphs[0], 4, initial="_test_halves")
            assert np.array_equal(s.part, strip_partition(seq_a.graphs[0], 4))
        finally:
            from repro.session import _INITIAL_REGISTRY

            del _INITIAL_REGISTRY["_test_halves"]


# ----------------------------------------------------------------------
# Facade semantics
# ----------------------------------------------------------------------
class TestSessionFacade:
    def test_matches_engine_driven_manually(self, seq_a):
        g = seq_a.graphs[0]
        part = strip_partition(g, 4)
        s = open_session(g, 4, initial="given", part=part, policy=PER_DELTA)
        sp = StreamingPartitioner(g, part, num_partitions=4, policy=PER_DELTA)
        for d in seq_a.deltas:
            s.push(d)
            sp.push(d)
        assert np.array_equal(s.part, sp.part)
        assert s.graph.same_structure(sp.graph)
        assert s.num_batches == sp.num_batches

    def test_quality_matches_evaluate(self, seq_a):
        from repro.core import evaluate_partition

        s = open_session(seq_a.graphs[0], 4, seed=0)
        q = s.quality()
        ref = evaluate_partition(s.graph, s.part, 4)
        assert q.cut_total == ref.cut_total and q.imbalance == ref.imbalance

    def test_history_and_counters(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
        s.extend(seq_a.deltas[:2])
        hist = s.history()
        assert len(hist) == 2 and s.num_batches == 2 and s.num_pushed == 2
        assert all(isinstance(h, BatchSummary) for h in hist)
        assert all(h.trigger == "max_pending" and h.num_deltas == 1 for h in hist)
        assert "batch[1 deltas" in hist[0].summary()
        assert "PartitionSession" in s.describe()

    def test_repartition_on_empty_records_zero_delta_batch(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0)
        res = s.repartition()
        assert res is not None
        assert s.num_batches == 1
        assert s.history()[0].num_deltas == 0
        assert s.quality().imbalance <= 1.4

    def test_repartition_flushes_pending_first(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0, policy=MANUAL)
        s.push(seq_a.deltas[0])
        assert s.num_pending == 1
        res = s.repartition()
        assert res is not None and s.num_pending == 0
        assert s.history()[0].num_deltas == 1

    def test_flush_on_empty_returns_none(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0)
        assert s.flush() is None and s.num_batches == 0

    def test_history_carries_per_phase_profile(self, seq_a):
        s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
        s.push(seq_a.deltas[0])
        phases = s.history()[0].phases
        # the pipeline phase timings plus the delta-apply cost
        assert "apply" in phases
        assert {"assign", "layering"} <= phases.keys()
        assert all(v >= 0.0 for v in phases.values())
        # the phase profile is part of the wall-clock story, not extra
        assert sum(phases.values()) <= s.history()[0].wall_s * 1.5 + 1e-6

    def test_phases_survive_snapshot_round_trip(self, seq_a, tmp_path):
        s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
        s.extend(seq_a.deltas[:2])
        path = tmp_path / "s.zip"
        s.save(path)
        restored = PartitionSession.load(path)
        assert [h.phases for h in restored.history()] == [
            h.phases for h in s.history()
        ]
        assert restored.history()[0].phases  # non-empty, not a default

    def test_old_manifest_without_phases_still_loads(self, seq_a, tmp_path):
        # Simulate a pre-phases manifest row: BatchSummary(**row) must
        # default the field rather than reject the snapshot.
        from dataclasses import asdict

        s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
        s.push(seq_a.deltas[0])
        row = asdict(s.history()[0])
        row.pop("phases")
        legacy = BatchSummary(**row)
        assert legacy.phases == {}


# ----------------------------------------------------------------------
# Serialization primitives
# ----------------------------------------------------------------------
class TestSerializationPrimitives:
    def test_graph_round_trip(self, seq_a):
        g = seq_a.graphs[0]
        g2 = CSRGraph.from_arrays(g.to_arrays())
        assert g2.same_structure(g)
        assert np.array_equal(g2.coords, g.coords)

    def test_graph_missing_key_rejected(self, seq_a):
        arrays = seq_a.graphs[0].to_arrays()
        del arrays["adj"]
        with pytest.raises(GraphValidationError, match="adj"):
            CSRGraph.from_arrays(arrays)

    def test_graph_corruption_caught_by_validate(self, seq_a):
        arrays = dict(seq_a.graphs[0].to_arrays())
        bad = arrays["adj"].copy()
        bad[0] = 10**6  # out-of-range vertex id
        arrays["adj"] = bad
        with pytest.raises(GraphValidationError):
            CSRGraph.from_arrays(arrays)

    def test_delta_round_trip(self):
        d = GraphDelta(
            num_added_vertices=2,
            added_edges=[(0, 5), (5, 6)],
            deleted_vertices=[3],
            deleted_edges=[(0, 1)],
            added_vweights=[2.0, 1.5],
            added_eweights=[1.0, 4.0],
            added_coords=[(0.1, 0.2), (0.3, 0.4)],
        )
        d2 = GraphDelta.from_arrays(d.to_arrays())
        assert d.equals(d2) and d2.equals(d)
        bare = GraphDelta(num_added_vertices=1, added_edges=[(0, 4)])
        bare2 = GraphDelta.from_arrays(bare.to_arrays())
        assert bare.equals(bare2)
        assert bare2.added_vweights is None
        assert not bare.equals(d)

    def test_basis_round_trip(self):
        b = Basis(statuses=(("l_0_1", "basic"), ("__s0", "upper"), ("l_2_3", "basic")))
        b2 = Basis.from_arrays(b.to_arrays())
        assert b2.statuses == b.statuses
        assert b2.num_basic == 2


# ----------------------------------------------------------------------
# Snapshot round trips
# ----------------------------------------------------------------------
class TestSnapshotRoundTrip:
    def test_mid_batch_round_trip(self, seq_a, tmp_path):
        policy = FlushPolicy(weight_fraction=None, imbalance_limit=None, max_pending=3)
        s = open_session(
            seq_a.graphs[0], 4, seed=0, policy=policy, lp_backend="revised"
        )
        s.extend(seq_a.deltas[:2])  # pending, no flush yet
        assert s.num_pending == 2
        path = tmp_path / "mid.igps"
        s.save(path)

        r = PartitionSession.load(path)
        assert r.graph.same_structure(s.graph)
        assert np.array_equal(r.part, s.part)
        assert r.num_pending == 2 and r.num_pushed == 2
        assert r.pending_delta.equals(s.pending_delta)
        assert r.policy == policy
        assert r.config == s.config
        assert r.initial == "rsb"
        # identical continuation: third delta fires max_pending on both
        res_s = s.push(seq_a.deltas[2])
        res_r = r.push(seq_a.deltas[2])
        assert res_s is not None and res_r is not None
        assert np.array_equal(s.part, r.part)
        assert s.graph.same_structure(r.graph)

    def test_warm_bases_and_history_round_trip(self, seq_a, tmp_path):
        s = open_session(
            seq_a.graphs[0], 4, seed=0, policy=PER_DELTA, lp_backend="revised"
        )
        s.extend(seq_a.deltas[:2])
        balance, refine = s.warm_bases
        assert balance is not None
        path = tmp_path / "warm.igps"
        s.save(path)

        r = PartitionSession.load(path)
        r_balance, r_refine = r.warm_bases
        assert r_balance.statuses == balance.statuses
        assert (refine is None) == (r_refine is None)
        assert [h.summary() for h in r.history()] == [
            h.summary() for h in s.history()
        ]
        assert r.num_batches == s.num_batches
        assert r.total_wall_s() == pytest.approx(s.total_wall_s())
        # the restored session pivots exactly like the uninterrupted one
        res_s = s.push(seq_a.deltas[2])
        res_r = r.push(seq_a.deltas[2])
        assert np.array_equal(s.part, r.part)
        assert [st.lp_iterations for st in res_s.stages] == [
            st.lp_iterations for st in res_r.stages
        ]

    def test_rng_state_round_trip(self, seq_a, tmp_path):
        s = open_session(seq_a.graphs[0], 4, seed=123)
        path = tmp_path / "rng.igps"
        s.save(path)
        r = PartitionSession.load(path)
        assert r.rng.random(4).tolist() == s.rng.random(4).tolist()

    def test_user_meta_round_trip(self, seq_a, tmp_path):
        s = open_session(seq_a.graphs[0], 4, seed=0)
        path = tmp_path / "meta.igps"
        s.save(path, user_meta={"stream": "dataset-a", "upto": 2})
        r = PartitionSession.load(path)
        assert r.user_meta == {"stream": "dataset-a", "upto": 2}

    def test_round_trip_across_process_boundary(self, tmp_path):
        """Satellite: a subprocess writes a mid-stream snapshot; the parent
        loads it and verifies partition, pending delta and basis keys."""
        path = tmp_path / "child.igps"
        src = Path(repro.__file__).resolve().parents[1]
        child = (
            "import sys\n"
            "import repro\n"
            "from repro.core.streaming import FlushPolicy\n"
            "from repro.mesh.sequences import dataset_a\n"
            "seq = dataset_a(scale=0.25)\n"
            "s = repro.open_session(\n"
            "    seq.graphs[0], 4, seed=0, lp_backend='revised',\n"
            "    policy=FlushPolicy(weight_fraction=None, imbalance_limit=None,\n"
            "                       max_pending=2),\n"
            ")\n"
            "s.extend(seq.deltas[:3])\n"  # flush after 2, third pending
            "assert s.num_pending == 1\n"
            "s.save(sys.argv[1])\n"
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", child, str(path)], check=True, env=env
        )

        # The parent-side reference session takes the same steps.
        seq = dataset_a(scale=0.25)
        ref = open_session(
            seq.graphs[0], 4, seed=0, lp_backend="revised",
            policy=FlushPolicy(
                weight_fraction=None, imbalance_limit=None, max_pending=2
            ),
        )
        ref.extend(seq.deltas[:3])

        r = PartitionSession.load(path)
        assert np.array_equal(r.part, ref.part)
        assert r.graph.same_structure(ref.graph)
        assert r.num_pending == 1 and r.num_pushed == 3
        assert r.pending_delta.equals(ref.pending_delta)
        ref_balance, _ = ref.warm_bases
        r_balance, _ = r.warm_bases
        assert r_balance.statuses == ref_balance.statuses
        # and the continuation is identical
        ref.push(seq.deltas[3])
        r.push(seq.deltas[3])
        ref_final = ref.repartition()
        r_final = r.repartition()
        assert np.array_equal(ref.part, r.part)
        assert [st.lp_iterations for st in ref_final.stages] == [
            st.lp_iterations for st in r_final.stages
        ]


# ----------------------------------------------------------------------
# Snapshot rejection
# ----------------------------------------------------------------------
def _snapshot(seq_a, tmp_path, name="ok.igps"):
    s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
    s.push(seq_a.deltas[0])
    path = tmp_path / name
    s.save(path)
    return path


def _rewrite(path, out, **replacements):
    """Copy a snapshot zip, replacing named members (dots -> underscores
    in kwargs: manifest_json / arrays_npz)."""
    member_of = {"manifest_json": "manifest.json", "arrays_npz": "arrays.npz"}
    with zipfile.ZipFile(path) as zf:
        data = {n: zf.read(n) for n in zf.namelist()}
    for key, blob in replacements.items():
        data[member_of[key]] = blob
    with zipfile.ZipFile(out, "w") as zf:
        for n, blob in data.items():
            zf.writestr(n, blob)
    return out


class TestSnapshotRejection:
    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "garbage.igps"
        path.write_text("this is not a snapshot")
        with pytest.raises(SnapshotError):
            PartitionSession.load(path)

    def test_zip_without_members(self, tmp_path):
        path = tmp_path / "empty.igps"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("unrelated.txt", "hi")
        with pytest.raises(SnapshotError, match="not a session snapshot"):
            PartitionSession.load(path)

    def test_corrupted_manifest_json(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        bad = _rewrite(good, tmp_path / "bad.igps", manifest_json=b"{not json!")
        with pytest.raises(SnapshotError):
            PartitionSession.load(bad)

    def test_wrong_format_tag(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        manifest["format"] = "something.else"
        bad = _rewrite(
            good, tmp_path / "fmt.igps",
            manifest_json=json.dumps(manifest).encode(),
        )
        with pytest.raises(SnapshotError, match="not a session snapshot"):
            PartitionSession.load(bad)

    def test_newer_version_rejected(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        manifest["version"] = SNAPSHOT_VERSION + 1
        bad = _rewrite(
            good, tmp_path / "new.igps",
            manifest_json=json.dumps(manifest).encode(),
        )
        with pytest.raises(SnapshotError, match="upgrade"):
            PartitionSession.load(bad)

    def test_missing_version_rejected(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        del manifest["version"]
        bad = _rewrite(
            good, tmp_path / "nover.igps",
            manifest_json=json.dumps(manifest).encode(),
        )
        with pytest.raises(SnapshotError, match="version"):
            PartitionSession.load(bad)

    def test_corrupted_arrays_rejected(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        bad = _rewrite(
            good, tmp_path / "arr.igps", arrays_npz=b"\x00\x01 not an npz"
        )
        with pytest.raises(SnapshotError):
            PartitionSession.load(bad)

    def test_bitrot_inside_arrays_member_rejected(self, seq_a, tmp_path):
        # Outer zip intact, inner npz bit-rotted (CRC mismatch) -> the
        # error must still surface as SnapshotError, not BadZipFile.
        good = _snapshot(seq_a, tmp_path)
        with zipfile.ZipFile(good) as zf:
            blob = bytearray(zf.read("arrays.npz"))
        mid = len(blob) // 2
        blob[mid : mid + 20] = b"\x00" * 20
        bad = _rewrite(good, tmp_path / "rot.igps", arrays_npz=bytes(blob))
        with pytest.raises(SnapshotError):
            PartitionSession.load(bad)

    def test_save_overwrites_atomically(self, seq_a, tmp_path):
        s = open_session(seq_a.graphs[0], 4, seed=0, policy=PER_DELTA)
        path = tmp_path / "same.igps"
        s.save(path)
        s.push(seq_a.deltas[0])
        s.save(path)  # overwrite in place (write-then-rename)
        r = PartitionSession.load(path)
        assert r.num_batches == 1
        assert not (tmp_path / "same.igps.tmp").exists()

    def test_incomplete_manifest_rejected(self, seq_a, tmp_path):
        good = _snapshot(seq_a, tmp_path)
        with zipfile.ZipFile(good) as zf:
            manifest = json.loads(zf.read("manifest.json"))
        del manifest["engine"]
        bad = _rewrite(
            good, tmp_path / "inc.igps",
            manifest_json=json.dumps(manifest).encode(),
        )
        with pytest.raises(SnapshotError, match="corrupted or incomplete"):
            PartitionSession.load(bad)


# ----------------------------------------------------------------------
# Top-level namespace
# ----------------------------------------------------------------------
class TestDeprecationShims:
    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_star_import_is_warning_free(self):
        # The engine classes live under repro.core only; the top level
        # exports the session API, and `from repro import *` is
        # warning-free.
        import warnings

        scope = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            exec("from repro import *", scope)
        assert "open_session" in scope and "PartitionSession" in scope
        assert "StreamingPartitioner" not in scope


# ----------------------------------------------------------------------
# quality() memoization (service layers poll quality between mutations)
# ----------------------------------------------------------------------
class TestQualityMemoization:
    @pytest.fixture
    def counting_evaluate(self, monkeypatch):
        import repro.session as session_mod

        calls = {"n": 0}
        real = session_mod.evaluate_partition

        def counted(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(session_mod, "evaluate_partition", counted)
        return calls

    def test_repeated_quality_computes_once(self, seq_a, counting_evaluate):
        g0 = seq_a.graphs[0]
        s = open_session(g0, 4, initial="given", part=strip_partition(g0, 4))
        q1 = s.quality()
        q2 = s.quality()
        q3 = s.quality()
        assert counting_evaluate["n"] == 1
        assert q1 is q2 is q3

    def test_push_flush_repartition_invalidate(self, seq_a, counting_evaluate):
        g0 = seq_a.graphs[0]
        s = open_session(
            g0, 4, initial="given", part=strip_partition(g0, 4), policy=MANUAL
        )
        s.quality()
        s.push(seq_a.deltas[0])
        s.quality()  # recomputed: a push may change pending->flushed state
        assert counting_evaluate["n"] == 2
        s.flush()
        s.quality()
        assert counting_evaluate["n"] == 3
        s.repartition()
        q = s.quality()
        assert counting_evaluate["n"] == 4
        # and the memoized value is the real current quality
        assert q.cut_total == s.quality().cut_total
        assert counting_evaluate["n"] == 4

    def test_push_batch_invalidates(self, seq_a, counting_evaluate):
        g0 = seq_a.graphs[0]
        s = open_session(
            g0, 4, initial="given", part=strip_partition(g0, 4), policy=MANUAL
        )
        s.quality()
        s.push_batch(list(seq_a.deltas[:2]))
        s.quality()
        assert counting_evaluate["n"] == 2
