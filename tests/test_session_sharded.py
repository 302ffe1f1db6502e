"""Sharded sessions: streaming parity with the monolith, format-v2
directory snapshots (append-only saves), and the shard CLI flows."""

import gc
import json
import weakref

import numpy as np
import pytest

import repro
from repro.bench.workloads import social_churn_stream
from repro.cli import main as cli_main
from repro.core.streaming import FlushPolicy, StreamingPartitioner
from repro.errors import SnapshotError
from repro.graph import (
    DirectoryShardStore,
    GraphDelta,
    ShardedCSRGraph,
)
from repro.session import SNAPSHOT_VERSION
from repro.spectral.rsb import rsb_partition


@pytest.fixture(scope="module")
def churn():
    return social_churn_stream(n=120, steps=8, seed=7)


class TestStreamingParity:
    def test_sharded_session_matches_monolith(self, churn, tmp_path):
        base, deltas = churn
        part = rsb_partition(base, 4, seed=0)
        policy = FlushPolicy(weight_fraction=0.3, imbalance_limit=2.0)

        mono = StreamingPartitioner(
            base, part.copy(), num_partitions=4, policy=policy,
            lp_backend="revised",
        )
        mono.extend(deltas)
        mono.flush()

        store = DirectoryShardStore(tmp_path / "blocks", max_resident=2)
        sharded = ShardedCSRGraph.from_csr(base, 6, store=store)
        shard_sp = StreamingPartitioner(
            sharded, part.copy(), num_partitions=4, policy=policy,
            lp_backend="revised",
        )
        shard_sp.extend(deltas)
        shard_sp.flush()

        assert np.array_equal(mono.part, shard_sp.part)
        assert len(mono.history) == len(shard_sp.history)
        for a, b in zip(mono.history, shard_sp.history):
            assert a.trigger == b.trigger
            assert sum(s.lp_iterations for s in a.result.stages) == sum(
                s.lp_iterations for s in b.result.stages
            )
        shard_sp.graph.validate()

    def test_in_memory_store_gcs_superseded_blocks(self, churn):
        base, deltas = churn
        part = rsb_partition(base, 4, seed=0)
        sharded = ShardedCSRGraph.from_csr(base, 6)  # InMemoryShardStore
        sp = StreamingPartitioner(
            sharded, part.copy(), num_partitions=4,
            policy=FlushPolicy(max_pending=2),
        )
        sp.extend(deltas)
        sp.flush()
        # exactly one live revision per shard remains in the store
        assert len(sp.graph.store.keys()) == sp.graph.num_shards

    def test_zero_delta_repartition_on_sharded(self, churn):
        base, _ = churn
        part = rsb_partition(base, 4, seed=0)
        sharded = ShardedCSRGraph.from_csr(base, 4)
        sp = StreamingPartitioner(sharded, part.copy(), num_partitions=4)
        result = sp.repartition()
        assert result.quality_final.imbalance >= 1.0
        assert sp.num_batches == 1


class TestOpenSession:
    def test_open_session_accepts_sharded_with_registry_initial(self, churn):
        base, _ = churn
        sharded = ShardedCSRGraph.from_csr(base, 4)
        session = repro.open_session(sharded, 4, initial="rsb", seed=0)
        assert isinstance(session.graph, ShardedCSRGraph)
        assert session.quality().imbalance >= 1.0

    def test_sharded_initial_matches_monolith_initial(self, churn):
        base, _ = churn
        sharded = ShardedCSRGraph.from_csr(base, 4)
        a = repro.open_session(base, 4, initial="rsb", seed=0)
        b = repro.open_session(sharded, 4, initial="rsb", seed=0)
        assert np.array_equal(a.part, b.part)


class TestSnapshotV2:
    def test_save_load_resume_matches_uninterrupted(self, churn, tmp_path):
        base, deltas = churn
        policy = FlushPolicy(weight_fraction=None, imbalance_limit=None,
                             max_pending=2)
        ref = repro.open_session(base, 4, policy=policy, seed=0,
                                 lp_backend="revised")
        ref.extend(deltas)
        ref.repartition()

        sharded = ShardedCSRGraph.from_csr(base, 6)
        session = repro.open_session(sharded, 4, policy=policy, seed=0,
                                     lp_backend="revised")
        upto = len(deltas) // 2
        session.extend(deltas[:upto])
        snap = tmp_path / "snap.igps"
        session.save(snap)
        assert snap.is_dir()
        manifest = json.loads((snap / "manifest.json").read_text())
        assert manifest["version"] == SNAPSHOT_VERSION == 2
        assert manifest["sharded"]["num_shards"] == 6

        restored = repro.PartitionSession.load(snap)
        assert isinstance(restored.graph, ShardedCSRGraph)
        assert restored.num_pending == session.num_pending
        assert restored.num_pushed == session.num_pushed
        restored.extend(deltas[upto:])
        restored.repartition()
        assert np.array_equal(ref.part, restored.part)
        assert [h.lp_pivots for h in ref.history()] == [
            h.lp_pivots for h in restored.history()
        ]

    def test_localized_save_rewrites_only_touched_shards(self, churn, tmp_path):
        base, _ = churn
        sharded = ShardedCSRGraph.from_csr(base, 6)
        session = repro.open_session(
            sharded, 4, policy=FlushPolicy(max_pending=1), seed=0,
        )
        session.repartition()
        snap = tmp_path / "snap.igps"
        session.save(snap)

        def stat():
            return {
                f.name: (f.stat().st_mtime_ns, f.stat().st_size)
                for f in (snap / "shards").glob("shard_*.npz")
            }

        before = stat()
        assert len(before) == 6
        n = session.graph.num_vertices
        session.push(GraphDelta(num_added_vertices=1, added_edges=[(0, n)]))
        session.save(snap)
        after = stat()
        unchanged = [k for k in after if k in before and before[k] == after[k]]
        # one shard rewritten (vertex 0's), the other five byte-identical
        assert len(unchanged) == 5
        reloaded = repro.PartitionSession.load(snap)
        assert reloaded.graph.num_vertices == n + 1
        reloaded.graph.validate()

    def test_dropped_sessions_are_freed_without_a_collection(
        self, churn, tmp_path
    ):
        """A sharded session's graph handle and its boundary frame form no
        reference cycle: dropping a loaded session frees its handles by
        reference counting, also the ones a flush advanced past."""
        base, deltas = churn
        session = repro.open_session(
            ShardedCSRGraph.from_csr(base, 6), 4,
            policy=FlushPolicy(max_pending=1), seed=0,
        )
        session.extend(deltas[:2])
        snap = tmp_path / "snap.igps"
        session.save(snap)
        gc.collect()
        gc.disable()
        try:
            loaded = repro.PartitionSession.load(snap, max_resident=2)
            loaded.quality()
            handles = [weakref.ref(loaded.graph)]
            loaded.extend(deltas[2:4])
            handles.append(weakref.ref(loaded.graph))
            loaded.quality()
            del loaded
            assert [h() for h in handles] == [None, None]
        finally:
            gc.enable()

    def test_loaded_session_flushes_into_snapshot_store(self, churn, tmp_path):
        base, deltas = churn
        sharded = ShardedCSRGraph.from_csr(base, 6)
        session = repro.open_session(
            sharded, 4, policy=FlushPolicy(max_pending=2), seed=0,
        )
        snap = tmp_path / "snap.igps"
        session.save(snap)
        restored = repro.PartitionSession.load(snap, max_resident=2)
        assert isinstance(restored.graph.store, DirectoryShardStore)
        restored.extend(deltas[:4])
        # new revisions written into the snapshot's own shards dir
        assert any(
            "_r" in p.stem and not p.stem.endswith("_r0")
            for p in (snap / "shards").glob("shard_*.npz")
        )
        restored.save(snap)
        again = repro.PartitionSession.load(snap)
        assert np.array_equal(again.part, restored.part)

    def test_flush_failure_rolls_back_block_revisions(self, churn, monkeypatch):
        base, _ = churn
        sharded = ShardedCSRGraph.from_csr(base, 4)
        sp = StreamingPartitioner(
            sharded,
            rsb_partition(base, 4, seed=0),
            num_partitions=4,
            policy=FlushPolicy(max_pending=1),
        )
        keys_before = set(sharded.store.keys())

        def boom(self, *args, **kwargs):
            raise RuntimeError("simulated OOM during boundary-frame advance")

        from repro.graph.frame import BoundaryFrame

        monkeypatch.setattr(BoundaryFrame, "advance", boom)
        n = sp.graph.num_vertices
        with pytest.raises(RuntimeError, match="simulated"):
            sp.push(GraphDelta(num_added_vertices=1, added_edges=[(0, n)]))
        # the failed batch's new revisions were rolled back, the
        # pre-delta graph is still the engine's graph, and the frame
        # (which may have advanced onto the dead revisions) was dropped
        assert set(sharded.store.keys()) == keys_before
        assert sp.graph is sharded
        assert sp.quality_view is sp.graph

    def test_persistent_store_revisions_stay_bounded(self, churn, tmp_path):
        base, deltas = churn
        sharded = ShardedCSRGraph.from_csr(base, 6)
        session = repro.open_session(
            sharded, 4, policy=FlushPolicy(max_pending=2), seed=0,
        )
        snap = tmp_path / "snap.igps"
        session.save(snap)
        restored = repro.PartitionSession.load(snap)
        restored.extend(deltas)  # many flushes, no intermediate save
        files = list((snap / "shards").glob("shard_*.npz"))
        # at most two revisions per shard survive: the manifest-pinned
        # one and the current one
        assert len(files) <= 2 * 6
        per_shard = {}
        for f in files:
            sid = f.stem.split("_")[1]
            per_shard[sid] = per_shard.get(sid, 0) + 1
        assert max(per_shard.values()) <= 2
        # the snapshot on disk (old manifest + pinned blocks) still loads
        stale_copy = repro.PartitionSession.load(snap)
        assert stale_copy.graph.num_vertices == base.num_vertices

    def test_stray_arrays_file_does_not_confuse_load(self, churn, tmp_path):
        base, _ = churn
        session = repro.open_session(
            ShardedCSRGraph.from_csr(base, 4), 4, seed=0
        )
        snap = tmp_path / "snap.igps"
        session.save(snap)
        # simulate a crash mid-save: a newer arrays file exists but the
        # manifest was never updated — load must use the manifest's file
        (snap / "session_999999.npz").write_bytes(b"garbage")
        restored = repro.PartitionSession.load(snap)
        assert restored.graph.num_vertices == base.num_vertices
        # ... and the next save prunes the stray
        restored.save(snap)
        assert not (snap / "session_999999.npz").exists()

    def test_load_missing_block_raises_snapshot_error(self, churn, tmp_path):
        base, _ = churn
        session = repro.open_session(
            ShardedCSRGraph.from_csr(base, 4), 4, seed=0
        )
        snap = tmp_path / "snap.igps"
        session.save(snap)
        victim = next((snap / "shards").glob("shard_*.npz"))
        victim.unlink()
        with pytest.raises(SnapshotError, match="missing the block"):
            repro.PartitionSession.load(snap)

    def test_load_rejects_non_snapshot_dir(self, tmp_path):
        (tmp_path / "noise").mkdir()
        with pytest.raises(SnapshotError, match="not a session snapshot"):
            repro.PartitionSession.load(tmp_path / "noise")

    def test_v1_zip_still_roundtrips(self, churn, tmp_path):
        base, deltas = churn
        session = repro.open_session(
            base, 4, policy=FlushPolicy(max_pending=2), seed=0
        )
        session.extend(deltas[:3])
        snap = tmp_path / "mono.igps"
        session.save(snap)
        assert snap.is_file()
        manifest = json.loads(
            __import__("zipfile").ZipFile(snap).read("manifest.json")
        )
        assert manifest["version"] == 1  # monolithic stays v1-compatible
        restored = repro.PartitionSession.load(snap)
        assert np.array_equal(restored.part, session.part)


class TestShardCLI:
    def test_shard_split_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "blocks"
        rc = cli_main([
            "shard", "split", "--source", "churn", "--scale", "0.3",
            "--shards", "3", "-o", str(out),
        ])
        assert rc == 0
        assert (out / "meta.npz").exists()
        rc = cli_main(["shard", "inspect", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "cross-shard validation OK" in captured
        assert "shards=3" in captured

    def test_shard_dir_without_shards_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--shards"):
            cli_main([
                "stream", "--source", "churn", "--scale", "0.3",
                "--steps", "2", "-p", "4", "--shard-dir", str(tmp_path),
            ])

    def test_stream_with_shards(self, capsys):
        rc = cli_main([
            "stream", "--source", "churn", "--scale", "0.3", "--steps", "3",
            "-p", "4", "--shards", "3",
        ])
        assert rc == 0
        assert "repartition batches" in capsys.readouterr().out

    def test_session_save_resume_sharded_dir(self, tmp_path, capsys):
        snap = tmp_path / "sess.igps"
        rc = cli_main([
            "session", "save", str(snap), "--source", "churn",
            "--scale", "0.3", "--steps", "4", "-p", "4", "--shards", "3",
        ])
        assert rc == 0
        assert snap.is_dir()
        rc = cli_main(["session", "resume", str(snap)])
        assert rc == 0
        assert "resumed" in capsys.readouterr().out
