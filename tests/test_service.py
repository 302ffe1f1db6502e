"""Service-layer tests: SessionManager, the TCP server, crash recovery.

The headline guarantees under test:

* concurrent clients pushing commuting deltas to one session land on
  labels identical to a sequential composed run;
* a server killed with ``SIGKILL`` mid-stream replays its WAL on restart
  and continues with identical labels *and* simplex pivot counts
  (asserted across a real process boundary);
* LRU eviction under a tiny resident budget is invisible to clients;
* protocol fuzz (garbage/truncated frames) yields typed errors and the
  server keeps serving.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.streaming import FlushPolicy
from repro.bench.workloads import make_stream
from repro.errors import ServiceError
from repro.graph.incremental import GraphDelta
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.manager import SessionManager
from repro.service.server import PartitionServer

SRC = str(Path(__file__).resolve().parent.parent / "src")

PER_DELTA = {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
MANUAL = {"weight_fraction": None, "imbalance_limit": None, "max_pending": None}

CHURN = {"source": "churn", "scale": 0.2, "steps": 5, "seed": 3}


def churn_spec(**over):
    spec = {
        "partitions": 4,
        "seed": 0,
        "policy": dict(PER_DELTA),
        "config": {"lp_backend": "revised"},
        "source": dict(CHURN),
    }
    spec.update(over)
    return spec


def edge_deltas(base, count, seed=11):
    """Pairwise-commuting single-edge additions (any push order composes
    to the same graph)."""
    rng = np.random.default_rng(seed)
    existing = {tuple(e) for e in np.sort(base.edge_array(), axis=1).tolist()}
    out = []
    while len(out) < count:
        u, v = sorted(int(x) for x in rng.integers(0, base.num_vertices, 2))
        if u == v or (u, v) in existing:
            continue
        existing.add((u, v))
        out.append(GraphDelta(added_edges=[(u, v)]))
    return out


# ----------------------------------------------------------------------
# SessionManager (no sockets)
# ----------------------------------------------------------------------
class TestSessionManager:
    def test_create_push_query_flow(self, tmp_path):
        mgr = SessionManager(tmp_path, fsync=False)
        base, deltas = make_stream(**CHURN)
        info = mgr.create("s", churn_spec())
        assert info["num_vertices"] == base.num_vertices
        for d in deltas[:2]:
            ack = mgr.push("s", [d])
            assert ack["flushed"] and ack["batch"]["num_deltas"] == 1
        q = mgr.query("s", labels=True)
        assert q["num_pushed"] == 2 and len(q["history"]) == 2
        assert q["source"] == CHURN
        quality = mgr.quality("s")
        assert quality["imbalance"] >= 1.0

    def test_create_validation_codes(self, tmp_path):
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(ServiceError) as ei:
            mgr.create("x", {"partitions": 4})  # neither graph nor source
        assert ei.value.code == "bad-request"
        with pytest.raises(ServiceError):
            mgr.create("x", {"partitions": "four", "source": CHURN})
        with pytest.raises(ServiceError):
            mgr.create("bad/name", churn_spec())
        mgr.create("x", churn_spec())
        with pytest.raises(ServiceError) as ei:
            mgr.create("x", churn_spec())
        assert ei.value.code == "session-exists"
        with pytest.raises(ServiceError) as ei:
            mgr.push("ghost", [GraphDelta()])
        assert ei.value.code == "unknown-session"

    def test_bad_config_key_is_bad_request(self, tmp_path):
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(ServiceError) as ei:
            mgr.create("x", churn_spec(config={"no_such_option": 1}))
        assert ei.value.code == "bad-request"

    def test_unknown_lp_backend_is_bad_request_and_not_persisted(self, tmp_path):
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(ServiceError, match="unknown LP backend") as ei:
            mgr.create("x", churn_spec(config={"lp_backend": "nope"}))
        assert ei.value.code == "bad-request"
        assert not (tmp_path / "x").exists()
        assert "x" not in mgr.list_sessions()
        # The name stays usable.
        mgr.create("x", churn_spec())

    def test_crash_recovery_equals_uninterrupted(self, tmp_path):
        """Kill (drop without checkpoint) mid-stream; replay must match
        the uninterrupted run's labels AND per-batch pivot counts."""
        base, deltas = make_stream(**CHURN)

        ref = repro.open_session(
            base, 4, policy=FlushPolicy(**PER_DELTA), seed=0,
            lp_backend="revised",
        )
        for d in deltas:
            ref.push(d)
        ref.repartition()

        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec())
        for d in deltas[:3]:
            mgr.push("s", [d])
        mgr.drop_resident("s")  # crash: no checkpoint, no goodbye

        mgr2 = SessionManager(tmp_path, fsync=False)
        info = mgr2.open("s")
        assert info["num_pushed"] == 3  # WAL replay recovered the pushes
        for d in deltas[3:]:
            mgr2.push("s", [d])
        mgr2.repartition("s")
        out = mgr2.query("s", labels=True)
        labels = protocol.arrays_from_wire(out["labels"])["part"]
        assert np.array_equal(labels, ref.part)
        assert [h["lp_pivots"] for h in out["history"]] == [
            s.lp_pivots for s in ref.history()
        ]

    def test_recovery_survives_missing_snapshot(self, tmp_path):
        """No (readable) snapshot → deterministic rebuild from meta.json
        plus full WAL replay."""
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec())
        for d in deltas[:2]:
            mgr.push("s", [d])
        before = mgr.query("s", labels=True)
        mgr.drop_resident("s")
        (tmp_path / "s" / "snapshot.igps").unlink()

        mgr2 = SessionManager(tmp_path, fsync=False)
        after = mgr2.query("s", labels=True)
        assert np.array_equal(
            protocol.arrays_from_wire(after["labels"])["part"],
            protocol.arrays_from_wire(before["labels"])["part"],
        )
        assert after["num_pushed"] == before["num_pushed"]

    def test_flush_and_repartition_are_wal_logged(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec(policy=dict(MANUAL)))
        mgr.push("s", deltas[:2])  # one micro-batch, no flush (manual policy)
        mgr.flush("s")
        mgr.repartition("s")
        before = mgr.query("s", labels=True)
        mgr.drop_resident("s")
        after = SessionManager(tmp_path, fsync=False).query("s", labels=True)
        assert np.array_equal(
            protocol.arrays_from_wire(after["labels"])["part"],
            protocol.arrays_from_wire(before["labels"])["part"],
        )
        assert [h["trigger"] for h in after["history"]] == [
            h["trigger"] for h in before["history"]
        ]

    def test_eviction_reload_roundtrip_tiny_budget(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, max_resident=1, fsync=False)
        mgr.create("a", churn_spec())
        mgr.create("b", churn_spec())
        # creating b evicted a (budget 1)
        stats = mgr.stats()
        assert stats["resident"] <= 1 and stats["counters"]["evictions"] >= 1

        mgr.push("a", [deltas[0]])  # transparently reloads a, evicts b
        mgr.push("b", [deltas[0]])  # and back again
        mgr.push("a", [deltas[1]])
        stats = mgr.stats()
        assert stats["resident"] <= 1
        assert stats["counters"]["reloads"] >= 2
        qa = mgr.query("a")
        qb = mgr.query("b")
        assert qa["num_pushed"] == 2 and qb["num_pushed"] == 1

    def test_evicted_session_state_identical_to_unevicted(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        budget = SessionManager(tmp_path / "lru", max_resident=1, fsync=False)
        plain = SessionManager(tmp_path / "plain", fsync=False)
        for mgr in (budget, plain):
            mgr.create("s", churn_spec())
        budget.create("decoy", churn_spec())
        for d in deltas:
            budget.push("s", [d])
            budget.open("decoy")  # force s out of residency every step
            plain.push("s", [d])
        a = budget.query("s", labels=True)
        b = plain.query("s", labels=True)
        assert np.array_equal(
            protocol.arrays_from_wire(a["labels"])["part"],
            protocol.arrays_from_wire(b["labels"])["part"],
        )
        assert [h["lp_pivots"] for h in a["history"]] == [
            h["lp_pivots"] for h in b["history"]
        ]
        assert budget.stats()["counters"]["evictions"] >= len(deltas) - 1

    def test_checkpoint_dirty_sweep(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec())
        mgr.push("s", [deltas[0]])
        assert mgr.stats()["sessions"]["s"]["dirty"]
        assert mgr.checkpoint_dirty() == 1
        assert not mgr.stats()["sessions"]["s"]["dirty"]
        # WAL was truncated by the checkpoint: nothing to replay
        mgr.drop_resident("s")
        mgr2 = SessionManager(tmp_path, fsync=False)
        mgr2.open("s")
        assert mgr2.counters["wal_replayed"] == 0


# ----------------------------------------------------------------------
# The TCP server (in-process event loop, real sockets)
# ----------------------------------------------------------------------
@pytest.fixture
def server(tmp_path):
    manager = SessionManager(tmp_path / "root", fsync=False)
    srv = PartitionServer(manager, port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(srv.start(), loop).result(30)
    serve_task = asyncio.run_coroutine_threadsafe(
        srv.serve_until_shutdown(), loop
    )
    yield srv
    loop.call_soon_threadsafe(srv._stop.set)
    serve_task.result(30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


def client_for(srv, **kw):
    return ServiceClient(port=srv.port, **kw)


class TestServer:
    def test_full_op_roundtrip(self, server):
        base, deltas = make_stream(**CHURN)
        with client_for(server) as svc:
            assert svc.ping()["pong"]
            info = svc.create(
                "s", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(PER_DELTA), config={"lp_backend": "revised"},
            )
            assert info["num_vertices"] == base.num_vertices
            ack = svc.push("s", deltas[0])
            assert ack["flushed"] and ack["seq"] >= 1
            svc.flush("s")
            rep = svc.repartition("s")
            assert rep["batch"]["trigger"] == "repartition"
            q = svc.quality("s")
            assert q["num_partitions"] == 4
            out = svc.query("s", labels=True)
            assert out["labels"].shape[0] == out["num_vertices"]
            saved = svc.save("s")
            assert Path(saved["snapshot"]).exists()
            closed = svc.close_session("s")
            assert closed["resident"] is False
            reopened = svc.open("s")
            assert reopened["num_pushed"] == 1
            stats = svc.stats()
            assert stats["counters"]["pushes"] == 1
            assert "s" in stats["sessions"]

    def test_concurrent_clients_match_sequential_composed_stream(self, server):
        """N clients race pushes of commuting deltas into one session;
        the result must equal the same deltas pushed sequentially and
        flushed once — batching must be semantically invisible."""
        base, _ = make_stream(**CHURN)
        pushes = edge_deltas(base, 24)
        with client_for(server) as svc:
            svc.create(
                "conc", partitions=4, source=dict(CHURN), seed=0,
                policy=dict(MANUAL), config={"lp_backend": "revised"},
            )

        def worker(chunk):
            with client_for(server) as c:
                return [c.push("conc", d)["batched"] for d in chunk]

        with ThreadPoolExecutor(4) as pool:
            sizes = sum(pool.map(worker, [pushes[i::4] for i in range(4)]), [])
        with client_for(server) as svc:
            svc.flush("conc")
            out = svc.query("conc", labels=True)
        assert out["num_pushed"] == len(pushes)
        assert out["history"][0]["num_deltas"] == len(pushes)

        # sequential composed reference (same create spec, same seed)
        ref = repro.open_session(
            base, 4, policy=FlushPolicy(**MANUAL), seed=0,
            lp_backend="revised",
        )
        ref.push_batch(pushes)
        ref.flush()
        assert np.array_equal(out["labels"], ref.part)

    def test_fuzz_garbage_frames_keep_server_up(self, server):
        # (a) valid length prefix, garbage JSON body -> typed error, close
        with socket.create_connection(("127.0.0.1", server.port)) as raw:
            raw.sendall(b"\x00\x00\x00\x05notjs")
            resp = protocol.read_frame_sock(raw)
            assert resp["ok"] is False and resp["error"]["code"] == "protocol"
            assert protocol.read_frame_sock(raw) is None  # server hung up

        # (b) absurd length prefix -> typed error, close
        with socket.create_connection(("127.0.0.1", server.port)) as raw:
            raw.sendall(b"\xff\xff\xff\xff")
            resp = protocol.read_frame_sock(raw)
            assert resp["error"]["code"] == "protocol"

        # (c) truncated frame then EOF -> server just drops the conn
        with socket.create_connection(("127.0.0.1", server.port)) as raw:
            raw.sendall(b"\x00\x00\x01\x00only-a-few-bytes")

        # (d) well-formed frame, foreign protocol version -> typed error,
        #     connection stays usable
        with socket.create_connection(("127.0.0.1", server.port)) as raw:
            protocol.write_frame_sock(raw, {"v": 99, "id": 1, "op": "ping"})
            resp = protocol.read_frame_sock(raw)
            assert resp["error"]["code"] == "version"
            protocol.write_frame_sock(
                raw, {"v": 1, "id": 2, "op": "nonsense"}
            )
            resp = protocol.read_frame_sock(raw)
            assert resp["error"]["code"] == "bad-request"
            protocol.write_frame_sock(raw, {"v": 1, "id": 3, "op": "ping"})
            assert protocol.read_frame_sock(raw)["ok"] is True

        # (e) after all that abuse, a normal client still works
        with client_for(server) as svc:
            assert svc.ping()["pong"]

    def test_error_codes_cross_the_wire(self, server):
        with client_for(server) as svc:
            with pytest.raises(ServiceError) as ei:
                svc.open("ghost")
            assert ei.value.code == "unknown-session"
            svc.create("dup", partitions=4, source=dict(CHURN))
            with pytest.raises(ServiceError) as ei:
                svc.create("dup", partitions=4, source=dict(CHURN))
            assert ei.value.code == "session-exists"
            with pytest.raises(ServiceError) as ei:
                svc.request("push", "dup")  # missing delta payload
            assert ei.value.code == "bad-request"


# ----------------------------------------------------------------------
# kill -9 across a real process boundary
# ----------------------------------------------------------------------
def _spawn_server(root, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         "raise SystemExit(main(sys.argv[1:]))",
         "serve", "--root", str(root), "--port", str(port),
         "--checkpoint-interval", "600"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestKillNineRecovery:
    def test_sigkill_midstream_then_wal_replay_matches(self, tmp_path):
        source = {"source": "churn", "scale": 0.15, "steps": 4, "seed": 3}
        base, deltas = make_stream(**source)
        half = len(deltas) // 2

        # uninterrupted reference, in-process (same spec and seed)
        ref = repro.open_session(
            base, 4, policy=FlushPolicy(**PER_DELTA), seed=0,
            lp_backend="revised",
        )
        for d in deltas:
            ref.push(d)
        ref.repartition()

        root = tmp_path / "root"
        port = _free_port()
        srv = _spawn_server(root, port)
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                svc.create(
                    "s", partitions=4, source=source, seed=0,
                    policy=dict(PER_DELTA), config={"lp_backend": "revised"},
                )
                for d in deltas[:half]:
                    svc.push("s", d)
        finally:
            os.kill(srv.pid, signal.SIGKILL)
            srv.wait(timeout=60)

        port = _free_port()
        srv = _spawn_server(root, port)
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                info = svc.open("s")
                assert info["num_pushed"] == half  # nothing acked was lost
                for d in deltas[half:]:
                    svc.push("s", d)
                svc.repartition("s")
                out = svc.query("s", labels=True)
                stats = svc.stats()
                svc.shutdown()
        finally:
            srv.wait(timeout=60)

        assert stats["counters"]["wal_replayed"] == half
        assert np.array_equal(out["labels"], ref.part)
        assert [h["lp_pivots"] for h in out["history"]] == [
            s.lp_pivots for s in ref.history()
        ]


class TestShardedOverWire:
    def test_sharded_session_served_and_evicted_transparently(self, tmp_path):
        """Satellite: v2 directory-snapshot (sharded) sessions go through
        the same wire surface, and shard residency limits are invisible
        to clients."""
        from repro.graph.sharded import ShardedCSRGraph

        base, deltas = make_stream(**CHURN)
        manager = SessionManager(tmp_path / "root", fsync=False)
        srv = PartitionServer(manager, port=0)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(srv.start(), loop).result(30)
        serve = asyncio.run_coroutine_threadsafe(srv.serve_until_shutdown(), loop)
        try:
            with client_for(srv) as svc:
                info = svc.create(
                    "sh", partitions=4, source=dict(CHURN), seed=0,
                    shards=3, policy=dict(PER_DELTA),
                    config={"lp_backend": "revised"},
                )
                assert info["num_vertices"] == base.num_vertices
                for d in deltas[:3]:
                    svc.push("sh", d)
                out = svc.query("sh", labels=True)
                stats = svc.stats()
                assert stats["sessions"]["sh"]["shards"] == 3
                # survives a close/open cycle (snapshot is the v2
                # directory layout)
                svc.close_session("sh")
                assert svc.open("sh")["num_pushed"] == 3
                assert np.array_equal(svc.query("sh", labels=True)["labels"],
                                      out["labels"])
        finally:
            loop.call_soon_threadsafe(srv._stop.set)
            serve.result(30)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)

        # same stream over the same sharded build, in process
        ref = repro.open_session(
            ShardedCSRGraph.from_csr(base, 3), 4,
            policy=FlushPolicy(**PER_DELTA), seed=0, lp_backend="revised",
        )
        for d in deltas[:3]:
            ref.push(d)
        assert np.array_equal(out["labels"], ref.part)


class TestGracefulShutdown:
    def test_sigterm_checkpoints_and_exits_zero(self, tmp_path):
        """Satellite: SIGTERM is graceful — the server drains, dirty
        sessions checkpoint, the process exits 0, and the restart has
        nothing to replay (contrast SIGKILL above, which replays)."""
        source = {"source": "churn", "scale": 0.15, "steps": 4, "seed": 3}
        _, deltas = make_stream(**source)
        root = tmp_path / "root"
        port = _free_port()
        srv = _spawn_server(root, port)
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                svc.create(
                    "s", partitions=4, source=source, seed=0,
                    policy=dict(PER_DELTA), config={"lp_backend": "revised"},
                )
                for d in deltas[:2]:
                    svc.push("s", d)
        finally:
            srv.send_signal(signal.SIGTERM)
        assert srv.wait(timeout=60) == 0

        port = _free_port()
        srv = _spawn_server(root, port)
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                info = svc.open("s")
                assert info["num_pushed"] == 2
                assert svc.stats()["counters"]["wal_replayed"] == 0
                svc.shutdown()
        finally:
            assert srv.wait(timeout=60) == 0


class TestRecoveryRefusesSilentLoss:
    """An unreadable/missing snapshot is only survivable when the WAL
    still covers the whole history; anything else must refuse loudly
    rather than serve a session missing acknowledged operations."""

    def _checkpointed_then_pushed(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec())
        mgr.push("s", [deltas[0]])
        mgr.save("s")  # checkpoint truncates the WAL past seq 1
        mgr.push("s", [deltas[1]])  # lives only in the WAL tail
        mgr.drop_resident("s")
        return tmp_path / "s"

    def test_corrupt_snapshot_after_checkpoint_refuses(self, tmp_path):
        from repro.errors import SnapshotError

        sdir = self._checkpointed_then_pushed(tmp_path)
        (sdir / "snapshot.igps").write_bytes(b"bitrot")
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(SnapshotError, match="refusing"):
            mgr.open("s")

    def test_missing_snapshot_after_checkpoint_refuses(self, tmp_path):
        from repro.errors import SnapshotError

        sdir = self._checkpointed_then_pushed(tmp_path)
        (sdir / "snapshot.igps").unlink()
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(SnapshotError, match="cannot be reconstructed"):
            mgr.open("s")

    def test_corrupt_snapshot_with_full_wal_rebuilds_exactly(self, tmp_path):
        _, deltas = make_stream(**CHURN)
        mgr = SessionManager(tmp_path, fsync=False)
        mgr.create("s", churn_spec())
        for d in deltas[:2]:  # never checkpointed after create
            mgr.push("s", [d])
        before = mgr.query("s", labels=True)
        mgr.drop_resident("s")
        (tmp_path / "s" / "snapshot.igps").write_bytes(b"bitrot")

        mgr2 = SessionManager(tmp_path, fsync=False)
        after = mgr2.query("s", labels=True)
        assert np.array_equal(
            protocol.arrays_from_wire(after["labels"])["part"],
            protocol.arrays_from_wire(before["labels"])["part"],
        )


class TestCreateFailureCleanup:
    def test_failed_create_leaves_name_reusable(self, tmp_path):
        mgr = SessionManager(tmp_path, fsync=False)
        with pytest.raises(ServiceError) as ei:
            mgr.create("web", churn_spec(config={"bogus_key": 1}))
        assert ei.value.code == "bad-request"
        assert not (tmp_path / "web" / "meta.json").exists()
        # the retry with a fixed spec must succeed, not hit session-exists
        info = mgr.create("web", churn_spec())
        assert info["name"] == "web"
