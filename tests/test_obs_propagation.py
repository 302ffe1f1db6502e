"""End-to-end trace propagation across real process boundaries.

The ISSUE's acceptance flow, proven twice:

* **HTTP edge to simplex pivots** — a gateway subprocess started with
  ``REPRO_TRACE_FILE`` serves an authenticated sharded session; a push
  over HTTP yields ONE trace id shared by the ``http.request`` span,
  the service op, the WAL append, the flush, and the LP-phase spans —
  and that same id comes back to the HTTP caller as ``X-Request-Id``,
  so a client can quote the server's trace without any side channel.
  The flush span carries pivot counts and BoundaryFrame cache-hit
  attributes; the whole file exports to well-formed Chrome JSON.

* **wire propagation** — a *client-side* span's context rides the v1
  envelope's optional ``trace`` field into a ``repro-igp serve``
  subprocess: the server's ``rpc.*`` spans adopt the client's trace id
  and parent under the client's span.  Requests without the field stay
  root traces (v1 interop unchanged).
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.bench.workloads import make_stream
from repro.obs import export as obs_export
from repro.obs import get_tracer
from repro.service import protocol
from repro.service.client import ServiceClient

SRC = str(Path(__file__).resolve().parent.parent / "src")

PER_DELTA = {"weight_fraction": None, "imbalance_limit": None, "max_pending": 1}
CHURN = {"source": "churn", "scale": 0.15, "steps": 4, "seed": 3}
TOKEN = "s3cret"


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn(argv, trace_file):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_FILE"] = str(trace_file)
    return subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         "raise SystemExit(main(sys.argv[1:]))", *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _churn_deltas():
    """The session is created server-side from ``source=CHURN``; these
    are the matching stream deltas (real vertex churn, so every flush
    runs the full assign/layer/balance/move pipeline)."""
    _, deltas = make_stream(**CHURN)
    return deltas


@pytest.fixture
def client_tracing():
    """Enable the test process's own tracer, restored afterwards."""
    tracer = get_tracer()
    tracer.configure(enabled=True)
    yield tracer
    tracer.configure(enabled=False)
    tracer.clear()


def _http(port, path, *, method="GET", body=None, token=TOKEN, headers=None):
    hdrs = dict(headers or {})
    if token is not None:
        hdrs["Authorization"] = f"Bearer {token}"
    data = None
    if body is not None:
        data = json.dumps(body).encode()
        hdrs["Content-Type"] = "application/json"
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, headers=hdrs,
        method=method,
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read()), dict(resp.headers)


class TestGatewayEndToEnd:
    def test_one_trace_id_from_http_edge_to_simplex_pivots(self, tmp_path):
        trace_file = tmp_path / "gateway-trace.jsonl"
        port = _free_port()
        proc = _spawn(
            ["gateway", "--root", str(tmp_path / "root"),
             "--port", str(port), "--token", f"ops={TOKEN}",
             "--checkpoint-interval", "600"],
            trace_file,
        )
        try:
            from repro.gateway import GatewayClient

            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ) as gw:
                gw.create(
                    "s", partitions=4, source=CHURN, seed=0, shards=2,
                    policy=dict(PER_DELTA),
                    config={"lp_backend": "revised"},
                )
            # the acceptance push goes over raw HTTP so we can read the
            # response headers the gateway sets
            delta = _churn_deltas()[0]
            status, _, headers = _http(
                port, "/sessions/s/deltas", method="POST",
                body={"delta": protocol.delta_to_wire(delta)},
            )
            assert status == 200
            request_id = headers["X-Request-Id"]
            assert request_id
            _http(port, "/shutdown", method="POST")
        finally:
            assert proc.wait(timeout=60) == 0

        rows = obs_export.read_jsonl(trace_file)
        groups = obs_export.trace_groups(rows)
        # tracing was on (env), so the gateway minted the request id
        # FROM the http.request span's trace id: the header the HTTP
        # caller saw names the server-side trace directly.
        assert request_id in groups
        trace = groups[request_id]
        names = {r["name"] for r in trace}
        assert {"http.request", "service.push", "wal.append",
                "flush", "flush.apply", "flush.repartition",
                "lp.assign", "lp.layer", "lp.balance"} <= names

        (flush,) = [r for r in trace if r["name"] == "flush"]
        attrs = flush["attrs"]
        assert attrs["pivots"] >= 0 and attrs["stages"] >= 1
        # sharded + shard-native: the BoundaryFrame cache counters land
        # on the flush span
        assert "frame_hits" in attrs and "frame_fetches" in attrs
        # ... and the apply span says what the delta rewrote
        (apply_row,) = [r for r in trace if r["name"] == "flush.apply"]
        assert 1 <= apply_row["attrs"]["touched"] <= 2
        assert apply_row["attrs"]["arcs"] > 0

        (http_row,) = [r for r in trace if r["name"] == "http.request"]
        assert http_row["attrs"]["request_id"] == request_id
        assert http_row["attrs"]["path"] == "/sessions/s/deltas"
        # parent edges all resolve within the one trace
        ids = {r["span_id"] for r in trace}
        for r in trace:
            if r["parent_id"] is not None:
                assert r["parent_id"] in ids

        # ... and the whole file exports to well-formed Chrome JSON
        events = json.loads(obs_export.chrome_json(rows))
        assert isinstance(events, list) and events
        assert all(ev["ph"] == "X" for ev in events)

    def test_client_supplied_request_id_is_echoed(self, tmp_path):
        trace_file = tmp_path / "gateway-trace.jsonl"
        port = _free_port()
        proc = _spawn(
            ["gateway", "--root", str(tmp_path / "root"),
             "--port", str(port), "--token", f"ops={TOKEN}",
             "--checkpoint-interval", "600"],
            trace_file,
        )
        try:
            from repro.gateway import GatewayClient

            with GatewayClient.connect(
                port=port, token=TOKEN, retries=300, delay=0.1
            ):
                pass
            _, _, headers = _http(
                port, "/healthz", token=None,
                headers={"X-Request-Id": "caller-chosen-77"},
            )
            assert headers["X-Request-Id"] == "caller-chosen-77"
            _http(port, "/shutdown", method="POST")
        finally:
            assert proc.wait(timeout=60) == 0
        # the echoed id is recorded on the server-side request span
        rows = obs_export.read_jsonl(trace_file)
        tagged = [r for r in rows if r["name"] == "http.request"
                  and r.get("attrs", {}).get("request_id") == "caller-chosen-77"]
        assert len(tagged) == 1


class TestWirePropagation:
    def test_client_span_context_rides_the_envelope(
        self, tmp_path, client_tracing
    ):
        trace_file = tmp_path / "server-trace.jsonl"
        port = _free_port()
        proc = _spawn(
            ["serve", "--root", str(tmp_path / "root"),
             "--port", str(port), "--checkpoint-interval", "600"],
            trace_file,
        )
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                svc.create(
                    "s", partitions=4, source=CHURN, seed=0,
                    policy=dict(PER_DELTA),
                    config={"lp_backend": "revised"},
                )
                with client_tracing.span("client.batch") as root:
                    for d in _churn_deltas()[:2]:
                        svc.push("s", d)
                svc.shutdown()
        finally:
            assert proc.wait(timeout=60) == 0

        rows = obs_export.read_jsonl(trace_file)
        adopted = [r for r in rows if r["trace_id"] == root.trace_id]
        names = {r["name"] for r in adopted}
        # the server-side spans joined the CLIENT's trace across the
        # process boundary, down to the flush and its LP phases
        assert {"rpc.push", "service.push", "wal.append",
                "flush", "lp.balance"} <= names
        rpc = [r for r in adopted if r["name"] == "rpc.push"]
        assert len(rpc) == 2
        assert all(r["parent_id"] == root.span_id for r in rpc)
        # ops sent with no client span stay root traces (v1 interop):
        # create/shutdown above ran outside the span
        others = [r for r in rows if r["name"] == "rpc.create"]
        assert others and all(
            r["trace_id"] != root.trace_id and r["parent_id"] is None
            for r in others
        )

    def test_batched_pushes_link_their_origin_contexts(
        self, tmp_path, client_tracing
    ):
        trace_file = tmp_path / "server-trace.jsonl"
        port = _free_port()
        proc = _spawn(
            ["serve", "--root", str(tmp_path / "root"),
             "--port", str(port), "--checkpoint-interval", "600"],
            trace_file,
        )
        try:
            with ServiceClient.connect(port=port, retries=300, delay=0.1) as svc:
                svc.create(
                    "s", partitions=4, source=CHURN, seed=0,
                    policy=dict(PER_DELTA),
                    config={"lp_backend": "revised"},
                )
                with client_tracing.span("client.batch") as root:
                    svc.push("s", _churn_deltas()[0])
                svc.shutdown()
        finally:
            assert proc.wait(timeout=60) == 0

        rows = obs_export.read_jsonl(trace_file)
        batches = [r for r in rows if r["name"] == "push.batch"
                   and r["trace_id"] == root.trace_id]
        assert batches
        # every micro-batch records the contexts it folded as links
        for b in batches:
            assert any(
                link["id"] == root.trace_id for link in b["links"]
            )
