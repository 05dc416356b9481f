"""The observability HTTP server: endpoints, SSE framing, shutdown."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.obs.bus import BUS_CAPACITY_ENV
from repro.obs.context import RunContext, current
from repro.obs.export import validate_prometheus_text
from repro.obs.registry import RunRegistry
from repro.obs.server import ObservabilityServer
from repro.obs.top import sse_events


@pytest.fixture
def server():
    """A server over the test's current run context."""
    srv = ObservabilityServer(port=0).start()
    yield srv
    srv.stop()


@pytest.fixture
def store_server(tmp_path):
    """A server over a run whose artifact store is a directory."""
    srv = ObservabilityServer(
        port=0, context=RunContext(store_dir=tmp_path / "store")
    ).start()
    yield srv
    srv.stop()


def _get(server, path, timeout=10, headers=None):
    request = urllib.request.Request(server.url + path)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, response.read().decode()


def _get_json(server, path, **kw):
    status, body = _get(server, path, **kw)
    return status, json.loads(body)


class TestHealthz:
    def test_reports_liveness(self, server):
        status, body = _get_json(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"]
        assert body["uptime_seconds"] >= 0
        assert body["bus"]["ring_capacity"] > 0

    def test_unknown_route_is_404_with_route_list(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/nope")
        assert err.value.code == 404
        assert "/healthz" in json.loads(err.value.read().decode())["routes"]


class TestMetrics:
    def test_page_passes_the_exposition_grammar(self, server):
        current().metrics.inc("projects.mined", 3)
        current().metrics.observe("stage.seconds", 0.5)
        status, page = _get(server, "/metrics")
        assert status == 200
        assert validate_prometheus_text(page) == []
        assert "repro_projects_mined_total 3" in page

    def test_bus_drop_counter_is_exposed(self, server):
        bus = current().bus
        sub = bus.subscribe(capacity=2)
        for n in range(6):
            bus.publish("span", {"n": n})
        _, page = _get(server, "/metrics")
        assert "repro_bus_dropped_total 4" in page
        assert "repro_bus_published_total 6" in page
        sub.close()

    def test_server_counters_never_touch_the_global_registry(self, server):
        _get(server, "/healthz")
        _get(server, "/metrics")
        snapshot = current().metrics.snapshot().as_dict()
        assert not any(
            name.startswith(("bus.", "server."))
            for name in snapshot["counters"]
        )


class TestEvents:
    def test_sse_framing_ids_and_kinds(self, server):
        bus = current().bus
        for n in range(4):
            bus.publish("progress", {"done": n})
        status, body = _get(server, "/events?limit=4")
        assert status == 200
        lines = body.splitlines()
        assert lines[0] == "id: 1"
        assert lines[1] == "event: progress"
        assert lines[2].startswith("data: ")
        envelopes = list(sse_events(body.splitlines(keepends=True)))
        assert [e["id"] for e in envelopes] == [1, 2, 3, 4]
        assert all(e["kind"] == "progress" for e in envelopes)
        assert [e["data"]["done"] for e in envelopes] == [0, 1, 2, 3]

    def test_last_event_id_replays_the_same_ordered_sequence(self, server):
        bus = current().bus
        for n in range(6):
            bus.publish("span", {"n": n})
        _, from_start = _get(server, "/events?limit=6")
        full = [e["id"] for e in sse_events(from_start.splitlines(True))]
        assert full == [1, 2, 3, 4, 5, 6]
        # a reconnect with Last-Event-ID resumes exactly after the id
        _, resumed = _get(
            server, "/events?limit=3", headers={"Last-Event-ID": "3"}
        )
        tail = [e["id"] for e in sse_events(resumed.splitlines(True))]
        assert tail == full[3:]

    def test_replay_is_bounded_by_the_ring(self, monkeypatch):
        monkeypatch.setenv(BUS_CAPACITY_ENV, "4")
        srv = ObservabilityServer(port=0, context=RunContext()).start()
        bus = srv.context.bus
        try:
            for n in range(10):
                bus.publish("span", {"n": n})
            _, body = _get(srv, "/events?limit=10")
            ids = [e["id"] for e in sse_events(body.splitlines(True))]
            # the documented horizon: only the last `capacity` replay
            assert ids == [7, 8, 9, 10]
        finally:
            srv.stop()

    def test_keepalive_comments_flow_while_idle(self, server, monkeypatch):
        import repro.obs.server as server_mod

        monkeypatch.setattr(server_mod, "SSE_KEEPALIVE_SECONDS", 0.05)
        request = urllib.request.Request(server.url + "/events")
        with urllib.request.urlopen(request, timeout=10) as response:
            line = response.readline()
            while line.strip() == b"":
                line = response.readline()
            assert line.strip() == b": keepalive"

    def test_live_publish_reaches_an_open_stream(self, server):
        bus = current().bus
        request = urllib.request.Request(server.url + "/events?limit=1")
        with urllib.request.urlopen(request, timeout=10) as response:
            bus.publish("warning", {"code": "late"})
            body = response.read().decode()
        (envelope,) = sse_events(body.splitlines(True))
        assert envelope["kind"] == "warning"
        assert envelope["data"]["code"] == "late"
        assert server.events_served == 1


class TestRuns:
    def test_404_without_a_directory_store(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/runs")
        assert err.value.code == 404

    def test_lists_registry_records(self, tmp_path, store_server):
        server = store_server
        registry = RunRegistry(tmp_path / "store")
        registry.append({"run_id": "abc123", "stages": {"total": 1.0}})
        registry.append({"run_id": "def456", "stages": {"total": 2.0}})
        _, body = _get_json(server, "/runs")
        assert body["count"] == 2
        assert [r["run_id"] for r in body["records"]] == [
            "abc123", "def456",
        ]
        _, tail = _get_json(server, "/runs?limit=1")
        assert [r["run_id"] for r in tail["records"]] == ["def456"]

    def test_fetch_one_run_by_prefix(self, tmp_path, store_server):
        server = store_server
        registry = RunRegistry(tmp_path / "store")
        registry.append({"run_id": "abc123", "stages": {}})
        _, record = _get_json(server, "/runs/abc")
        assert record["run_id"] == "abc123"
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server, "/runs/zzz")
        assert err.value.code == 404


class TestStatus:
    def test_without_a_pipeline_factory(self, server):
        _, body = _get_json(server, "/status")
        assert body["stages"] == []
        assert "error" in body

    def test_stage_states_via_provenance(self, tmp_path):
        from repro.pipeline.graph import Pipeline

        context = RunContext(store_dir=tmp_path / "store")
        srv = ObservabilityServer(
            port=0,
            context=context,
            pipeline_factory=lambda: Pipeline(
                seed=77, scale=32, context=context
            ),
        ).start()
        try:
            _, cold = _get_json(srv, "/status")
            states = {row["stage"]: row["state"] for row in cold["stages"]}
            assert states["generate"] == "cold"
            assert states["report"] == "cold"
            Pipeline(seed=77, scale=32, context=context).study()
            _, warm = _get_json(srv, "/status")
            states = {row["stage"]: row["state"] for row in warm["stages"]}
            # study() materialises everything but the rendered report
            assert states.pop("report") == "cold"
            assert set(states.values()) == {"warm"}
            assert warm["drift"] == []
            assert warm["store"]["kind"] == "dir"
        finally:
            srv.stop()


class TestLifecycle:
    def test_ephemeral_port_resolves_and_summary_counts(self, server):
        assert server.port > 0
        assert str(server.port) in server.url
        _get(server, "/healthz")
        _get(server, "/healthz")
        summary = server.summary()
        assert summary["requests"] == 2
        assert summary["paths"] == {"/healthz": 2}
        assert summary["url"] == server.url

    def test_clean_shutdown_refuses_new_connections(self):
        srv = ObservabilityServer(port=0).start()
        port = srv.port
        _get(srv, "/healthz")
        srv.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)

    def test_stop_is_idempotent(self):
        srv = ObservabilityServer(port=0).start()
        srv.stop()
        srv.stop()

    def test_concurrent_stop_and_linger_wait(self):
        import threading

        srv = ObservabilityServer(port=0).start()
        waiter = threading.Thread(target=srv.wait, daemon=True)
        waiter.start()
        # wait() calls stop() on wake; racing it against a direct
        # stop() must not blow up on a half-torn-down httpd
        srv.stop()
        waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_forked_worker_hygiene_closes_inherited_sockets(self):
        from repro.obs.server import close_inherited_sockets

        srv = ObservabilityServer(port=0).start()
        try:
            # in a forked pool worker this module state is a fork-time
            # copy; calling the hook there closes the inherited fd
            assert close_inherited_sockets() == 1
        finally:
            srv.stop()
        assert close_inherited_sockets() == 0
