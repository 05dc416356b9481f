"""Serving is observation only: a --serve run changes no artifact.

The contract the whole observability layer hangs on: a study run with
the HTTP server attached (and a live SSE-style subscriber draining the
bus) produces a byte-identical measures CSV, an equivalent event log
(same records modulo wall-clock fields), the same artifact-store keys,
and the same manifest modulo the new ``server`` block — serial and
with ``--jobs 4``.  ``--serve 0 --serve-linger`` keeps the endpoints up
over the finished run until the server is stopped, then releases the
port.
"""

import contextlib
import io
import json
import socket
import threading
import time
import urllib.request

import pytest

import repro.cli as cli
from repro.cli import main
from repro.obs import server as server_mod
from repro.obs.export import validate_prometheus_text

SEED_ARGS = ["--seed", "77", "--scale", "32"]

#: Wall-clock / scheduling fields stripped before event comparison.
VOLATILE_EVENT_FIELDS = (
    "ts", "seconds", "eta_seconds", "slowest", "peak_rss_bytes",
    "cpu_seconds",
)


@pytest.fixture(autouse=True)
def _heartbeat_on_every_completion(monkeypatch):
    # deterministic heartbeat count
    monkeypatch.setenv("REPRO_PROGRESS_INTERVAL", "0")


def _run(tmp_path, tag, *, jobs, serve, monkeypatch):
    out = tmp_path / tag
    out.mkdir()
    argv = [
        "study", "--figure", "headline", *SEED_ARGS,
        "--jobs", str(jobs),
        "--store-dir", str(out / "store"),
        "--csv", str(out / "measures.csv"),
        "--log-json", str(out / "events.jsonl"),
        "--manifest", str(out / "manifest.json"),
    ]
    subscriptions = []
    if serve:
        argv += ["--serve", "0"]
        # a live consumer on the run's bus makes the gated publishes
        # (artifact probes, metrics snapshots) actually fire — the
        # worst case for log/artifact identity
        build_context = cli._run_context

        def subscribed_context(args):
            context = build_context(args)
            subscriptions.append(context.bus.subscribe(capacity=100_000))
            return context

        monkeypatch.setattr(cli, "_run_context", subscribed_context)
    assert main(argv) == 0
    drained = []
    for subscription in subscriptions:
        drained += subscription.drain()
        subscription.close()
    return out, drained


def _normalized_events(path):
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        for field in VOLATILE_EVENT_FIELDS:
            record.pop(field, None)
        attributes = record.get("attributes")
        if attributes:
            attributes.pop("worker", None)  # pool pids vary per run
        records.append(record)
    return records


def _normalized_manifest(path):
    manifest = json.loads(path.read_text())
    for field in ("created_at", "timings", "outputs", "server"):
        manifest.pop(field, None)
    store = manifest.get("store") or {}
    store.pop("dir", None)
    store.pop("env", None)
    metrics = manifest.get("metrics") or {}
    metrics.pop("histograms", None)  # carry observed seconds
    metrics.pop("gauges", None)
    counters = metrics.get("counters") or {}
    # the parse-cache hit/miss *split* depends on which worker mined
    # which project (fragment reuse is per-worker); the totals are
    # scheduling-invariant, so compare those
    for prefix in ("", "statement_", "unit_"):
        hits = counters.pop(f"parse_cache.{prefix}hits", 0)
        misses = counters.pop(f"parse_cache.{prefix}misses", 0)
        counters[f"parse_cache.{prefix}lookups"] = hits + misses
    return manifest


def _store_keys(out):
    return sorted(
        p.name for p in (out / "store").glob("objects/*/*")
    )


def _compare(tmp_path, monkeypatch, *, jobs, ordered):
    unserved, _ = _run(tmp_path, f"unserved-{jobs}", jobs=jobs,
                       serve=False, monkeypatch=monkeypatch)
    served, drained = _run(tmp_path, f"served-{jobs}", jobs=jobs,
                           serve=True, monkeypatch=monkeypatch)

    # the subscriber saw the run, including the bus-only kinds
    kinds = {envelope["kind"] for envelope in drained}
    assert "progress" in kinds
    assert "artifact" in kinds
    assert "metrics" in kinds
    assert "run" in kinds

    # results: byte identity
    assert (
        (served / "measures.csv").read_bytes()
        == (unserved / "measures.csv").read_bytes()
    )
    # artifact store: same content-addressed keys
    assert _store_keys(served) == _store_keys(unserved)
    # event log: same records modulo wall-clock fields (order too, on
    # the serial path; parallel completion order is scheduling-defined)
    served_events = _normalized_events(served / "events.jsonl")
    unserved_events = _normalized_events(unserved / "events.jsonl")
    if not ordered:
        key = lambda r: json.dumps(r, sort_keys=True)  # noqa: E731
        served_events = sorted(served_events, key=key)
        unserved_events = sorted(unserved_events, key=key)
    assert served_events == unserved_events
    # bus-only kinds must never leak into the JSONL log
    assert not any(
        record.get("event") in ("artifact", "metrics")
        for record in served_events
    )
    # manifest: identical modulo the server block (and wall-clock)
    served_manifest = json.loads((served / "manifest.json").read_text())
    assert served_manifest["server"]["url"].startswith("http://127.0.0.1:")
    assert (
        _normalized_manifest(served / "manifest.json")
        == _normalized_manifest(unserved / "manifest.json")
    )


class TestServedRunIsByteIdentical:
    def test_serial(self, tmp_path, monkeypatch):
        _compare(tmp_path, monkeypatch, jobs=1, ordered=True)

    def test_jobs_4(self, tmp_path, monkeypatch):
        _compare(tmp_path, monkeypatch, jobs=4, ordered=False)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read().decode()


class TestServeLinger:
    def test_lingers_over_the_finished_run_until_stopped(
        self, tmp_path, monkeypatch
    ):
        # capture the server off .start() so the probes and the final
        # stop() need not scrape the ephemeral port from stderr
        started = []
        original_start = server_mod.ObservabilityServer.start

        def capturing_start(self):
            result = original_start(self)  # publish only after the bind
            started.append(self)
            return result

        monkeypatch.setattr(
            server_mod.ObservabilityServer, "start", capturing_start
        )
        argv = [
            "study", "--figure", "headline", *SEED_ARGS,
            "--store-dir", str(tmp_path / "store"),
            "--serve", "0", "--serve-linger",
        ]
        exit_codes = []
        thread = threading.Thread(
            target=lambda: exit_codes.append(main(argv)), daemon=True
        )
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            thread.start()
            try:
                deadline = time.monotonic() + 120
                while "still serving" not in stderr.getvalue():
                    assert thread.is_alive(), stderr.getvalue()
                    assert time.monotonic() < deadline, "never lingered"
                    time.sleep(0.05)
                (srv,) = started
                url, port = srv.url, srv.port
                status = json.loads(_get(url + "/status"))
                states = {row["stage"]: row["state"]
                          for row in status["stages"]}
                assert states.pop("report") == "cold"  # study renders none
                assert set(states.values()) == {"warm"}
                assert status["drift"] == []
                assert json.loads(_get(url + "/runs"))["count"] >= 1
                page = _get(url + "/metrics")
                assert validate_prometheus_text(page) == []
                assert "repro_bus_published_total" in page
                assert "repro_server_requests_total" in page
            finally:
                for started_server in started:
                    started_server.stop()  # releases the linger wait()
                thread.join(timeout=60)
        assert not thread.is_alive()
        assert exit_codes == [0]
        assert (
            f"observability server listening on {url}" in stderr.getvalue()
        )
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5)
