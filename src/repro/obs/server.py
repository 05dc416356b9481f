"""The live observability endpoint: HTTP over the telemetry bus.

``repro study --serve`` (and the standalone ``repro obs serve``) binds a
stdlib-only :class:`~http.server.ThreadingHTTPServer` next to the run
and exposes what the telemetry bus, the metrics registry, the artifact
store and the run registry already know:

========================  =============================================
``GET /healthz``          liveness: status, version, uptime, pid
``GET /metrics``          Prometheus text exposition of the live
                          metrics snapshot, plus the bus and server
                          counters (``repro_bus_dropped_total`` is the
                          slow-consumer drop total)
``GET /events``           Server-Sent Events over the bus: one frame
                          per envelope (``id:`` = bus id, ``event:`` =
                          kind, ``data:`` = the record), ``: keepalive``
                          comments while idle, ``Last-Event-ID`` (or
                          ``?last_id=N``) replay from the ring buffer,
                          ``?limit=N`` to close after N events
``GET /runs``             the store's run-history registry (JSON array;
                          ``?limit=N`` for the tail)
``GET /runs/<id>``        one record by ``run_id`` or manifest-digest
                          prefix
``GET /status``           pipeline stage table: warm/stale/cold per
                          stage via the provenance module, plus shard
                          totals and version drift
========================  =============================================

The server is an *observer* of one run's
:class:`~repro.obs.context.RunContext`: every handler reads that run's
live state (bus ring, metrics snapshot, store keys) without mutating
any of it, and its own counters live on the server object — never in
the run's metrics registry — so a served run's artifacts stay
byte-identical to an unserved one.  ``/metrics`` merges the bus and
server counters into a *copy* of the snapshot at render time for the
same reason.

Replay horizon: ``/events`` reconnects resume exactly where they left
off as long as the requested id is still in the bus ring (the last
``REPRO_BUS_CAPACITY`` envelopes, default 1024).  Older ids replay from
the oldest retained envelope; the gap is visible in the id sequence.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .export import prometheus_text

#: Default bind host — loopback only; telemetry is not a public service.
DEFAULT_HOST = "127.0.0.1"

#: Seconds between ``: keepalive`` comments on an idle SSE stream.
SSE_KEEPALIVE_SECONDS = 5.0

#: Live servers in this process, for post-fork socket hygiene.
_active_servers: "weakref.WeakSet[ObservabilityServer]" = weakref.WeakSet()


def close_inherited_sockets() -> int:
    """Close listening sockets a forked worker inherited; returns count.

    A pool worker forked while ``--serve`` is listening shares the
    server's socket fd with the driver.  Unless the worker closes its
    copy, the kernel keeps completing TCP handshakes on the port after
    the driver's ``server_close()`` — the port never reads as released.
    Called from the pool's ``worker_init`` (in the child, where this
    module's state is a fork-time copy of the driver's).
    """
    closed = 0
    for server in list(_active_servers):
        httpd = server._httpd
        if httpd is not None:
            try:
                httpd.socket.close()
            except OSError:
                pass
            closed += 1
    return closed


def _parse_last_id(headers, query: dict) -> int:
    """The SSE resume point: ``Last-Event-ID`` header or ``?last_id=``."""
    raw = headers.get("Last-Event-ID")
    if raw is None:
        raw = (query.get("last_id") or [None])[0]
    try:
        return max(0, int(raw)) if raw is not None else 0
    except ValueError:
        return 0


def _parse_limit(query: dict) -> int | None:
    raw = (query.get("limit") or [None])[0]
    try:
        value = int(raw) if raw is not None else None
    except ValueError:
        return None
    return value if value and value > 0 else None


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.owner``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-obs"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the server is quiet; counters replace the access log

    def _send_json(self, payload, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2, default=str) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, content_type: str) -> None:
        body = text.encode()
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        owner = self.server.owner
        owner.count_request(self.path)
        url = urlparse(self.path)
        query = parse_qs(url.query)
        route = url.path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                self._send_json(owner.health())
            elif route == "/metrics":
                self._send_text(
                    owner.metrics_page(), "text/plain; version=0.0.4"
                )
            elif route == "/events":
                self._serve_events(owner, query)
            elif route == "/runs":
                self._serve_runs(owner, query)
            elif route.startswith("/runs/"):
                self._serve_run(owner, route[len("/runs/"):])
            elif route == "/status":
                self._send_json(owner.pipeline_status())
            else:
                self._send_json(
                    {"error": f"no route {url.path!r}", "routes": [
                        "/healthz", "/metrics", "/events", "/runs",
                        "/runs/<id>", "/status",
                    ]},
                    status=404,
                )
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to clean up
        except Exception as exc:  # never take the server down
            try:
                self._send_json(
                    {"error": f"{type(exc).__name__}: {exc}"}, status=500
                )
            except (BrokenPipeError, OSError):
                pass

    # -- endpoint bodies -----------------------------------------------
    def _serve_runs(self, owner: "ObservabilityServer", query) -> None:
        registry = owner.registry()
        if registry is None:
            self._send_json(
                {"error": "no directory store — no run history"},
                status=404,
            )
            return
        records = registry.records(limit=_parse_limit(query))
        self._send_json({
            "registry": str(registry.path),
            "count": len(records),
            "records": records,
        })

    def _serve_run(self, owner: "ObservabilityServer", ref: str) -> None:
        registry = owner.registry()
        if registry is None:
            self._send_json(
                {"error": "no directory store — no run history"},
                status=404,
            )
            return
        matches = [
            record for record in registry.records()
            if str(record.get("run_id", "")).startswith(ref)
            or str(record.get("manifest_digest") or "").startswith(ref)
        ]
        if not matches:
            self._send_json({"error": f"no run matching {ref!r}"},
                            status=404)
        elif len(matches) > 1:
            self._send_json(
                {
                    "error": f"{len(matches)} runs match {ref!r}",
                    "run_ids": [r.get("run_id") for r in matches],
                },
                status=300,
            )
        else:
            self._send_json(matches[0])

    def _serve_events(self, owner: "ObservabilityServer", query) -> None:
        bus = owner.context.bus
        last_id = _parse_last_id(self.headers, query)
        limit = _parse_limit(query)
        subscription = bus.subscribe(last_id=last_id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        served = 0
        try:
            while not owner.stopping.is_set():
                envelope = subscription.get(timeout=SSE_KEEPALIVE_SECONDS)
                if envelope is None:
                    if limit is not None:
                        break  # bounded reads end at a quiet bus
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                frame = (
                    f"id: {envelope['id']}\n"
                    f"event: {envelope['kind']}\n"
                    f"data: {json.dumps(envelope, default=str)}\n\n"
                )
                self.wfile.write(frame.encode())
                self.wfile.flush()
                served += 1
                owner.count_events(1)
                if limit is not None and served >= limit:
                    break
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # disconnects are the normal end of an SSE stream
        finally:
            subscription.close()


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Back-reference set by :class:`ObservabilityServer`.
    owner: "ObservabilityServer"


class ObservabilityServer:
    """Owns the HTTP server thread and the run-facing summary counters.

    ``pipeline_factory`` is a zero-argument callable returning the
    :class:`~repro.pipeline.graph.Pipeline` whose stage table
    ``/status`` reports — built lazily on first request and cached, so
    an unvisited endpoint costs nothing.
    """

    def __init__(
        self,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        context=None,
        pipeline_factory=None,
    ):
        from .context import current

        self.host = host
        #: The run this server observes (default: the current one).
        self.context = context if context is not None else current()
        self.requested_port = port
        self.pipeline_factory = pipeline_factory
        self.started_at: float | None = None
        self.stopping = threading.Event()
        self.requests = 0
        self.events_served = 0
        self.paths: dict[str, int] = {}
        self._lock = threading.Lock()
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None
        self._pipeline = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ObservabilityServer":
        """Bind and serve on a daemon thread; returns self."""
        self._httpd = _Server((self.host, self.requested_port), _Handler)
        self._httpd.owner = self
        _active_servers.add(self)
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, wake SSE loops, join the accept thread.

        Safe to call twice and from two threads at once — the
        ``--serve-linger`` wait() and a programmatic stop() can race,
        so exactly one caller claims the httpd under the lock.
        """
        with self._lock:
            httpd = self._httpd
            thread = self._thread
            self._httpd = None
            self._thread = None
        _active_servers.discard(self)
        self.stopping.set()
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def wait(self) -> None:
        """Block until interrupted (the ``--serve-linger`` foreground)."""
        try:
            while not self.stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral pick)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- counters (server-local; never the run's registry) ------------
    def count_request(self, path: str) -> None:
        with self._lock:
            self.requests += 1
            route = urlparse(path).path.rstrip("/") or "/"
            self.paths[route] = self.paths.get(route, 0) + 1

    def count_events(self, n: int) -> None:
        with self._lock:
            self.events_served += n

    # -- endpoint state ------------------------------------------------
    def health(self) -> dict:
        from .. import __version__

        return {
            "status": "ok",
            "version": __version__,
            "pid": os.getpid(),
            "started_at": round(self.started_at or 0.0, 3),
            "uptime_seconds": round(
                time.time() - (self.started_at or time.time()), 3
            ),
            "bus": self.context.bus.stats(),
        }

    def metrics_page(self) -> str:
        """The live snapshot plus bus/server counters, rendered.

        The merge happens on a *copy* of the snapshot dict: the run's
        registry never sees a bus or server counter, which is what
        keeps a served run's manifest metrics identical to an unserved
        run's.
        """
        snapshot = self.context.metrics.snapshot().as_dict()
        stats = self.context.bus.stats()
        counters = dict(snapshot.get("counters", {}))
        counters["bus.published"] = stats["published"]
        counters["bus.dropped"] = stats["dropped"]
        with self._lock:
            counters["server.requests"] = self.requests
            counters["server.events_served"] = self.events_served
        gauges = dict(snapshot.get("gauges", {}))
        gauges["bus.subscribers"] = stats["subscribers"]
        gauges["bus.ring_size"] = stats["ring_size"]
        gauges["bus.ring_capacity"] = stats["ring_capacity"]
        return prometheus_text({
            **snapshot, "counters": counters, "gauges": gauges,
        })

    def registry(self):
        from .registry import registry_for_store

        return registry_for_store(self.context.store)

    def _get_pipeline(self):
        if self._pipeline is None and self.pipeline_factory is not None:
            self._pipeline = self.pipeline_factory()
        return self._pipeline

    def pipeline_status(self) -> dict:
        """The ``/status`` document: stage rows + provenance states.

        Reduce stages are classified warm/stale/cold through
        :func:`~repro.obs.provenance.explain_target` (one record each);
        map stages report their shard warm/total split from the status
        row — explaining every shard would scan the store per shard,
        which an HTTP endpoint should not do by default.
        """
        pipe = self._get_pipeline()
        if pipe is None:
            return {"error": "no pipeline configured for /status",
                    "stages": []}
        from ..pipeline.stages import STAGES

        rows = pipe.status()
        drift = pipe.version_drift()
        drifted = {entry["stage"] for entry in drift}
        stages = []
        for row in rows:
            entry = dict(row)
            if STAGES[row["stage"]].kind == "map":
                if row["warm"]:
                    entry["state"] = "warm"
                elif row["warm_shards"]:
                    entry["state"] = "partial"
                else:
                    entry["state"] = "cold"
            else:
                if row["warm"]:
                    entry["state"] = "warm"
                else:
                    record = pipe.explain(row["stage"])[0]
                    entry["state"] = record["state"]
                    entry["causes"] = [
                        cause["label"] for cause in record["causes"]
                    ]
            if row["stage"] in drifted:
                entry["source_drift"] = True
            stages.append(entry)
        store = pipe.store
        return {
            "store": {
                "kind": store.kind,
                "dir": str(getattr(store, "root", None) or "") or None,
            },
            "seed": pipe.seed,
            "scale": pipe.scale,
            "stages": stages,
            "drift": drift,
        }

    # -- the manifest block --------------------------------------------
    def summary(self) -> dict:
        """The ``server`` block recorded in a served run's manifest."""
        with self._lock:
            return {
                "url": self.url,
                "started_at": round(self.started_at or 0.0, 3),
                "requests": self.requests,
                "events_served": self.events_served,
                "paths": dict(sorted(self.paths.items())),
                "bus": self.context.bus.stats(),
            }
