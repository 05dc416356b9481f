"""One run's telemetry and storage: the :class:`RunContext`.

A run records into exactly one context.  The context owns the run's
span tracer, warning recorder, metrics registry, telemetry bus,
progress channel, parse cache and artifact store, next to the run's
outputs (``--trace``, ``--log-json``, ``--manifest``, ``--progress``)
and the facts its manifest reports.  Nothing carries from one run into
the next: two pipelines with two contexts share no counter, warning,
span or bus sink, whatever ran before them in the process.

The context is passed explicitly at the boundaries: ``cli.main``
builds one per command, :class:`~repro.pipeline.graph.Pipeline` takes
one (``context=``) and the observability server reads one.  Leaf call
sites — :func:`~repro.obs.events.warn`, the diff timer, the parse
cache, the generator's span — read :func:`current`, the one pointer a
running pipeline sets to its own context.  A pool worker gets a fresh
context with no sinks from ``worker_init``, and whether it traces
rides on each task it is sent, so one warm pool serves traced and
untraced runs alike.

The parse cache is memory-only.  The artifact store, the one layer that
can outlive the run (``store_dir``), is built on first use, so a
command that never runs a pipeline creates no directory.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

from .bus import TelemetryBus
from .events import EventLog, EventRecorder, resource_event, run_event
from .metrics import MetricsRegistry
from .progress import ProgressChannel
from .trace import Tracer, write_trace

#: The bus kinds the ``--log-json`` event log records; bus-only kinds
#: (artifact probes, metrics snapshots) never change the log's bytes.
EVENT_LOG_KINDS = ("span", "warning", "progress", "resource", "run")


class RunContext:
    """Everything one run records into, and where it writes it.

    Build it before the run (tracing starts, the event log opens),
    fill in the run facts as the command executes (``context.study =
    ...``), then call :meth:`finalize` to write the trace file and
    manifest, publish the closing run marker and close the event log.

    ``store_dir`` is taken as given — ``None`` means a memory store;
    :meth:`from_env` fills it from ``REPRO_STORE_DIR`` instead.
    """

    def __init__(
        self,
        *,
        command: str = "",
        trace_path: str | Path | None = None,
        log_path: str | Path | None = None,
        manifest_path: str | Path | None = None,
        progress: bool = False,
        store_dir: str | Path | None = None,
    ):
        self.command = command
        self.trace_path = Path(trace_path) if trace_path else None
        self.log_path = Path(log_path) if log_path else None
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.store_dir = store_dir
        self.bus = TelemetryBus()
        self.metrics = MetricsRegistry()
        self.recorder = EventRecorder(self.metrics, self.bus)
        self.tracer = Tracer(enabled=bool(trace_path or log_path))
        self.progress = ProgressChannel(self.bus)
        if progress:
            self.progress.stream = sys.stderr
        # run facts, filled in by the command as it executes
        self.seed: int | None = None
        self.jobs: int | None = None
        self.dialect: str | None = None
        self.study = None
        self.corpus_size: int | None = None
        #: The attached observability server (``--serve``), if any —
        #: finalize records its summary in the manifest ``server`` block.
        self.server = None
        #: The built manifest document (set by finalize when
        #: ``--manifest`` was given) — the registry append reuses it
        #: for the record's manifest digest.
        self.manifest_document: dict | None = None
        self.finalized = False
        self.event_log: EventLog | None = None
        if self.log_path:
            # span closes, warnings, heartbeats, resource samples and
            # the run marker all travel the bus; the event log is one
            # of its sinks
            self.event_log = EventLog(self.log_path)
            self.tracer.bus = self.bus
            self.bus.add_sink(self._emit_envelope, kinds=EVENT_LOG_KINDS)

    @classmethod
    def from_env(cls, *, store_dir=None, **options):
        """A context whose unset store directory comes from the environment."""
        from ..pipeline.store import STORE_DIR_ENV

        return cls(
            store_dir=store_dir or os.environ.get(STORE_DIR_ENV) or None,
            **options,
        )

    # -- the lazily built layers ---------------------------------------
    @cached_property
    def cache(self):
        """The run's parse cache (memory only, one history at a time)."""
        from ..perf.cache import ParseCache

        return ParseCache()

    @cached_property
    def store(self):
        """The run's artifact store (a ``DirStore`` under ``store_dir``).

        Built inside the context, so a degraded directory's warning
        lands in this run's recorder (and manifest) whoever asks first.
        """
        from ..pipeline.store import DirStore, MemoryStore

        with self.active():
            if self.store_dir:
                return DirStore(self.store_dir)
            return MemoryStore()

    @property
    def built_store(self):
        """The run's artifact store if the run built it, else ``None``.

        Reading :attr:`store` builds the store (a ``DirStore`` creates
        its directory); code that only describes the run asks here.
        """
        return self.__dict__.get("store")

    # -- the current-context pointer -----------------------------------
    @contextmanager
    def active(self):
        """Make this the :func:`current` context for a block."""
        previous = activate(self)
        try:
            yield self
        finally:
            activate(previous)

    # -- outputs -------------------------------------------------------
    def _emit_envelope(self, envelope: dict) -> None:
        self.event_log.emit(envelope["data"])

    def finalize(self, status: str = "ok") -> None:
        """Write the requested artifacts and close the event log."""
        if self.finalized:
            return
        self.finalized = True
        if self.trace_path:
            write_trace(self.tracer, self.trace_path)
        if self.manifest_path:
            from .manifest import build_manifest, write_manifest

            self.manifest_document = build_manifest(
                command=self.command,
                status=status,
                seed=self.seed,
                jobs=self.jobs,
                dialect=self.dialect,
                study=self.study,
                corpus_size=self.corpus_size,
                warnings=self.recorder.warnings,
                outputs={"trace": self.trace_path, "events": self.log_path},
                server=(
                    self.server.summary() if self.server is not None
                    else None
                ),
                context=self,
            )
            write_manifest(self.manifest_document, self.manifest_path)
        self.progress.close_line()
        # the closing records ride the bus so live SSE consumers see
        # the run end even when no --log-json file is open
        if self.study is not None:
            resources = self.study.timings.resources
            for scope in sorted(resources):
                self.bus.publish(
                    "resource", resource_event(scope, resources[scope])
                )
        self.bus.publish("run", run_event(self.command, status))
        if self.event_log is not None:
            self.bus.remove_sink(self._emit_envelope)
            self.event_log.close()


_current: RunContext | None = None


def current() -> RunContext:
    """The context leaf call sites record into.

    The first call outside any run builds a default context from the
    environment (:meth:`RunContext.from_env`).
    """
    global _current
    if _current is None:
        _current = RunContext.from_env()
    return _current


def activate(context: RunContext | None) -> RunContext | None:
    """Point :func:`current` at ``context``; returns the one it replaces."""
    global _current
    previous, _current = _current, context
    return previous
