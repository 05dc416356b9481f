"""Observability layer: tracing, metrics, events, exports, monitoring.

The study pipeline is a long fan-out batch job; this package makes one
run auditable end to end without changing any of its results:

* :mod:`repro.obs.trace` — a hierarchical span tracer whose per-project
  span trees cross the worker-process boundary and reattach under the
  driver's dispatching span (zero-overhead no-ops when disabled);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms with
  snapshot/merge semantics so worker deltas fold into one study total;
* :mod:`repro.obs.events` — the structured JSONL event log (span closes,
  warnings, progress heartbeats, run markers) plus its line-by-line
  schema validator;
* :mod:`repro.obs.manifest` — the run manifest written next to study
  outputs (seed, jobs, cache config, versions, host environment,
  timings, metric snapshot, warnings, exit status);
* :mod:`repro.obs.export` — finished telemetry rendered in standard
  formats: Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
  Prometheus text exposition, flamegraph folded stacks;
* :mod:`repro.obs.progress` — the live heartbeat channel behind
  ``--progress`` and the ``progress`` events in ``--log-json``;
* :mod:`repro.obs.registry` — the run-registry record, the one perf
  record format: every run's line in ``<store>/runs/history.jsonl``
  and every committed ``BENCH_*.json`` file;
* :mod:`repro.obs.regress` — the ``bench-check`` perf-regression
  watchdog comparing two such records.

:class:`ObsSession` is the CLI-facing glue: it wires ``--trace``,
``--log-json``, ``--manifest`` and ``--progress`` to the right globals
for one run and writes every artifact at :meth:`ObsSession.finalize`.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .bus import (
    BUS_KINDS,
    BUS_SCHEMA_VERSION,
    Subscription,
    TelemetryBus,
    get_bus,
    reset_bus,
)
from .events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventRecorder,
    aggregate_warnings,
    get_recorder,
    provenance_event,
    reset_recorder,
    resource_event,
    run_event,
    span_event,
    validate_event,
    validate_event_line,
    validate_event_log,
    warn,
)
from .export import (
    chrome_trace,
    folded_stacks,
    prometheus_text,
    validate_prometheus_text,
)
from .manifest import build_manifest, runtime_environment, write_manifest
from .metrics import (
    HistogramData,
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    reset_metrics,
)
from .progress import (
    ProgressChannel,
    ProgressTracker,
    get_progress,
    progress_event,
    render_progress_line,
    reset_progress,
)
from .provenance import (
    PROVENANCE_FORMAT,
    diff_components,
    explain_target,
    render_explanation,
)
from .registry import (
    REGISTRY_FORMAT,
    RunRegistry,
    as_record,
    build_run_record,
    history_baseline,
    registry_for_store,
)
from .regress import Check, RegressionReport, compare_records
from .resources import (
    ResourceMonitor,
    ResourceSample,
    get_monitor,
    peak_rss_bytes,
    process_sample,
)
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    configure_tracing,
    get_tracer,
    render_trace,
    write_trace,
)

__all__ = [
    "BUS_KINDS",
    "BUS_SCHEMA_VERSION",
    "EVENT_SCHEMA_VERSION",
    "PROVENANCE_FORMAT",
    "REGISTRY_FORMAT",
    "Check",
    "Subscription",
    "TelemetryBus",
    "EventLog",
    "EventRecorder",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_SPAN",
    "ObsSession",
    "ProgressChannel",
    "ProgressTracker",
    "RegressionReport",
    "ResourceMonitor",
    "ResourceSample",
    "RunRegistry",
    "Span",
    "Tracer",
    "aggregate_warnings",
    "as_record",
    "build_manifest",
    "build_run_record",
    "chrome_trace",
    "compare_records",
    "configure_tracing",
    "diff_components",
    "explain_target",
    "folded_stacks",
    "get_bus",
    "get_metrics",
    "get_monitor",
    "get_progress",
    "get_recorder",
    "get_tracer",
    "history_baseline",
    "peak_rss_bytes",
    "process_sample",
    "progress_event",
    "prometheus_text",
    "provenance_event",
    "registry_for_store",
    "render_explanation",
    "render_progress_line",
    "render_trace",
    "reset_bus",
    "reset_metrics",
    "reset_progress",
    "reset_recorder",
    "resource_event",
    "run_event",
    "runtime_environment",
    "span_event",
    "validate_event",
    "validate_event_line",
    "validate_event_log",
    "validate_prometheus_text",
    "warn",
    "write_manifest",
    "write_trace",
]


class ObsSession:
    """Wires the observability outputs of one pipeline run.

    Construct it before the run (tracing starts, the event log opens),
    record what the run produced (``session.study = ...``), then call
    :meth:`finalize` to write the trace file and manifest, emit the
    closing run marker and restore the process-global state.
    """

    def __init__(
        self,
        *,
        command: str = "",
        trace_path: str | Path | None = None,
        log_path: str | Path | None = None,
        manifest_path: str | Path | None = None,
        progress: bool = False,
    ):
        self.command = command
        self.trace_path = Path(trace_path) if trace_path else None
        self.log_path = Path(log_path) if log_path else None
        self.manifest_path = Path(manifest_path) if manifest_path else None
        # run facts, filled in by the command as it executes
        self.seed: int | None = None
        self.jobs: int | None = None
        self.dialect: str | None = None
        self.study = None
        self.corpus_size: int | None = None
        self.finalized = False
        #: The built manifest document (set by finalize when
        #: ``--manifest`` was given) — the registry append reuses it
        #: for the record's manifest digest.
        self.manifest_document: dict | None = None
        #: The attached observability server (``--serve``), if any —
        #: finalize records its summary in the manifest ``server``
        #: block.
        self.server = None

        reset_metrics()
        reset_recorder()
        channel = reset_progress()
        self._tracing_enabled = bool(self.trace_path or self.log_path)
        tracer = (
            configure_tracing(True) if self._tracing_enabled else get_tracer()
        )
        # NOTE: the telemetry bus is deliberately *not* reset here — a
        # server started before the session (``--serve``) may already
        # hold subscriptions.  The session only adds (and later
        # removes) its own event-log sink.
        self.event_log: EventLog | None = None
        self._log_sink = None
        if self.log_path:
            self.event_log = EventLog(self.log_path)
            # span closes, warnings, heartbeats, resource samples and
            # the run marker all travel the bus; the event log is one
            # of its sinks, filtered to the JSONL event kinds so
            # bus-only kinds (artifact probes, metrics snapshots)
            # never change the log's bytes
            tracer.publish = True
            self._log_sink = get_bus().add_sink(
                self._emit_envelope,
                kinds=("span", "warning", "progress", "resource", "run"),
            )
        if progress:
            channel.stream = sys.stderr

    def _emit_envelope(self, envelope: dict) -> None:
        self.event_log.emit(envelope["data"])

    def finalize(self, status: str = "ok") -> None:
        """Write all requested artifacts and unhook the globals."""
        if self.finalized:
            return
        self.finalized = True
        tracer = get_tracer()
        if self.trace_path:
            write_trace(tracer, self.trace_path)
        if self.manifest_path:
            manifest = build_manifest(
                command=self.command,
                status=status,
                seed=self.seed,
                jobs=self.jobs,
                dialect=self.dialect,
                study=self.study,
                corpus_size=self.corpus_size,
                warnings=get_recorder().warnings,
                outputs={
                    "trace": self.trace_path,
                    "events": self.log_path,
                },
                server=(
                    self.server.summary()
                    if self.server is not None
                    else None
                ),
            )
            write_manifest(manifest, self.manifest_path)
            self.manifest_document = manifest
        channel = get_progress()
        channel.close_line()
        channel.sink = None
        channel.stream = None
        # the closing records ride the bus so live SSE consumers see
        # the run end even when no --log-json file is open; the event
        # log (when open) receives them through its bus sink
        bus = get_bus()
        if self.study is not None:
            resources = getattr(
                self.study.timings, "resources", None
            ) or {}
            for scope in sorted(resources):
                bus.publish("resource", resource_event(scope, resources[scope]))
        bus.publish("run", run_event(self.command, status))
        if self.event_log is not None:
            get_recorder().sink = None
            tracer.on_close = None
            tracer.publish = False
            self.event_log.close()
        if self._log_sink is not None:
            bus.remove_sink(self._log_sink)
            self._log_sink = None
        if self._tracing_enabled:
            configure_tracing(False)
