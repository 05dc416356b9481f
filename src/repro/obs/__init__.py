"""Observability layer: tracing, metrics, events, exports, monitoring.

The study pipeline is a long fan-out batch job; this package makes one
run auditable end to end without changing any of its results:

* :mod:`repro.obs.context` — the :class:`~repro.obs.context.RunContext`
  a run records into: its tracer, warning recorder, metrics, telemetry
  bus, progress channel, parse cache and artifact store, plus the
  ``--trace``, ``--log-json``, ``--manifest`` and ``--progress``
  outputs it writes when the run finalizes;
* :mod:`repro.obs.trace` — a hierarchical span tracer whose per-project
  span trees cross the worker-process boundary and reattach under the
  driver's dispatching span (zero-overhead no-ops when disabled);
* :mod:`repro.obs.metrics` — named counters/gauges/histograms with
  snapshot/merge semantics so worker deltas fold into one study total;
* :mod:`repro.obs.events` — the structured JSONL event log (span closes,
  warnings, progress heartbeats, run markers) plus its line-by-line
  schema validator;
* :mod:`repro.obs.bus` — the telemetry bus every signal is published
  on, and the event log, the server and ``obs top`` consume;
* :mod:`repro.obs.manifest` — the run manifest written next to study
  outputs (seed, jobs, cache config, versions, host environment,
  timings, metric snapshot, warnings, exit status);
* :mod:`repro.obs.export` — finished telemetry rendered in standard
  formats: Chrome trace-event JSON (Perfetto / ``chrome://tracing``),
  Prometheus text exposition, flamegraph folded stacks;
* :mod:`repro.obs.progress` — the live heartbeat channel behind
  ``--progress`` and the ``progress`` events in ``--log-json``;
* :mod:`repro.obs.resources` — peak RSS, CPU and GC telemetry;
* :mod:`repro.obs.registry` — the run-registry record, the one perf
  record format: every run's line in ``<store>/runs/history.jsonl``
  and every committed ``BENCH_*.json`` file;
* :mod:`repro.obs.regress` — the ``bench-check`` perf-regression
  watchdog comparing two such records;
* :mod:`repro.obs.provenance`, :mod:`repro.obs.server` and
  :mod:`repro.obs.top` — ``pipeline explain``, the live HTTP endpoint
  and its terminal dashboard.

Import what you use from its module; the package re-exports nothing.
"""
