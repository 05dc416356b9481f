"""One run's telemetry and storage: the :class:`RunContext`.

A run records into exactly one context.  The context owns the run's
span tracer, warning recorder, metrics registry, event log, progress
channel, parse cache and artifact store, next to the run's outputs
(``--trace``, ``--log-json``, ``--manifest``, ``--progress``) and the
facts its manifest reports.  Nothing carries from one run into the
next: two pipelines with two contexts share no counter, warning, span
or event log, whatever ran before them in the process.

The ``--log-json`` :class:`~repro.obs.events.EventLog` is the one
place a run's records go while it runs: the tracer, the warning
recorder and the progress channel each hold it and write to it
directly, and :meth:`RunContext.finalize` closes it after the
``resource`` and ``run`` records.  Every record is written on the
driver thread (a pool worker's spans and warnings are written when the
driver folds its result), so the log needs no lock; it is flushed per
record, so a second reader can follow it while the run is going.

The context is passed explicitly at the boundaries: ``cli.main``
builds one per command and :class:`~repro.pipeline.graph.Pipeline`
takes one (``context=``).  Leaf call sites —
:func:`~repro.obs.events.warn`, the diff timer, the parse cache, the
generator's span — read :func:`current`, the one pointer a running
pipeline sets to its own context.  A pool worker gets a fresh context
with no event log from ``worker_init``, and whether it traces rides on
each task it is sent, so one warm pool serves traced and untraced runs
alike.

The parse cache is memory-only.  The artifact store, the one layer that
can outlive the run (``store_dir``), is built on first use, so a
command that never runs a pipeline creates no directory; without a
``store_dir`` it is a :class:`~repro.pipeline.store.NullStore`, which
keeps nothing.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

from .events import EventLog, EventRecorder, resource_event, run_event
from .metrics import MetricsRegistry
from .progress import ProgressChannel
from .trace import Tracer, write_trace


class RunContext:
    """Everything one run records into, and where it writes it.

    Build it before the run (tracing starts, the event log opens),
    fill in the run facts as the command executes (``context.study =
    ...``), then call :meth:`finalize` to write the trace file and
    manifest, log the closing run marker and close the event log.

    ``store_dir`` is taken as given — ``None`` means a store that keeps
    nothing; :meth:`from_env` fills it from ``REPRO_STORE_DIR`` instead.
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
        self.event_log = EventLog(self.log_path) if self.log_path else None
        self.metrics = MetricsRegistry()
        self.recorder = EventRecorder(self.metrics, self.event_log)
        self.tracer = Tracer(
            enabled=bool(trace_path or log_path), log=self.event_log
        )
        self.progress = ProgressChannel(self.event_log)
        if progress:
            self.progress.stream = sys.stderr
        # run facts, filled in by the command as it executes
        self.seed: int | None = None
        self.jobs: int | None = None
        self.dialect: str | None = None
        self.study = None
        self.corpus_size: int | None = None
        #: The built manifest document (set by finalize when
        #: ``--manifest`` was given) — the registry append reuses it
        #: for the record's manifest digest.
        self.manifest_document: dict | None = None
        self.finalized = False

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
        """The run's artifact store: a ``DirStore`` under ``store_dir``.

        Without a ``store_dir`` it is a ``NullStore``: the run keeps
        only the reduce artifacts its pipeline memoises, never a shard.
        Built inside the context, so a degraded directory's warning
        lands in this run's recorder (and manifest) whoever asks first.
        """
        from ..pipeline.store import DirStore, NullStore

        with self.active():
            if self.store_dir:
                return DirStore(self.store_dir)
            return NullStore()

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
                context=self,
            )
            write_manifest(self.manifest_document, self.manifest_path)
        self.progress.close_line()
        log = self.event_log
        if log is None:
            return
        if self.study is not None:
            resources = self.study.timings.resources
            for scope in sorted(resources):
                log.emit(resource_event(scope, resources[scope]))
        log.emit(run_event(self.command, status))
        log.close()
        # the run marker is the log's last record: whatever the command
        # records after finalize is not logged
        self.tracer.log = self.recorder.log = self.progress.log = None


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
