"""Live run monitoring: heartbeat progress events and the TTY line.

Long ``--jobs N`` studies used to be silent until they finished.
This module threads a heartbeat through both executor fan-outs (corpus
generation and the pipeline's map): as each unit of work completes, the
driver-side loop calls :meth:`ProgressTracker.update`, and the tracker
periodically emits a ``progress`` event —

``{"event": "progress", "stage": ..., "done": N, "total": M,
"percent": ..., "eta_seconds": ..., "slowest": [...]}``

— to the run's :class:`ProgressChannel`.  The channel fans the
record out to up to two places:

* the run's telemetry bus — where the ``--log-json`` event log (a bus
  sink) records it next to spans and warnings, and live SSE clients
  see it;
* ``stream`` — the opt-in ``--progress`` TTY line on stderr
  (carriage-return refresh on a real terminal, plain lines otherwise).

ETA comes from the live :class:`~repro.perf.timing.StudyTimings` when
the stage records per-item seconds (mean summed worker seconds per
completed project, divided by ``jobs``), falling back to wall-clock
extrapolation for stages without per-item timings (generation).

Progress is observation only: trackers count completions on the driver
side of the pool, never inside workers, so the byte-identity guarantee
of the observability layer (traced results == untraced results) holds
with the heartbeat on.
"""

from __future__ import annotations

import os
import time

from .bus import TelemetryBus

#: Environment variable overriding the heartbeat interval (seconds).
PROGRESS_INTERVAL_ENV = "REPRO_PROGRESS_INTERVAL"

#: Default minimum seconds between emitted heartbeats per stage.
DEFAULT_INTERVAL = 1.0

#: How many slowest-so-far entries each progress event carries.
TOP_SLOWEST = 3


def _default_interval() -> float:
    raw = os.environ.get(PROGRESS_INTERVAL_ENV)
    if raw is None:
        return DEFAULT_INTERVAL
    try:
        return max(0.0, float(raw))
    except ValueError:
        return DEFAULT_INTERVAL


def _is_tty(stream) -> bool:
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError):
        return False


def _fmt_eta(seconds: float) -> str:
    if seconds >= 60.0:
        minutes, rest = divmod(round(seconds), 60)
        return f"{minutes}m{rest:02d}s"
    return f"{seconds:.1f}s"


def progress_event(
    stage: str,
    done: int,
    total: int,
    eta_seconds: float,
    slowest: list[tuple[float, str]],
) -> dict:
    """The JSONL record for one heartbeat (validates as ``progress``)."""
    return {
        "event": "progress",
        "ts": round(time.time(), 6),
        "stage": stage,
        "done": done,
        "total": total,
        "percent": round(100.0 * done / total, 1) if total else 100.0,
        "eta_seconds": round(max(0.0, eta_seconds), 3),
        "slowest": [
            {"name": name, "seconds": round(seconds, 6)}
            for seconds, name in slowest
        ],
    }


def render_progress_line(record: dict) -> str:
    """One-line human rendering of a progress record (the TTY line)."""
    done, total = record["done"], record["total"]
    parts = [
        f"{record['stage']}",
        f"{done}/{total}",
        f"({record['percent']:.0f}%)",
    ]
    if done < total:
        parts.append(f"eta {_fmt_eta(record['eta_seconds'])}")
    slowest = record.get("slowest") or []
    if slowest:
        worst = slowest[0]
        parts.append(f"slowest {worst['name']} ({worst['seconds']:.2f}s)")
    return " ".join(parts)


class ProgressChannel:
    """Where heartbeats go: the run's bus and/or a terminal stream.

    The channel (and every tracker feeding it) is inert until something
    listens: a consumer on ``bus`` or a ``--progress`` ``stream``.  A
    channel built without a bus publishes into a private one.
    """

    def __init__(self, bus: TelemetryBus | None = None):
        self.bus = bus if bus is not None else TelemetryBus()
        #: Optional text stream for the live line (``--progress``).
        self.stream = None
        #: Minimum seconds between heartbeats per tracker.
        self.interval = _default_interval()
        self._line_width = 0

    @property
    def active(self) -> bool:
        """Whether anything is listening (trackers no-op otherwise).

        A consumer on the telemetry bus — the ``--log-json`` sink, an
        SSE client of ``repro obs serve`` attaching mid-run, the ``obs
        top`` dashboard — counts as listening, so heartbeats start
        flowing the moment someone subscribes.
        """
        return self.stream is not None or self.bus.active

    def deliver(self, record: dict) -> None:
        """Publish one progress record; draw it on the stream."""
        self.bus.publish("progress", record)
        if self.stream is not None:
            self._write_line(render_progress_line(record))

    def _write_line(self, line: str) -> None:
        stream = self.stream
        if _is_tty(stream):
            pad = max(0, self._line_width - len(line))
            stream.write("\r" + line + " " * pad)
            self._line_width = len(line)
        else:
            stream.write(line + "\n")
        stream.flush()

    def close_line(self) -> None:
        """Terminate a carriage-return line so later output starts clean."""
        if self.stream is not None and _is_tty(self.stream):
            if self._line_width:
                self.stream.write("\n")
                self.stream.flush()
                self._line_width = 0


class ProgressTracker:
    """Per-stage heartbeat: counts completions, estimates, emits.

    The driver-side collection loop calls :meth:`update` once per
    completed unit (optionally with the unit's worker seconds, which
    feeds the slowest-so-far list) and :meth:`finish` when the stage
    ends.  Emission is throttled to the channel's ``interval``; the
    final state always emits.  With nothing listening every call is a
    counter bump and one attribute check.
    """

    def __init__(
        self,
        stage: str,
        total: int,
        *,
        channel: ProgressChannel,
        timings=None,
        clock=time.monotonic,
        parallelism: int | None = None,
    ):
        self.stage = stage
        self.total = total
        self.channel = channel
        self.timings = timings
        self.done = 0
        self.slowest: list[tuple[float, str]] = []
        #: Effective fan-out width for the ETA divisor.  ``None`` means
        #: fully submitted (the historical behaviour: divide by jobs);
        #: a backpressured map sets it to the in-flight window so the
        #: ETA never assumes more parallelism than the window allows.
        self.parallelism = parallelism
        self._clock = clock
        self._started = clock()
        self._last_emit: float | None = None
        self._emitted_done = -1

    @property
    def active(self) -> bool:
        return self.channel.active

    def set_parallelism(self, width: int | None) -> None:
        """Update the effective fan-out width (window auto-shrink hook)."""
        self.parallelism = width

    def eta_seconds(self) -> float:
        """Estimated wall seconds to finish the remaining units."""
        remaining = self.total - self.done
        if self.done <= 0 or remaining <= 0:
            return 0.0
        if self.timings is not None:
            eta = self.timings.eta_seconds(
                self.done, self.total, parallelism=self.parallelism
            )
            if eta is not None:
                return eta
        elapsed = self._clock() - self._started
        return elapsed / self.done * remaining

    def update(self, name: str = "", seconds: float | None = None) -> None:
        """Record one completed unit; emit a heartbeat when due."""
        self.done += 1
        if not self.active:
            return
        if seconds is not None:
            self.slowest.append((seconds, name))
            self.slowest.sort(reverse=True)
            del self.slowest[TOP_SLOWEST:]
        now = self._clock()
        if (
            self._last_emit is None
            or now - self._last_emit >= self.channel.interval
            or self.done >= self.total
        ):
            self._emit(now)

    def finish(self) -> None:
        """Emit the final heartbeat (if pending) and end the TTY line."""
        if not self.active:
            return
        self._emit(self._clock())
        self.channel.close_line()

    def _emit(self, now: float) -> None:
        if self.done == self._emitted_done:
            return
        self._emitted_done = self.done
        self._last_emit = now
        self.channel.deliver(
            progress_event(
                self.stage,
                self.done,
                self.total,
                self.eta_seconds(),
                self.slowest,
            )
        )
