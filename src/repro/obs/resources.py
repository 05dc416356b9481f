"""Resource telemetry: peak RSS and CPU time, psutil-free.

The study is a memory-bound batch job — ROADMAP item 2 (100× corpus
scale-out) is explicitly a *bounded-memory* goal — so every run should
record how much memory it actually held.  This module provides that
telemetry without any third-party dependency:

* :func:`current_rss_bytes` / :func:`peak_rss_bytes` read
  ``/proc/self/status`` (``VmRSS`` / ``VmHWM``) on Linux and fall back
  to :mod:`resource`'s ``ru_maxrss`` elsewhere (kilobytes on Linux,
  bytes on macOS — normalised here); when neither source exists the
  readers return ``0`` and every consumer treats the telemetry as
  absent rather than failing the run;
* :func:`cpu_times` reads :func:`os.times` (user + system, self and
  children), portable everywhere;
* :class:`ResourceMonitor` is a small daemon **sampler thread**: open a
  window around a stage and the thread folds periodic RSS samples into
  the window's peak, so a stage that balloons mid-flight is caught even
  though its entry and exit footprints look modest.  Windows nest
  freely (the whole-run window coexists with per-stage windows) and
  closing a window yields an immutable :class:`ResourceSample`;
* :class:`GcClock` is a ``gc.callbacks`` hook counting the cyclic
  collector's oldest-generation passes and the seconds it spends
  collecting.  A GC pause lands inside whichever span happened to
  allocate, so no span or layer timer can show it; this clock does.

Telemetry never perturbs results: samples land in
:class:`~repro.perf.timing.StudyTimings` (and from there the manifest
and the run-registry record — the ``BENCH_*.json`` files included —
that ``bench-check`` compares), never in artifact payloads, so cold and
warm runs stay byte-identical.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from dataclasses import dataclass

#: Seconds between sampler passes; coarse on purpose — the sampler
#: exists to catch mid-stage peaks, not to build a time series.
SAMPLE_INTERVAL = 0.05

_PROC_STATUS = "/proc/self/status"


def _read_proc_field(field: str) -> int | None:
    """A ``Vm*`` field of ``/proc/self/status`` in bytes, or ``None``."""
    try:
        with open(_PROC_STATUS, "rb") as handle:
            for line in handle:
                if line.startswith(field):
                    # "VmRSS:\t  123456 kB"
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rusage_maxrss_bytes(children: bool = False) -> int:
    """``ru_maxrss`` normalised to bytes; 0 when unavailable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - resource is POSIX-only
        return 0
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    try:
        maxrss = resource.getrusage(who).ru_maxrss
    except (OSError, ValueError):  # pragma: no cover - defensive
        return 0
    # Linux reports kilobytes, macOS reports bytes.
    return int(maxrss if sys.platform == "darwin" else maxrss * 1024)


def current_rss_bytes() -> int:
    """The process's resident set right now (best effort, 0 if unknown).

    The portable fallback is ``ru_maxrss`` — a high-water mark, not the
    instantaneous value — which is still safe for every consumer here:
    peaks folded from it are upper bounds, never underestimates.
    """
    value = _read_proc_field(b"VmRSS:")
    if value is not None:
        return value
    return _rusage_maxrss_bytes()


def peak_rss_bytes() -> int:
    """The process-lifetime peak resident set (0 if unknown)."""
    value = _read_proc_field(b"VmHWM:")
    if value is not None:
        return value
    return _rusage_maxrss_bytes()


def cpu_times() -> tuple[float, float]:
    """(user, system) CPU seconds of this process (children excluded)."""
    times = os.times()
    return (times.user, times.system)


@dataclass(frozen=True)
class ResourceSample:
    """One closed window's resource footprint."""

    peak_rss_bytes: int = 0
    cpu_user_seconds: float = 0.0
    cpu_system_seconds: float = 0.0

    @property
    def cpu_seconds(self) -> float:
        return self.cpu_user_seconds + self.cpu_system_seconds

    def as_dict(self) -> dict:
        return {
            "peak_rss_bytes": self.peak_rss_bytes,
            "cpu_seconds": round(self.cpu_seconds, 6),
        }


def process_sample() -> ResourceSample:
    """The whole process's lifetime footprint (peak RSS + CPU so far).

    What a pool worker ships back to the driver: workers are
    single-purpose processes, so their lifetime peak *is* their work's
    peak — no window bookkeeping needed across the pickle boundary.
    """
    user, system = cpu_times()
    return ResourceSample(
        peak_rss_bytes=peak_rss_bytes(),
        cpu_user_seconds=user,
        cpu_system_seconds=system,
    )


class _Window:
    """One open measurement window; the sampler folds peaks into it."""

    __slots__ = ("peak", "cpu_start")

    def __init__(self, rss: int, cpu: tuple[float, float]):
        self.peak = rss
        self.cpu_start = cpu


class ResourceMonitor:
    """The sampler thread plus its set of open windows.

    The thread starts lazily on the first window and samples every
    :attr:`interval` seconds, folding the current RSS into every open
    window's peak under a lock.  It is a daemon — interpreter exit
    never waits on it — and a platform with no readable RSS simply
    yields all-zero samples (consumers skip empty telemetry).
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self._lock = threading.Lock()
        self._windows: set[_Window] = set()
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()

    # -- the sampler ---------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while True:
            self._wake.wait(timeout=self.interval)
            self._wake.clear()
            with self._lock:
                if not self._windows:
                    # idle: park until the next window opens
                    pass
                else:
                    rss = current_rss_bytes()
                    for window in self._windows:
                        if rss > window.peak:
                            window.peak = rss
            if not self._windows:
                time.sleep(self.interval)

    # -- windows -------------------------------------------------------
    def open_window(self) -> _Window:
        """Open a window; close with :meth:`close_window`."""
        window = _Window(current_rss_bytes(), cpu_times())
        with self._lock:
            self._windows.add(window)
        self._ensure_thread()
        self._wake.set()
        return window

    def close_window(self, window: _Window) -> ResourceSample:
        """Close a window and return its folded sample."""
        rss = current_rss_bytes()
        user, system = cpu_times()
        with self._lock:
            self._windows.discard(window)
            peak = max(window.peak, rss)
        return ResourceSample(
            peak_rss_bytes=peak,
            cpu_user_seconds=max(0.0, user - window.cpu_start[0]),
            cpu_system_seconds=max(0.0, system - window.cpu_start[1]),
        )

    class _WindowContext:
        __slots__ = ("monitor", "window", "sample")

        def __init__(self, monitor: "ResourceMonitor"):
            self.monitor = monitor
            self.window = None
            self.sample: ResourceSample | None = None

        def __enter__(self) -> "ResourceMonitor._WindowContext":
            self.window = self.monitor.open_window()
            return self

        def __exit__(self, *exc) -> bool:
            self.sample = self.monitor.close_window(self.window)
            return False

    def window(self) -> "ResourceMonitor._WindowContext":
        """Context manager: ``with monitor.window() as w: ...``; the
        folded sample is on ``w.sample`` after the block exits."""
        return ResourceMonitor._WindowContext(self)


#: The process's one resource monitor.  It samples this process's RSS
#: and holds no per-run state, so every run's windows share it.
MONITOR = ResourceMonitor()


class GcClock:
    """Counts oldest-generation collections and seconds spent collecting.

    Installed as a ``gc.callbacks`` hook only while it is measuring —
    ``with GcClock() as clock:`` around a study, or :meth:`start` for a
    pool worker's whole life — so a process that is not running a study
    pays nothing.  :meth:`take` hands over the counts since the previous
    take and starts a fresh interval, which is how a long-lived worker
    reports each shard's share without double counting.
    """

    #: ``gc.collect``'s generation number for a full collection.
    OLDEST = 2

    __slots__ = ("full_collections", "seconds", "_started")

    def __init__(self) -> None:
        self.full_collections = 0
        self.seconds = 0.0
        self._started: float | None = None

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        if self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None
        if info.get("generation") == self.OLDEST:
            self.full_collections += 1

    def start(self) -> "GcClock":
        gc.callbacks.append(self._on_gc)
        return self

    def stop(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __enter__(self) -> "GcClock":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def as_dict(self) -> dict:
        return {
            "gc_full_collections": self.full_collections,
            "gc_seconds": round(self.seconds, 6),
        }

    def take(self) -> dict:
        """:meth:`as_dict` of the interval so far; restarts the counts."""
        counts = self.as_dict()
        self.full_collections = 0
        self.seconds = 0.0
        return counts


class MemoryLimitExceeded(RuntimeError):
    """``--limit-memory`` was breached: driver RSS crossed the cap."""

    def __init__(self, rss_bytes: int, limit_bytes: int):
        self.rss_bytes = rss_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            f"driver RSS {rss_bytes / 2**20:.0f} MiB exceeded "
            f"--limit-memory {limit_bytes / 2**20:.0f} MiB"
        )


class MemoryWatchdog:
    """Warn-then-fail enforcement of a driver memory cap.

    The streaming map loop calls :meth:`check` once per folded shard.
    Crossing ``warn_fraction`` of the cap records one ``memory-pressure``
    warning and flips the watchdog into the ``"pressure"`` state — the
    loop's cue to shrink its in-flight window.  Crossing the cap itself
    raises :class:`MemoryLimitExceeded`: a bounded-memory run that
    cannot stay bounded should fail loudly, not swap quietly.

    The probe is injectable for tests (defaults to
    :func:`current_rss_bytes`); a platform where RSS is unreadable
    probes ``0`` forever and the watchdog never trips.
    """

    def __init__(
        self,
        limit_bytes: int,
        *,
        warn_fraction: float = 0.8,
        probe=current_rss_bytes,
    ):
        self.limit_bytes = limit_bytes
        self.warn_bytes = int(limit_bytes * warn_fraction)
        self.probe = probe
        self.peak_seen = 0
        self.warned = False
        self.checks = 0

    def check(self) -> str:
        """Probe once; return ``"ok"`` or ``"pressure"``, raise on breach."""
        self.checks += 1
        rss = self.probe()
        if rss > self.peak_seen:
            self.peak_seen = rss
        if rss >= self.limit_bytes:
            raise MemoryLimitExceeded(rss, self.limit_bytes)
        if rss >= self.warn_bytes:
            if not self.warned:
                self.warned = True
                # function-level import: events imports nothing from
                # here, but keeping resources import-light avoids any
                # future cycle through the obs package
                from .events import warn

                warn(
                    "memory-pressure",
                    f"driver RSS {rss / 2**20:.0f} MiB is above "
                    f"{int(self.warn_bytes / 2**20)} MiB "
                    f"({self.limit_bytes / 2**20:.0f} MiB cap); "
                    "shrinking the fan-out window",
                    rss_bytes=rss,
                    limit_bytes=self.limit_bytes,
                )
            return "pressure"
        return "ok"

    def as_dict(self) -> dict:
        return {
            "limit_bytes": self.limit_bytes,
            "peak_seen_bytes": self.peak_seen,
            "checks": self.checks,
            "pressure": self.warned,
        }
