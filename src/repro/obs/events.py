"""Structured JSONL run events: span closes, warnings, progress, run
markers.

Every line of a ``--log-json`` file is one JSON object with a stable
schema (see :data:`EVENT_FIELDS`); :func:`validate_event` /
:func:`validate_event_log` check conformance line by line, and
``tests/test_obs_study.py`` runs that validator over a real traced
``jobs=4`` run.

Six event kinds exist:

``span``
    emitted when a span closes — ``name``, ``seconds``, ``status`` and
    the span's ``attributes``;
``warning``
    emitted by :func:`warn` for anomalies that would otherwise be silent
    skips — an unparseable DDL version, an empty (zero-activity)
    history, a ``find_ddl_path`` tie-break, a store directory that
    cannot be written;
``progress``
    periodic heartbeats from the executor fan-outs (see
    :mod:`repro.obs.progress`) — projects done/total, percent, the
    stage ETA and the slowest projects so far;
``run``
    one closing marker per CLI run with the command and exit status;
``resource``
    one record per telemetry scope (driver, workers, stage) at run end
    with the scope's peak RSS and CPU seconds;
``provenance``
    one record per ``pipeline explain`` target with its warm / stale /
    cold state and cause labels.

Events added after the first schema generation (``resource``,
``provenance``) carry an explicit ``schema`` field
(:data:`EVENT_SCHEMA_VERSION`).  The validator extends the same
courtesy forward: an *unknown* kind is tolerated — not an error —
when the record is well-formed (object with a string ``event``, a
numeric ``ts`` and an integer ``schema``), so tomorrow's events don't
break today's consumers.

Warnings are also collected in the run's :class:`EventRecorder` so
the run manifest can surface them after the fact; worker processes
ship their recorder windows back with their results and the driver
replays them (:meth:`EventRecorder.replay`), giving the event log
exactly one line per warning regardless of the serial/parallel mode.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from .metrics import MetricsRegistry

#: The event-log schema generation.  Version 1 had no ``schema`` field
#: (span/warning/progress/run only); version 2 added the ``resource``
#: and ``provenance`` kinds, each carrying this number so consumers can
#: gate on it.
EVENT_SCHEMA_VERSION = 2

#: Required fields (and their JSON types) per event kind.
EVENT_FIELDS: dict[str, dict[str, tuple]] = {
    "span": {
        "event": (str,),
        "ts": (int, float),
        "name": (str,),
        "seconds": (int, float),
        "status": (str,),
        "attributes": (dict,),
    },
    "warning": {
        "event": (str,),
        "ts": (int, float),
        "code": (str,),
        "message": (str,),
        "context": (dict,),
    },
    "progress": {
        "event": (str,),
        "ts": (int, float),
        "stage": (str,),
        "done": (int,),
        "total": (int,),
        "percent": (int, float),
        "eta_seconds": (int, float),
        "slowest": (list,),
    },
    "run": {
        "event": (str,),
        "ts": (int, float),
        "command": (str,),
        "status": (str,),
    },
    "resource": {
        "event": (str,),
        "ts": (int, float),
        "schema": (int,),
        "scope": (str,),
        "peak_rss_bytes": (int,),
        "cpu_seconds": (int, float),
    },
    "provenance": {
        "event": (str,),
        "ts": (int, float),
        "schema": (int,),
        "stage": (str,),
        "state": (str,),
        "causes": (list,),
    },
}

#: Optional fields (per kind) the validator accepts but never requires.
EVENT_OPTIONAL_FIELDS: dict[str, dict[str, tuple]] = {
    "provenance": {"project": (str, type(None))},
}

_STATUS_VALUES = ("ok", "error")


def span_event(span) -> dict:
    """The JSONL record for one closed :class:`~repro.obs.trace.Span`."""
    return {
        "event": "span",
        "ts": round(span.started_at, 6),
        "name": span.name,
        "seconds": round(span.seconds, 9),
        "status": span.status,
        "attributes": dict(span.attributes),
    }


def run_event(command: str, status: str) -> dict:
    """The closing run-marker record of a CLI run."""
    return {
        "event": "run",
        "ts": round(time.time(), 6),
        "command": command,
        "status": status,
    }


def resource_event(scope: str, sample: dict) -> dict:
    """One telemetry scope's footprint record (emitted at run end)."""
    return {
        "event": "resource",
        "ts": round(time.time(), 6),
        "schema": EVENT_SCHEMA_VERSION,
        "scope": scope,
        "peak_rss_bytes": int(sample.get("peak_rss_bytes") or 0),
        "cpu_seconds": float(sample.get("cpu_seconds") or 0.0),
    }


def provenance_event(record: dict) -> dict:
    """One explain target's state record (emitted by pipeline explain)."""
    event = {
        "event": "provenance",
        "ts": round(time.time(), 6),
        "schema": EVENT_SCHEMA_VERSION,
        "stage": record["stage"],
        "state": record["state"],
        "causes": [cause["label"] for cause in record.get("causes", [])],
    }
    if record.get("project"):
        event["project"] = record["project"]
    return event


# ----------------------------------------------------------------------
# warnings

class EventRecorder:
    """One run's warning collector.

    Each warning bumps ``warnings.<code>`` on ``metrics`` and is
    written to ``log``, the run's ``--log-json`` :class:`EventLog`
    (``None``: the run keeps no log).  A recorder built without
    ``metrics`` counts into a private registry.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        log: "EventLog | None" = None,
    ):
        self.warnings: list[dict] = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = log

    def warn(self, code: str, message: str, **context) -> dict:
        """Record one warning event; returns the record."""
        record = {
            "event": "warning",
            "ts": round(time.time(), 6),
            "code": code,
            "message": message,
            "context": context,
        }
        self._deliver(record)
        return record

    def replay(self, record: dict) -> None:
        """Fold a warning recorded in another process into this one."""
        self._deliver(record)

    def _deliver(self, record: dict) -> None:
        self.warnings.append(record)
        self.metrics.inc(f"warnings.{record['code']}")
        if self.log is not None:
            self.log.emit(record)

    # -- windows (the worker protocol) ---------------------------------
    def mark(self) -> int:
        """An opaque position; pair with :meth:`since`."""
        return len(self.warnings)

    def since(self, mark: int) -> list[dict]:
        """The warnings recorded after ``mark`` (shippable, picklable)."""
        return self.warnings[mark:]


def warn(code: str, message: str, **context) -> dict:
    """Record a warning event on the current run's recorder."""
    from .context import current

    return current().recorder.warn(code, message, **context)


def aggregate_warnings(warnings: list[dict]) -> list[dict]:
    """Group warning records by code for the run manifest.

    Returns one entry per code, ordered by first occurrence, carrying
    the count and the first message as a representative example.
    """
    grouped: dict[str, dict] = {}
    for record in warnings:
        code = record.get("code", "")
        entry = grouped.get(code)
        if entry is None:
            grouped[code] = {
                "code": code,
                "count": 1,
                "first_message": record.get("message", ""),
            }
        else:
            entry["count"] += 1
    return list(grouped.values())


# ----------------------------------------------------------------------
# the JSONL writer

class EventLog:
    """An append-only JSONL event stream (one record per line).

    Each record is flushed as it is written, so a second reader can
    follow the file while the run is going.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")

    def emit(self, record: dict) -> None:
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=str) + "\n"
        )
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ----------------------------------------------------------------------
# validation

def validate_event(record) -> list[str]:
    """Validate one decoded event record; returns a list of problems.

    Known kinds validate strictly against :data:`EVENT_FIELDS`.  An
    unknown kind is *forward-compatible* — accepted without error —
    when it self-identifies as a later schema generation: a string
    ``event``, numeric ``ts`` and an integer ``schema`` field.  Unknown
    kinds without those credentials stay errors (a typo'd kind must
    not pass as "the future").
    """
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    kind = record.get("event")
    spec = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        if (
            isinstance(kind, str)
            and isinstance(record.get("ts"), (int, float))
            and isinstance(record.get("schema"), int)
            and not isinstance(record.get("schema"), bool)
        ):
            return []
        return [
            f"unknown event kind {kind!r} "
            "(no schema field to claim forward compatibility)"
        ]
    optional = EVENT_OPTIONAL_FIELDS.get(kind, {})
    errors = []
    for name, types in spec.items():
        if name not in record:
            errors.append(f"missing field {name!r}")
        elif not isinstance(record[name], types):
            errors.append(
                f"field {name!r} has type {type(record[name]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    for name in record:
        if name in spec:
            continue
        if name in optional:
            if not isinstance(record[name], optional[name]):
                errors.append(f"optional field {name!r} has wrong type")
            continue
        errors.append(f"unexpected field {name!r}")
    if "status" in spec and record.get("status") not in _STATUS_VALUES:
        errors.append(f"status {record.get('status')!r} not in ok/error")
    if isinstance(record.get("seconds"), (int, float)):
        if record["seconds"] < 0:
            errors.append("negative seconds")
    if kind == "progress" and not errors:
        if not 0 <= record["done"] <= record["total"]:
            errors.append("done outside [0, total]")
        if record["eta_seconds"] < 0:
            errors.append("negative eta_seconds")
        for index, entry in enumerate(record["slowest"]):
            if (
                not isinstance(entry, dict)
                or not isinstance(entry.get("name"), str)
                or not isinstance(entry.get("seconds"), (int, float))
            ):
                errors.append(
                    f"slowest[{index}] is not a {{name, seconds}} object"
                )
    return errors


def validate_event_line(line: str) -> list[str]:
    """Validate one raw JSONL line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        return [f"invalid JSON: {exc}"]
    return validate_event(record)


def validate_event_log(path: str | Path) -> tuple[int, list[str]]:
    """Validate a whole JSONL file; returns (line count, problems)."""
    count = 0
    problems: list[str] = []
    with Path(path).open(encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                problems.append(f"line {number}: empty line")
                continue
            count += 1
            for error in validate_event_line(line):
                problems.append(f"line {number}: {error}")
    return count, problems
