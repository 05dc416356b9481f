"""Hierarchical span tracing for the study pipeline.

A :class:`Tracer` records a tree of :class:`Span`\\ s — one per pipeline
stage, one per project, one per sub-stage — each carrying its start
time, duration, free-form attributes and ok/error status.  The tracer is
off by default and every ``span()`` call then returns a shared no-op
object, so instrumented hot paths pay a single attribute check.

Two span flavours cover the driver and the worker side of the fan-out:

* ``tracer.span(name, **attrs)`` opens a span attached to the enclosing
  span (or as a new root) — the driver's stage spans;
* ``tracer.detached(name, **attrs)`` opens a span with *no* parent.
  Worker functions wrap their per-project work in a detached span,
  serialise it with :meth:`Span.to_dict` and ship it back with the
  result; the driver re-attaches it under its dispatching span with
  :meth:`Tracer.attach`.  The same protocol runs in-process for the
  serial path, so serial and parallel traces have the same shape.

Each run owns one tracer (on its
:class:`~repro.obs.context.RunContext`).  Enablement crosses the
process boundary with the work itself: every shard task and every
``generate_corpus`` call tells its worker whether the run traces, so a
pool started by an untraced run serves a traced one without losing a
span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .events import span_event

#: Version tag of the trace-file payload written by :func:`write_trace`.
TRACE_FORMAT = "repro-trace-v1"


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()
    enabled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attributes) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """One timed node of the trace tree (also its own context manager)."""

    name: str
    attributes: dict = field(default_factory=dict)
    started_at: float = 0.0  # epoch seconds
    seconds: float = 0.0
    status: str = "ok"
    children: list["Span"] = field(default_factory=list)

    enabled = True

    def __post_init__(self):
        self._tracer: Tracer | None = None
        self._detached = False
        self._t0 = 0.0

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            if not self._detached:
                if tracer._stack:
                    tracer._stack[-1].children.append(self)
                else:
                    tracer.roots.append(self)
            tracer._stack.append(self)
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        if exc_type is not None:
            self.status = "error"
        tracer = self._tracer
        if tracer is not None:
            if tracer._stack and tracer._stack[-1] is self:
                tracer._stack.pop()
            tracer._notify_close(self)
        return False

    # -- attributes ----------------------------------------------------
    def set(self, **attributes) -> "Span":
        """Add or overwrite span attributes."""
        self.attributes.update(attributes)
        return self

    # -- derived timings -----------------------------------------------
    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans (never below zero)."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    # -- (de)serialisation ---------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-ready tree rooted at this span."""
        return {
            "name": self.name,
            "start": round(self.started_at, 6),
            "seconds": round(self.seconds, 9),
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            name=str(data.get("name", "")),
            attributes=dict(data.get("attributes", {})),
            started_at=float(data.get("start", 0.0)),
            seconds=float(data.get("seconds", 0.0)),
            status=str(data.get("status", "ok")),
        )
        span.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return span

    def walk(self):
        """Yield this span and every descendant, children before parents
        (the order their closes would have been observed)."""
        for child in self.children:
            yield from child.walk()
        yield self


class Tracer:
    """Collects a forest of spans; no-ops entirely when disabled."""

    def __init__(self, enabled: bool = False, bus=None):
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: The telemetry bus every span close is published on as a
        #: ``span`` event — the path the event log and live SSE
        #: consumers observe.  ``None`` (the default, and every pool
        #: worker's) keeps closes in the tree only; a worker's spans
        #: are republished by the driver at attach time.
        self.bus = bus

    def _notify_close(self, span: "Span") -> None:
        """Publish one span close on the bus, if one is attached."""
        if self.bus is not None:
            self.bus.publish("span", span_event(span))

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes):
        """A span nested under the innermost open span (or a new root)."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name=name, attributes=attributes)
        span._tracer = self
        return span

    def detached(self, name: str, **attributes):
        """A parentless span for transport across the worker boundary."""
        if not self.enabled:
            return NULL_SPAN
        span = Span(name=name, attributes=attributes)
        span._tracer = self
        span._detached = True
        return span

    def attach(self, data: dict | None, *, emit: bool = False) -> Span | None:
        """Re-attach a serialised span tree under the innermost open span.

        ``emit=True`` replays the tree's span-close events onto the
        telemetry bus — used when the tree was built in a worker
        process whose closes no driver-side consumer could observe.
        In-process (serial-path) trees already emitted at close time
        and must be attached with ``emit=False``.
        """
        if not self.enabled or data is None:
            return None
        span = Span.from_dict(data)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        if emit and self.bus is not None:
            for closed in span.walk():
                self._notify_close(closed)
        return span

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """The JSON document written to ``--trace`` files."""
        return {
            "format": TRACE_FORMAT,
            "spans": [span.to_dict() for span in self.roots],
        }

    def clear(self) -> None:
        self.roots.clear()
        self._stack.clear()


def write_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write the tracer's span forest as a JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.to_payload(), indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# rendering (the `repro-study trace-view` subcommand)

#: Valid ``--sort`` orders for :func:`render_trace`.
TRACE_SORTS = ("start", "self", "total")


def render_trace(
    payload: dict,
    *,
    max_depth: int | None = None,
    sort: str = "start",
    min_ms: float | None = None,
) -> str:
    """Render a trace payload as an indented tree with self-times.

    ``sort`` orders siblings at every level: ``start`` keeps recording
    order, ``self``/``total`` sort by descending self/total seconds so
    the hot spans of a big trace surface first.  ``min_ms`` prunes
    every subtree whose total time is below the cutoff (children can
    never outlast their parent, so pruning whole subtrees is safe).
    """
    if sort not in TRACE_SORTS:
        raise ValueError(f"sort must be one of {TRACE_SORTS}, got {sort!r}")
    spans = [Span.from_dict(data) for data in payload.get("spans", ())]
    lines = [f"{'span':<44} {'total':>10} {'self':>10}"]
    for span in _ordered(spans, sort):
        _render_span(span, 0, max_depth, lines, sort=sort, min_ms=min_ms)
    return "\n".join(lines)


def _ordered(spans: list[Span], sort: str) -> list[Span]:
    if sort == "self":
        return sorted(spans, key=lambda s: s.self_seconds, reverse=True)
    if sort == "total":
        return sorted(spans, key=lambda s: s.seconds, reverse=True)
    return spans


def _render_span(
    span: Span,
    depth: int,
    max_depth: int | None,
    lines: list[str],
    *,
    sort: str = "start",
    min_ms: float | None = None,
) -> None:
    if max_depth is not None and depth > max_depth:
        return
    if min_ms is not None and span.seconds * 1000.0 < min_ms:
        return
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
    flag = "" if span.status == "ok" else f" [{span.status}]"
    label = f"{'  ' * depth}{span.name}"
    lines.append(
        f"{label:<44} {span.seconds:>9.3f}s {span.self_seconds:>9.3f}s"
        f"{flag}{'  ' + attrs if attrs else ''}"
    )
    for child in _ordered(span.children, sort):
        _render_span(child, depth + 1, max_depth, lines,
                     sort=sort, min_ms=min_ms)
