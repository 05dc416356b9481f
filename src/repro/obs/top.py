"""``repro obs top``: a live terminal dashboard over the event stream.

The dashboard consumes bus envelopes over HTTP from a served run's
``/events`` SSE endpoint (``--url`` / ``--host``/``--port``) and folds
them into one screen of run state:

* a progress bar per stage (done/total, percent, ETA) from ``progress``
  heartbeats;
* parse-cache and statement-reuse rates plus artifact hit/recompute
  counts from ``metrics`` and ``artifact`` envelopes;
* warning totals by code from ``warning`` envelopes;
* peak RSS per telemetry scope from ``resource`` envelopes;
* the closing status line from the ``run`` marker.

Everything here is a pure fold: :meth:`DashboardState.apply` takes one
envelope, :func:`render_dashboard` renders the state to a string, and
:func:`run_top` just loops — which is what makes the whole surface unit
testable without a terminal or a server.
"""

from __future__ import annotations

import json
import time

#: Redraw throttle (seconds) when the stream is busy.
DEFAULT_INTERVAL = 0.5

#: Progress-bar width in characters.
BAR_WIDTH = 30

#: ANSI: cursor home + clear to end of screen (one flicker-free frame).
CLEAR = "\x1b[H\x1b[J"


# ----------------------------------------------------------------------
# SSE parsing (the client side of repro.obs.server's /events)

def sse_events(lines) -> "iter[dict]":
    """Parse an SSE line stream into bus envelopes.

    ``lines`` is any iterable of text lines (an ``urlopen`` response,
    a file, a list in tests).  Yields the JSON-decoded ``data:`` payload
    of each complete frame; comment lines (keepalives) and unknown
    fields are skipped per the SSE spec.
    """
    data_parts: list[str] = []
    for raw in lines:
        line = raw.decode() if isinstance(raw, bytes) else raw
        line = line.rstrip("\r\n")
        if not line:  # blank line terminates a frame
            if data_parts:
                try:
                    yield json.loads("\n".join(data_parts))
                except json.JSONDecodeError:
                    pass  # a torn frame must not kill the dashboard
                data_parts = []
            continue
        if line.startswith(":"):
            continue  # keepalive comment
        field, _, value = line.partition(":")
        if value.startswith(" "):
            value = value[1:]
        if field == "data":
            data_parts.append(value)


# ----------------------------------------------------------------------
# the state fold

class DashboardState:
    """Everything one screen shows, folded from envelopes."""

    def __init__(self):
        self.stages: dict[str, dict] = {}  # insertion order = first seen
        self.counters: dict[str, int] = {}
        self.artifacts = {"hit": 0, "recompute": 0}
        self.warning_codes: dict[str, int] = {}
        self.resources: dict[str, int] = {}  # scope -> peak RSS bytes
        self.spans = 0
        self.last_span: dict | None = None
        self.run_status: str | None = None
        self.run_command: str | None = None
        self.events = 0
        self.last_id = 0

    def apply(self, envelope: dict) -> None:
        """Fold one bus envelope into the state."""
        self.events += 1
        self.last_id = max(self.last_id, int(envelope.get("id", 0)))
        kind = envelope.get("kind")
        data = envelope.get("data") or {}
        if kind == "progress":
            self.stages[data.get("stage", "?")] = {
                "done": data.get("done", 0),
                "total": data.get("total", 0),
                "percent": data.get("percent", 0.0),
                "eta_seconds": data.get("eta_seconds", 0.0),
            }
        elif kind == "metrics":
            self.counters = dict(data.get("counters") or {})
        elif kind == "artifact":
            outcome = data.get("outcome")
            if outcome in self.artifacts:
                self.artifacts[outcome] += 1
        elif kind == "warning":
            code = data.get("code", "?")
            self.warning_codes[code] = self.warning_codes.get(code, 0) + 1
        elif kind == "resource":
            scope = data.get("scope", "?")
            rss = int(data.get("peak_rss_bytes") or 0)
            self.resources[scope] = max(self.resources.get(scope, 0), rss)
        elif kind == "span":
            self.spans += 1
            self.last_span = {
                "name": data.get("name", "?"),
                "seconds": data.get("seconds", 0.0),
            }
        elif kind == "run":
            self.run_status = data.get("status")
            self.run_command = data.get("command")

    # -- derived rates -------------------------------------------------
    def _rate(self, hit_key: str, miss_key: str) -> float | None:
        hits = self.counters.get(hit_key, 0)
        misses = self.counters.get(miss_key, 0)
        total = hits + misses
        return hits / total if total else None

    @property
    def parse_cache_rate(self) -> float | None:
        return self._rate("parse_cache.hits", "parse_cache.misses")

    @property
    def statement_reuse_rate(self) -> float | None:
        return self._rate(
            "parse_cache.statement_hits", "parse_cache.statement_misses"
        )

    @property
    def warning_count(self) -> int:
        return sum(self.warning_codes.values())

    @property
    def peak_rss_bytes(self) -> int:
        return max(self.resources.values(), default=0)


# ----------------------------------------------------------------------
# rendering

def _bar(done: int, total: int, width: int = BAR_WIDTH) -> str:
    if total <= 0:
        return "[" + "-" * width + "]"
    filled = round(min(1.0, done / total) * width)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _fmt_eta(seconds: float) -> str:
    if seconds >= 60.0:
        minutes, rest = divmod(round(seconds), 60)
        return f"{minutes}m{rest:02d}s"
    return f"{seconds:.1f}s"


def render_dashboard(state: DashboardState, width: int = 80) -> str:
    """One frame of the dashboard as a plain multi-line string."""
    lines = [
        f"repro obs top — {state.events} events (last id {state.last_id})"
    ]
    lines.append("-" * min(width, 72))
    if state.stages:
        name_width = max(len(name) for name in state.stages)
        for name, row in state.stages.items():
            done, total = row["done"], row["total"]
            tail = f"{done}/{total} ({row['percent']:.0f}%)"
            if total and done < total:
                tail += f" eta {_fmt_eta(row['eta_seconds'])}"
            lines.append(
                f"{name:<{name_width}} {_bar(done, total)} {tail}"
            )
    else:
        lines.append("(no progress heartbeats yet)")
    rates = []
    if state.parse_cache_rate is not None:
        rates.append(f"parse-cache {state.parse_cache_rate:.0%}")
    if state.statement_reuse_rate is not None:
        rates.append(f"stmt-reuse {state.statement_reuse_rate:.0%}")
    if state.artifacts["hit"] or state.artifacts["recompute"]:
        rates.append(
            f"artifacts {state.artifacts['hit']} hit / "
            f"{state.artifacts['recompute']} recomputed"
        )
    if rates:
        lines.append("  ".join(rates))
    if state.peak_rss_bytes:
        scopes = ", ".join(
            f"{scope} {rss / 2**20:.0f} MiB"
            for scope, rss in sorted(state.resources.items())
        )
        lines.append(f"peak RSS: {scopes}")
    if state.warning_count:
        codes = ", ".join(
            f"{code}×{count}"
            for code, count in sorted(state.warning_codes.items())
        )
        lines.append(f"warnings: {state.warning_count} ({codes})")
    if state.spans:
        last = state.last_span or {}
        lines.append(
            f"spans: {state.spans} closed "
            f"(last {last.get('name')} {last.get('seconds', 0):.3f}s)"
        )
    if state.run_status is not None:
        lines.append(
            f"run {state.run_command or '?'} finished: {state.run_status}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the drive loop

def run_top(
    envelopes,
    *,
    out,
    interval: float = DEFAULT_INTERVAL,
    max_events: int | None = None,
    plain: bool = False,
    clock=time.monotonic,
) -> DashboardState:
    """Fold an envelope stream into frames written to ``out``.

    ``plain`` writes each frame as a block (logs, pipes, tests); the
    default clears the screen per frame for a live terminal.  Stops
    after ``max_events`` envelopes, when the stream ends, or at the
    ``run`` marker; always renders a final frame.  Returns the state.
    """
    state = DashboardState()
    last_draw: float | None = None

    def draw() -> None:
        frame = render_dashboard(state)
        if plain:
            out.write(frame + "\n\n")
        else:
            out.write(CLEAR + frame + "\n")
        out.flush()

    for envelope in envelopes:
        state.apply(envelope)
        now = clock()
        if last_draw is None or now - last_draw >= interval:
            draw()
            last_draw = now
        if max_events is not None and state.events >= max_events:
            break
        if state.run_status is not None:
            break
    draw()
    return state


def url_envelopes(url: str, *, last_id: int = 0, limit: int | None = None):
    """The HTTP source: envelopes from a served run's ``/events``."""
    from urllib.request import Request, urlopen

    endpoint = url.rstrip("/") + "/events"
    if limit is not None:
        endpoint += f"?limit={limit}"
    request = Request(endpoint)
    if last_id:
        request.add_header("Last-Event-ID", str(last_id))
    with urlopen(request) as response:
        yield from sse_events(response)
