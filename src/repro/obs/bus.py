"""The in-process telemetry bus: one ordered stream for every signal.

Every emission path *publishes* a typed record, and every consumer —
the JSONL event log, an SSE client of :mod:`repro.obs.server`, the
``repro obs top`` dashboard — *subscribes*.  Each run owns one bus (on
its :class:`~repro.obs.context.RunContext`), so no consumer of one run
ever sees another run's records.

Design points, in the order they matter:

**Ordered, schema-versioned envelopes.**  :meth:`TelemetryBus.publish`
wraps each record in ``{"id": N, "kind": ..., "ts": ..., "schema":
BUS_SCHEMA_VERSION, "data": record}``.  Ids are monotonically
increasing per bus, assigned under the bus lock, so every consumer
— live or replayed — observes the same total order.  The ``id`` doubles
as the SSE event id, which is what makes ``Last-Event-ID`` reconnect
replay exact.

**Synchronous sinks for in-process consumers.**  A *sink* is a plain
callable invoked inline during ``publish`` (under the lock, so sink
delivery order is the publish order).  The ``--log-json`` event log is
a sink filtered to the JSONL kinds, so bus-only kinds never change the
log's bytes.  Sinks are never dropped; they are trusted to be fast.

**Bounded queues for streaming consumers.**  A :class:`Subscription`
owns a bounded :class:`queue.Queue` that ``publish`` feeds without ever
blocking.  The slow-consumer policy is explicit: when a subscriber's
queue is full, the *oldest* queued envelope is evicted to make room for
the new one (a live dashboard wants the freshest state; the gap is
detectable from the id sequence) and the subscription's ``dropped``
counter — and the bus-wide total surfaced at ``/metrics`` as
``repro_bus_dropped_total`` — is incremented.  Memory under a stalled
subscriber is bounded by ``capacity`` envelopes, full stop.

**A bounded replay ring.**  The bus retains the last
:data:`DEFAULT_RING_CAPACITY` envelopes (override with
:data:`BUS_CAPACITY_ENV`).  ``subscribe(last_id=N)`` seeds the queue
with every retained envelope with id > N before going live, so a
reconnecting SSE client resumes exactly where it left off — up to the
ring bound, which is the documented replay horizon.

**Worker hygiene.**  A forked pool worker runs in a fresh context
whose bus has no consumers; its telemetry travels back inside results
and the driver republishes it on the run's bus.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque

#: Schema generation of the bus envelope format.
BUS_SCHEMA_VERSION = 1

#: Environment variable overriding the replay ring capacity.
BUS_CAPACITY_ENV = "REPRO_BUS_CAPACITY"

#: Envelopes retained for ``Last-Event-ID`` replay (the replay horizon).
DEFAULT_RING_CAPACITY = 1024

#: Per-subscription queue bound (envelopes a stalled consumer may hold).
DEFAULT_QUEUE_CAPACITY = 256

#: Envelope kinds published by the core emission paths.  Consumers may
#: see other kinds (forward compatibility mirrors the event log's).
BUS_KINDS = (
    "span",        # one closed trace span (events.span_event shape)
    "warning",     # one EventRecorder warning record
    "progress",    # one heartbeat (progress.progress_event shape)
    "resource",    # one telemetry-scope footprint (run end)
    "run",         # the closing run marker
    "artifact",    # one store probe: stage/project hit or recompute
    "metrics",     # a cumulative counter snapshot (live rates)
)


def _ring_capacity() -> int:
    raw = os.environ.get(BUS_CAPACITY_ENV)
    if raw is None:
        return DEFAULT_RING_CAPACITY
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_RING_CAPACITY


class Subscription:
    """One streaming consumer's bounded, droppable event queue."""

    def __init__(self, bus: "TelemetryBus", capacity: int):
        self.bus = bus
        self.capacity = capacity
        #: Envelopes evicted from this queue because the consumer
        #: stalled (the queue was full when a new envelope arrived).
        self.dropped = 0
        self._queue: queue.Queue = queue.Queue(maxsize=capacity)
        self._closed = False

    def _offer(self, envelope: dict) -> None:
        """Enqueue without blocking; evict-oldest when full."""
        while True:
            try:
                self._queue.put_nowait(envelope)
                return
            except queue.Full:
                try:
                    self._queue.get_nowait()
                    self.dropped += 1
                    self.bus.dropped += 1
                except queue.Empty:  # raced with the consumer
                    continue

    def get(self, timeout: float | None = None) -> dict | None:
        """The next envelope, or ``None`` on timeout / after close."""
        if self._closed and self._queue.empty():
            return None
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain(self) -> list[dict]:
        """Every envelope currently queued, without blocking."""
        out: list[dict] = []
        while True:
            try:
                out.append(self._queue.get_nowait())
            except queue.Empty:
                return out

    @property
    def pending(self) -> int:
        return self._queue.qsize()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Detach from the bus; queued envelopes remain drainable."""
        self.bus.unsubscribe(self)


class TelemetryBus:
    """Thread-safe pub/sub with a replay ring; see the module docstring."""

    def __init__(self, capacity: int | None = None):
        self.capacity = capacity if capacity is not None else _ring_capacity()
        self.published = 0
        #: Bus-wide total of envelopes dropped on stalled subscribers.
        self.dropped = 0
        self._lock = threading.RLock()
        self._ring: deque[dict] = deque(maxlen=self.capacity)
        self._next_id = 1
        self._sinks: list[tuple] = []  # (callable, kinds-or-None)
        self._subscriptions: list[Subscription] = []

    # -- publishing ----------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether any consumer (sink or subscription) is attached."""
        return bool(self._sinks or self._subscriptions)

    def publish(self, kind: str, data: dict) -> dict:
        """Wrap ``data`` in an envelope and deliver it everywhere.

        Always appends to the replay ring (so a consumer attaching a
        moment later still sees the recent past), then dispatches to
        sinks inline and to subscription queues without blocking.
        Returns the envelope.
        """
        with self._lock:
            envelope = {
                "id": self._next_id,
                "kind": kind,
                "ts": round(time.time(), 6),
                "schema": BUS_SCHEMA_VERSION,
                "data": data,
            }
            self._next_id += 1
            self.published += 1
            self._ring.append(envelope)
            for sink, kinds in self._sinks:
                if kinds is None or kind in kinds:
                    sink(envelope)
            for subscription in self._subscriptions:
                subscription._offer(envelope)
        return envelope

    # -- consumers -----------------------------------------------------
    def add_sink(self, sink, kinds=None):
        """Register an inline consumer; ``kinds`` filters envelopes.

        The sink receives whole envelopes (``envelope["data"]`` is the
        original record).  Returns ``sink`` for later ``remove_sink``.
        """
        with self._lock:
            self._sinks.append((sink, frozenset(kinds) if kinds else None))
        return sink

    def remove_sink(self, sink) -> None:
        with self._lock:
            self._sinks = [
                entry for entry in self._sinks if entry[0] != sink
            ]

    def subscribe(
        self,
        *,
        last_id: int = 0,
        capacity: int = DEFAULT_QUEUE_CAPACITY,
    ) -> Subscription:
        """A queue consumer, seeded with ring replay past ``last_id``.

        Replay and the switch to live delivery happen under one lock
        acquisition, so the subscriber sees every envelope with
        ``id > last_id`` that the ring still retains, in order, with no
        gap at the seam.
        """
        subscription = Subscription(self, capacity)
        with self._lock:
            for envelope in self._ring:
                if envelope["id"] > last_id:
                    subscription._offer(envelope)
            self._subscriptions.append(subscription)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            if subscription in self._subscriptions:
                self._subscriptions.remove(subscription)
            subscription._closed = True

    # -- replay / introspection ----------------------------------------
    def replay(self, last_id: int = 0) -> list[dict]:
        """Retained envelopes with ``id > last_id``, oldest first."""
        with self._lock:
            return [e for e in self._ring if e["id"] > last_id]

    @property
    def last_id(self) -> int:
        """The id of the most recently published envelope (0 if none)."""
        with self._lock:
            return self._next_id - 1

    @property
    def oldest_retained_id(self) -> int:
        """The smallest id still replayable (0 when the ring is empty)."""
        with self._lock:
            return self._ring[0]["id"] if self._ring else 0

    def stats(self) -> dict:
        """Counters for ``/metrics`` and the manifest ``server`` block."""
        with self._lock:
            return {
                "published": self.published,
                "dropped": self.dropped,
                "subscribers": len(self._subscriptions),
                "sinks": len(self._sinks),
                "ring_size": len(self._ring),
                "ring_capacity": self.capacity,
            }
