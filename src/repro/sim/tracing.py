"""Simulation-time structured tracing.

A :class:`TraceLog` records timestamped, categorised events during a run.
It is the backbone of the paper-figure reproduction: replication protocols
emit phase-transition records into a trace, and the figure benchmarks
render and validate those records against the paper's diagrams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped record.

    Attributes
    ----------
    time:
        Simulated time at which the event was recorded.
    category:
        Free-form grouping key, e.g. ``"phase"``, ``"message"``, ``"crash"``.
    source:
        Identifier of the component that recorded the event (node name,
        protocol name, ...).
    data:
        Arbitrary payload describing the event.
    """

    time: float
    category: str
    source: str
    data: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        return f"[{self.time:9.3f}] {self.category}/{self.source}: {items}"


def _event(row: tuple) -> TraceEvent:
    """The event a stored row stands for (see :class:`TraceLog`)."""
    return TraceEvent(row[0], row[1], row[2], dict(zip(row[3], row[4:])))


class TraceLog:
    """Append-only log of timestamped records with query helpers.

    A record is stored as one flat tuple row, ``(time, category, source,
    keys, *values)``, where ``keys`` names the values and is one shared
    tuple per record schema.  Rows of strings and numbers hold nothing
    the cyclic collector has to follow, so it drops them from its lists
    the first time it meets them: a long run's log costs memory, not
    collection time.  :class:`TraceEvent` is the read-side type — the
    queries (iteration, :attr:`events`, :meth:`select`, :meth:`dump`)
    build one per row they return, and so does a record while a
    subscriber is attached; nothing else constructs one.

    ``max_events`` turns the log into a ring buffer: once the bound is
    reached the oldest records are discarded (``dropped_events`` counts
    them), which keeps long soak runs at constant memory.  ``None``
    (default) keeps every record.

    Subscribers are *isolated*: the row is appended to the log before
    any subscriber runs, and a subscriber that raises is unsubscribed and
    its exception recorded in ``subscriber_errors`` — one broken observer
    cannot corrupt the log or starve other subscribers.
    """

    def __init__(self, sim: Any = None, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self._sim = sim
        self.max_events = max_events
        self._rows: Deque[tuple] = deque(maxlen=max_events)
        # keys tuple -> the one instance every row of that schema shares.
        self._schemas: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # A tuple, replaced (never mutated) by subscribe() and on eviction:
        # append() iterates it as is, with no per-record snapshot copy.
        self._subscribers: Tuple[Callable[[TraceEvent], None], ...] = ()
        self.dropped_events = 0
        self.subscriber_errors: List[Exception] = []

    def record(self, category: str, source: str, **data: Any) -> None:
        """Append a record stamped with the current simulated time.

        Returns nothing: the log keeps a row, not an object to hand back.
        Read the record through the queries (``trace.events[-1]``).
        """
        keys = tuple(data)
        self.append(category, source, self._schemas.setdefault(keys, keys),
                    tuple(data.values()))

    def append(
        self, category: str, source: str, keys: Tuple[str, ...], values: tuple
    ) -> None:
        """Positional form of :meth:`record`: ``values`` named by ``keys``.

        For a caller that writes one schema many times and keeps its
        ``keys`` tuple (:class:`~repro.core.phases.PhaseTracer`).  Every
        record goes through here: time stamp, ring-buffer accounting,
        the append, the subscriber fan-out.
        """
        sim = self._sim
        row = (0.0 if sim is None else sim.now, category, source, keys) + values
        rows = self._rows
        if len(rows) == self.max_events:  # never true of an unbounded log
            self.dropped_events += 1
        rows.append(row)
        subscribers = self._subscribers
        if subscribers:
            event = _event(row)
            for subscriber in subscribers:
                try:
                    subscriber(event)
                except Exception as exc:  # noqa: BLE001 - subscriber isolation
                    self.subscriber_errors.append(exc)
                    self._subscribers = tuple(
                        s for s in self._subscribers if s != subscriber
                    )

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` for every subsequently recorded event."""
        self._subscribers += (callback,)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_event, self._rows)

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in insertion (time) order, built afresh."""
        return list(map(_event, self._rows))

    def _matching(
        self, category: Optional[str], source: Optional[str], data_filters: dict
    ) -> Iterator[tuple]:
        """Rows passing the filters; no event is built to decide."""
        filters = tuple(data_filters.items())
        for row in self._rows:
            if category is not None and row[1] != category:
                continue
            if source is not None and row[2] != source:
                continue
            keys = row[3]
            for key, wanted in filters:
                # A key the record lacks reads as None, as data.get did.
                found = row[4 + keys.index(key)] if key in keys else None
                if found != wanted:
                    break
            else:
                yield row

    def select(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        **data_filters: Any,
    ) -> List[TraceEvent]:
        """Events matching all given filters.

        ``data_filters`` match against the event payload: an event is kept
        only if ``event.data[key] == value`` for every filter.
        """
        return list(map(_event, self._matching(category, source, data_filters)))

    def count(self, category: Optional[str] = None, **data_filters: Any) -> int:
        """Number of events matching the filters."""
        return sum(1 for _ in self._matching(category, None, data_filters))

    def clear(self) -> None:
        """Discard all recorded events (subscribers are kept)."""
        self._rows.clear()

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace, newest last."""
        rows = list(self._rows)
        if limit is not None:
            rows = rows[-limit:]
        return "\n".join(repr(_event(row)) for row in rows)
