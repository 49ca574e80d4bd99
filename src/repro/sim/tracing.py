"""Simulation-time structured tracing.

A :class:`TraceLog` records timestamped, categorised events during a run.
It is the backbone of the paper-figure reproduction: replication protocols
emit phase-transition records into a trace, and the figure benchmarks
render and validate those records against the paper's diagrams.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import islice, starmap
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceEvent", "TraceLog"]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped record.

    Attributes
    ----------
    time:
        Simulated time at which the event was recorded.
    category:
        Free-form grouping key, e.g. ``"phase"``, ``"fd"``, ``"fault"``.
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


class TraceLog:
    """Append-only log of timestamped records with query helpers.

    The log is three columns, not one object per record: an ``array('d')``
    of times, an ``array('H')`` of schema ids — a schema is a record's
    ``(category, keys)``, numbered the first time it is written (at most
    65 536 of them) — and one flat list that gets ``source, *values`` per
    record.  A record costs
    about 45 bytes (a phase record: one double, one short, four list
    slots) and allocates no object the cyclic collector tracks, so a long
    run's log costs neither collection time nor collections.
    :class:`TraceEvent` is the read-side type — the queries (iteration,
    :attr:`events`, :meth:`select`, :meth:`dump`) build one per record
    they return, ``data`` in the order the record was written; nothing
    else constructs one.

    ``max_events`` turns the log into a ring buffer: once the bound is
    reached the oldest records are discarded (``dropped_events`` counts
    them), which keeps long soak runs at constant memory.  ``None``
    (default) keeps every record.  A discard moves a head cursor; the
    columns are compacted once ``max_events`` discarded records sit
    before it, so a discard costs O(1) amortised and the columns never
    hold more than twice the bound.

    ``obs`` is an optional, duck-typed observer (:mod:`repro.obs`), held
    the way :class:`~repro.net.Network` holds one: every record, once
    stored, is handed to ``obs._on_trace_event(category, source, keys,
    values)``.  An exception it raises surfaces where the record was
    written, with the record already in the log.
    """

    def __init__(
        self, sim: Any = None, max_events: Optional[int] = None, obs: Any = None
    ) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self._sim = sim
        self.max_events = max_events
        self._times = array("d")
        self._schema_ids = array("H")
        self._fields: List[Any] = []
        # The oldest kept record, and the offset of its source in _fields:
        # what lies before them has been discarded but not yet compacted.
        self._head = self._fields_head = 0
        # Schema id -> (category, keys), and back.
        self._schemas: List[Tuple[str, Tuple[str, ...]]] = []
        self._schema_id: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.obs = obs
        self.dropped_events = 0

    def record(self, category: str, source: str, **data: Any) -> None:
        """Append a record stamped with the current simulated time.

        Returns nothing: the log keeps columns, not an object to hand
        back.  Read the record through the queries (``trace.events[-1]``).
        """
        self.append(category, source, tuple(data), tuple(data.values()))

    def append(
        self, category: str, source: str, keys: Tuple[str, ...], values: tuple
    ) -> None:
        """Positional form of :meth:`record`: ``values`` named by ``keys``.

        For a caller that writes one schema many times and keeps its
        ``keys`` tuple (:class:`~repro.core.phases.PhaseTracer`).  Every
        record goes through here: time stamp, ring-buffer accounting,
        the append, the observer.
        """
        if len(values) != len(keys):
            # The flat field column is only readable if every record of a
            # schema is exactly as wide as its keys.
            raise ValueError(f"{len(values)} values for keys {keys!r}")
        sim = self._sim
        now = 0.0 if sim is None else sim.now
        schema = self._schema_id.get((category, keys))
        if schema is None:
            schema = self._schema_id[category, keys] = len(self._schemas)
            self._schemas.append((category, keys))
        bound = self.max_events
        if bound is not None and len(self._times) - self._head == bound:
            self._discard_oldest()
        self._schema_ids.append(schema)  # first: past 65 535 it raises
        self._times.append(now)
        fields = self._fields
        fields.append(source)
        fields += values
        if self.obs is not None:
            self.obs._on_trace_event(category, source, keys, values)

    def _discard_oldest(self) -> None:
        head = self._head
        self._fields_head += 1 + len(self._schemas[self._schema_ids[head]][1])
        self._head = head = head + 1
        self.dropped_events += 1
        if head == self.max_events:
            del self._times[:head]
            del self._schema_ids[:head]
            del self._fields[:self._fields_head]
            self._head = self._fields_head = 0

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._times) - self._head

    def _records(self) -> Iterator[Tuple[float, int, int]]:
        """``(time, schema id, offset of the source in _fields)`` of every
        kept record, oldest first."""
        schemas = self._schemas
        at = self._fields_head
        head, stop = self._head, len(self._times)
        for time, schema in zip(islice(self._times, head, stop),
                                islice(self._schema_ids, head, stop)):
            yield time, schema, at
            at += 1 + len(schemas[schema][1])

    def _event_at(self, time: float, schema: int, at: int) -> TraceEvent:
        category, keys = self._schemas[schema]
        fields = self._fields
        values = fields[at + 1:at + 1 + len(keys)]
        return TraceEvent(time, category, fields[at], dict(zip(keys, values)))

    def __iter__(self) -> Iterator[TraceEvent]:
        return starmap(self._event_at, self._records())

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events in insertion (time) order, built afresh."""
        return list(self)

    def _matching(
        self, category: Optional[str], source: Optional[str], data_filters: dict
    ) -> Iterator[Tuple[float, int, int]]:
        """Records passing the filters; no event is built to decide.

        The category, and a filter on a key the schema lacks (which reads
        as None, like ``event.data.get(key)``), are decided once per
        schema.
        """
        checks_of: Dict[int, List[Tuple[int, Any]]] = {}
        for schema, (schema_category, keys) in enumerate(self._schemas):
            if category is not None and schema_category != category:
                continue
            checks = []
            for key, wanted in data_filters.items():
                if key in keys:
                    checks.append((1 + keys.index(key), wanted))
                elif wanted is not None:
                    break
            else:
                checks_of[schema] = checks
        fields = self._fields
        for record in self._records():
            checks = checks_of.get(record[1])
            if checks is None:
                continue
            at = record[2]
            if source is not None and fields[at] != source:
                continue
            for offset, wanted in checks:
                if fields[at + offset] != wanted:
                    break
            else:
                yield record

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
        return list(starmap(self._event_at,
                            self._matching(category, source, data_filters)))

    def count(
        self,
        category: Optional[str] = None,
        source: Optional[str] = None,
        **data_filters: Any,
    ) -> int:
        """Number of events :meth:`select` would return, none of them built."""
        return sum(1 for _ in self._matching(category, source, data_filters))

    def clear(self) -> None:
        """Discard all recorded events (the observer is kept)."""
        del self._times[:], self._schema_ids[:], self._fields[:]
        self._head = self._fields_head = 0

    def dump(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering of the trace (the newest ``limit``
        records, if given), newest last."""
        records = self._records()
        if limit is not None:
            records = islice(records, max(len(self) - limit, 0), None)
        return "\n".join(repr(self._event_at(*record)) for record in records)
