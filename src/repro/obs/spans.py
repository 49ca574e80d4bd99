"""Causal span tracing for simulated runs.

The paper's five-phase functional model is a span model in disguise:
every client request is a *trace* whose child spans are phase
executions, message flights, handler invocations and resource waits.
:class:`SpanTracer` records those spans with causal parent links so a
run can be *explained* — which replica spent how long in which phase of
which request, and why — instead of merely totalled.

Design constraints, both load-bearing:

* **Deterministic.**  Span ids come from a per-tracer counter and times
  from the simulated clock, so two same-seed runs produce byte-identical
  span sets (enforced by ``tests/test_obs.py``).  Nothing here touches
  wall clocks, RNGs or object identity.
* **Zero-cost when disabled.**  Instrumented layers hold an optional
  observer and guard every hook with a ``None`` check; no tracer object
  is ever constructed for an unobserved run.

A span *is* its id: recording returns the id, and finishing, pushing
and parenting take one.  The tracer keeps spans as columns, and
:class:`Span` is the read-side type, built only when a reader asks for
one (see :class:`SpanTracer`).

Causality is propagated with an explicit context stack: the layer that
starts work on behalf of a span pushes its id (client dispatch, message
handler entry), and spans started while it is on top become its
children.  Cross-node causality rides on the message envelope — the
network stamps each :class:`~repro.net.message.Message` with the span id
of its flight span, and the receiving node parents its handler span
under it.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence as SequenceABC
from itertools import accumulate, chain, repeat, starmap
from types import SimpleNamespace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Span", "SpanTracer", "SPAN", "INSTANT"]

SPAN = "span"
INSTANT = "instant"


class Span:
    """One timed, causally linked unit of work, as a reader sees it.

    A snapshot built from the tracer's columns (:attr:`SpanTracer.spans`,
    :meth:`SpanTracer.get`): changing it changes nothing recorded, and a
    span finished later is not updated in it.

    Attributes
    ----------
    span_id:
        Tracer-local identifier, allocated in creation order.
    parent_id:
        Span this one is causally nested under (``None`` for roots).
    trace_id:
        The request this span belongs to (client request id), or ``""``
        for background activity such as heartbeats.
    name, category:
        Display name and grouping key (``"request"``, ``"message"``,
        ``"handle"``, ``"phase"``, ``"lock"``, ``"gc"``, ``"fd"``, ...).
    source:
        The node (or component) that did the work.
    start, end:
        Simulated times; ``end`` is ``None`` while the span is open.
    kind:
        ``"span"`` for an interval, ``"instant"`` for a point event.
    status:
        ``"ok"`` unless the work failed or was abandoned (e.g.
        ``"dropped:partition"`` for a lost message).
    attrs:
        Deterministically ordered payload of primitive values.
    """

    __slots__ = (
        "span_id", "parent_id", "trace_id", "name", "category", "source",
        "start", "end", "kind", "status", "attrs",
    )

    def __init__(
        self, span_id: int, parent_id: Optional[int], trace_id: str, name: str,
        category: str, source: str, start: float, end: Optional[float] = None,
        kind: str = SPAN, status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.category = category
        self.source = source
        self.start = start
        self.end = end
        self.kind = kind
        self.status = status
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:
        tail = f"..{self.end:.1f}" if self.end is not None else ".."
        return (
            f"<Span #{self.span_id} {self.category}/{self.name} "
            f"@{self.source} {self.start:.1f}{tail}>"
        )


# A span's fields in the order of Span's slots, its attrs as their keys
# and their values: what SpanTracer.rows yields and the exporters render.
Row = Tuple[int, Optional[int], str, str, str, str, float, Optional[float],
            str, str, Tuple[Any, ...], Sequence[Any]]


def _span(*row: Any) -> Span:
    """The :class:`Span` of a :data:`Row`."""
    return Span(*row[:10], dict(zip(row[10], row[11])))


# Clock of a tracer built without one: every span is stamped 0.0.
_NO_CLOCK = SimpleNamespace(now=0.0)

# The end time of a span still open.  No clock reads it, and no time
# compares above it.
_OPEN = float("-inf")

# Spans between two entries of the index into the flat attr values, and
# spans read per block by SpanTracer.rows.
_MARK_EVERY = 64
_BLOCK = 1024


class SpanTracer:
    """Records spans against a simulated clock, as columns.

    ``clock`` is anything with a ``now`` attribute (the simulator); the
    tracer never advances it.  The context stack is synchronous-only by
    design: the discrete-event kernel runs one callback at a time, so a
    push/pop pair around a dispatch brackets exactly the work that
    dispatch caused directly.  Work it *scheduled* (timers, processes)
    runs later with an empty context and must be linked explicitly via
    ``parent_id`` if causality matters.

    A span is its id, and span ``n`` is the ``n``-th recorded.  The
    tracer keeps no object per span, but columns, one entry a span:

    * start and end times in ``array('d')``, the end ``-inf`` while the
      span is open (a time is kept as a float);
    * the parent id in ``array('q')``, 0 for none;
    * the trace id in a list;
    * name, category, source and kind as one label id in ``array('I')``,
      a label numbered the first time it is recorded;
    * the attrs as a schema id in ``array('I')`` — a schema is a keys
      tuple, numbered on first use as :class:`~repro.sim.TraceLog`
      numbers its records' — and the values in one flat list;
    * the status only where it is not ``"ok"``, and the attrs
      :meth:`finish` adds, in dicts keyed by id.

    A message span costs about 100 bytes and no object the cyclic
    collector tracks.  :class:`Span` is the read-side type, built afresh
    by :attr:`spans`, :meth:`get`, :meth:`for_trace` and
    :meth:`open_spans`; :meth:`rows` hands the same fields to the
    exporters as tuples.
    """

    def __init__(self, clock: Any = None) -> None:
        self._clock = clock if clock is not None else _NO_CLOCK
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._trace_ids: List[str] = []
        self._label_ids = array("I")
        # Label id -> (name, category, source, kind), and back.
        self._labels: List[Tuple[str, str, str, str]] = []
        self._label_id: Dict[Tuple[str, str, str, str], int] = {}
        self._schema_ids = array("I")
        # Schema id -> keys, and back for keys that are all exact strs.
        self._schemas: List[Tuple[Any, ...]] = []
        self._schema_id: Dict[Tuple[str, ...], int] = {}
        self._values: List[Any] = []
        # Offset in _values of the first value of every _MARK_EVERY-th span.
        self._marks = array("q")
        self._status: Dict[int, str] = {}
        self._added_attrs: Dict[int, Dict[str, Any]] = {}
        self._stack: List[int] = []
        self._finalized = False
        # Spans before this index were bounded by finalize(); only later
        # ones (a hook firing after finalization) can still be open.
        self._bounded = 0

    @property
    def now(self) -> float:
        return self._clock.now

    # -- recording ---------------------------------------------------------

    def start(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        use_context: bool = True,
        **attrs: Any,
    ) -> int:
        """Open a span; parent and trace default from the context stack."""
        parent = self._parent(parent_id, use_context)
        return self.record(name, category, source, trace_id, parent,
                           tuple(attrs), attrs.values())

    def record(
        self, name: str, category: str, source: str, trace_id: Optional[str],
        parent: Optional[int], keys: Tuple[str, ...], values: Sequence[Any],
        kind: str = SPAN,
    ) -> int:
        """Positional core of :meth:`start` and :meth:`instant`; the new id.

        For the per-message hooks, which have the parent id in hand and
        keep one ``keys`` tuple per shape of attrs: ``values`` are the
        attrs those keys name, in order.  A ``None`` trace id inherits
        the parent's.
        """
        if len(values) != len(keys):
            # The flat value column is only readable if every span of a
            # schema is exactly as wide as its keys.
            raise ValueError(f"{len(values)} values for keys {keys!r}")
        index = len(self._starts)
        if trace_id is None:
            trace_id = self._trace_ids[parent - 1] if parent else ""
        label = self._label_id.get((name, category, source, kind))
        if label is None:
            label = self._label_id[name, category, source, kind] = len(self._labels)
            self._labels.append((name, category, source, kind))
        schema = self._schema_id.get(keys)
        if schema is None:
            schema = self._new_schema(keys)
        if not index % _MARK_EVERY:
            self._marks.append(len(self._values))
        now = self._clock.now
        self._starts.append(now)
        self._ends.append(now if kind == INSTANT else _OPEN)
        self._parents.append(parent or 0)
        self._trace_ids.append(trace_id)
        self._label_ids.append(label)
        self._schema_ids.append(schema)
        self._values += values
        return index + 1

    def _new_schema(self, keys: Tuple[Any, ...]) -> int:
        """Number ``keys``; only exact-``str`` keys are looked up again.

        Keys of other types can be equal and print differently (``1``,
        ``1.0`` and ``True``), so a tuple holding one gets a schema of its
        own every time.  Keys must be distinct, as a dict's are.
        """
        if len(set(keys)) != len(keys):
            raise ValueError(f"repeated attr keys {keys!r}")
        schema = len(self._schemas)
        self._schemas.append(keys)
        if all(key.__class__ is str for key in keys):
            self._schema_id[keys] = schema
        return schema

    def finish(self, span_id: int, status: Optional[str] = None, **attrs: Any) -> None:
        """Close a span at the current simulated time (idempotent).

        ``attrs`` are added to the span's as ``dict.update`` would.
        """
        index = span_id - 1
        if self._ends[index] == _OPEN:
            self._ends[index] = self._clock.now
        if status is not None:
            if status == "ok":
                self._status.pop(span_id, None)
            else:
                self._status[span_id] = status
        if attrs:
            added = self._added_attrs.get(span_id)
            if added is None:
                self._added_attrs[span_id] = attrs
            else:
                added.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        """Record a point event (start == end)."""
        parent = self._parent(parent_id, True)
        return self.record(name, category, source, trace_id, parent,
                           tuple(attrs), attrs.values(), INSTANT)

    # -- causal context ---------------------------------------------------

    def push(self, span_id: int) -> None:
        self._stack.append(span_id)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def _parent(self, parent_id: Optional[int], use_context: bool) -> Optional[int]:
        """The explicit parent if it exists, else the top of the context."""
        if parent_id is not None and 0 < parent_id <= len(self._starts):
            return parent_id
        if use_context and self._stack:
            return self._stack[-1]
        return None

    def context(self, span_id: Optional[int]) -> "_Scope":
        """Make ``span_id`` the causal parent for the enclosed block."""
        return _Scope(self, span_id)

    def span(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        use_context: bool = True,
        **attrs: Any,
    ) -> "_Scope":
        """Start a span, make it current, finish it on exit.

        The arguments are those of :meth:`start`; the parent is taken
        when the scope is made.  An exception escaping the block (a
        handler interrupted by a node crash, an unknown-destination
        raise) still closes the span, but tagged
        ``error:<ExceptionType>`` instead of ``ok`` — error paths must
        never leave a span open or mislabelled as clean.
        """
        return self.record_scope(
            name, category, source, trace_id, self._parent(parent_id, use_context),
            tuple(attrs), tuple(attrs.values()),
        )

    def record_scope(
        self, name: str, category: str, source: str, trace_id: Optional[str],
        parent: Optional[int], keys: Tuple[str, ...], values: Sequence[Any],
    ) -> "_Scope":
        """Positional form of :meth:`span`, as :meth:`record` is of
        :meth:`start`: the span is recorded when the block is entered."""
        return _Scope(self, None, (name, category, source, trace_id, parent,
                                   keys, values))

    # -- hook reads ---------------------------------------------------------

    def trace_of(self, span_id: Optional[int]) -> Optional[str]:
        """Trace id of a span, ``None`` if there is no such span."""
        if span_id is None or not 0 < span_id <= len(self._trace_ids):
            return None
        return self._trace_ids[span_id - 1]

    def name_of(self, span_id: int) -> str:
        return self._labels[self._label_ids[span_id - 1]][0]

    def interval(self, span_id: int) -> Tuple[float, Optional[float]]:
        """Start and end of a span (the end ``None`` while it is open)."""
        end = self._ends[span_id - 1]
        return self._starts[span_id - 1], None if end == _OPEN else end

    # -- queries ------------------------------------------------------------

    @property
    def spans(self) -> Sequence[Span]:
        """Every span in id order, a read-only sequence that builds each
        :class:`Span` on access.  A reader that scans more than once
        takes one ``list(tracer.spans)``."""
        return _Spans(self)

    def get(self, span_id: Optional[int]) -> Optional[Span]:
        """A fresh snapshot of one span, ``None`` if there is no such span."""
        if span_id is None or not 0 < span_id <= len(self._starts):
            return None
        return _span(*next(self.rows(span_id - 1, span_id)))

    def rows(self, start: int = 0, stop: Optional[int] = None) -> Iterator[Row]:
        """The spans at positions ``start:stop`` as :data:`Row` tuples,
        read a block of spans at a time: what the exporters render, with
        no :class:`Span` and no attrs dict built."""
        start, stop, _ = slice(start, stop).indices(len(self._starts))
        return chain.from_iterable(starmap(self._block, (
            (low, min(low + _BLOCK, stop)) for low in range(start, stop, _BLOCK)
        )))

    def _block(self, start: int, stop: int) -> Iterator[Row]:
        """The rows of positions ``start:stop``, built column by column
        (the loops run in ``map`` and ``zip``, not per span in Python)."""
        ids = range(start + 1, stop + 1)
        names, categories, sources, kinds = zip(
            *map(self._labels.__getitem__, self._label_ids[start:stop])
        )
        keys = list(map(self._schemas.__getitem__, self._schema_ids[start:stop]))
        offsets = list(accumulate(map(len, keys), initial=self._offset(start)))
        values = list(map(self._values.__getitem__, map(slice, offsets, offsets[1:])))
        added = self._added_attrs
        for span_id in filter(added.__contains__, ids):
            # Merged as dict.update merges: new keys go last.
            at = span_id - ids.start
            attrs = dict(zip(keys[at], values[at]))
            attrs.update(added[span_id])
            keys[at], values[at] = tuple(attrs), list(attrs.values())
        return zip(
            ids, [parent or None for parent in self._parents[start:stop]],
            self._trace_ids[start:stop], names, categories, sources,
            self._starts[start:stop],
            [None if end == _OPEN else end for end in self._ends[start:stop]],
            kinds, map(self._status.get, ids, repeat("ok")), keys, values,
        )

    def _offset(self, index: int) -> int:
        """Offset in the flat values of the first attr value of span
        position ``index``: the nearest mark, plus the widths after it."""
        at = self._marks[index // _MARK_EVERY]
        schemas = self._schemas
        for schema in self._schema_ids[index - index % _MARK_EVERY:index]:
            at += len(schemas[schema])
        return at

    def sources(self) -> Set[str]:
        """Every source some span was recorded at."""
        return {label[2] for label in self._labels}

    def for_trace(self, trace_id: str) -> List[Span]:
        """Spans of one request, in (start time, creation) order."""
        spans = [
            self.get(position)
            for position, owner in enumerate(self._trace_ids, start=1)
            if owner == trace_id
        ]
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def open_spans(self) -> List[Span]:
        """Spans not yet closed, in creation order (empty after finalize)."""
        ends = self._ends
        return [
            self.get(index + 1)
            for index in range(self._bounded, len(ends)) if ends[index] == _OPEN
        ]

    def phase_sequence(
        self, trace_id: str, source: Optional[str] = None
    ) -> List[str]:
        """Phase-span names of a request in time order (one trace's row)."""
        return [
            s.name
            for s in self.for_trace(trace_id)
            if s.category == "phase" and (source is None or s.source == source)
        ]

    def finalize(self) -> int:
        """Close every still-open span at the last simulated instant.

        Lazy techniques legitimately leave spans open (an AC phase whose
        propagation outlives the run); exports need every interval
        bounded.  The horizon is the first greatest of the clock, then
        each span's start and end in id order; returns how many spans it
        had to close.  Idempotent (later calls close nothing and return
        0).
        """
        if self._finalized:
            return 0
        self._finalized = True
        starts, ends, status = self._starts, self._ends, self._status
        horizon = max(chain((self._clock.now,),
                            chain.from_iterable(zip(starts, ends))))
        stragglers = [index for index, end in enumerate(ends) if end == _OPEN]
        for index in stragglers:
            ends[index] = horizon
            if status.get(index + 1, "ok") == "ok":
                status[index + 1] = "open"
        self._bounded = len(starts)
        return len(stragglers)

    def __len__(self) -> int:
        return len(self._starts)

    def __repr__(self) -> str:
        return f"<SpanTracer spans={len(self)} open={len(self.open_spans())}>"


class _Spans(SequenceABC):
    """:attr:`SpanTracer.spans`: the spans, each built on access."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: SpanTracer) -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer)

    def __getitem__(self, index: Any) -> Any:
        # Indexing the range of ids checks and resolves the index.
        ids = range(1, len(self._tracer) + 1)[index]
        if isinstance(ids, range):
            return [self._tracer.get(span_id) for span_id in ids]
        return self._tracer.get(ids)

    def __iter__(self) -> Iterator[Span]:
        return starmap(_span, self._tracer.rows())

    def __repr__(self) -> str:
        return f"<spans of {self._tracer!r}>"


class _Scope:
    """The ``with`` block of :meth:`SpanTracer.context` and ``.span``.

    Keeps ``span`` on the context stack for the block (``None``: nothing
    happens).  Given ``start`` — the arguments of :meth:`SpanTracer.record`
    — it records that span on entry and finishes it on exit instead.
    """

    __slots__ = ("_tracer", "_span", "_start")

    def __init__(self, tracer: SpanTracer, span: Optional[int],
                 start: Optional[tuple] = None) -> None:
        self._tracer = tracer
        self._span = span
        self._start = start

    def __enter__(self) -> Optional[int]:
        if self._start is not None:
            self._span = self._tracer.record(*self._start)
        if self._span is not None:
            self._tracer.push(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._span is not None:
            self._tracer.pop()
            if self._start is not None:
                status = f"error:{exc_type.__name__}" if exc_type else None
                self._tracer.finish(self._span, status=status)
