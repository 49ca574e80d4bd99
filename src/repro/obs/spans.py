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

Causality is propagated with an explicit context stack: the layer that
starts work on behalf of a span pushes it (client dispatch, message
handler entry), and spans started while it is on top become its
children.  Cross-node causality rides on the message envelope — the
network stamps each :class:`~repro.net.message.Message` with the span id
of its flight span, and the receiving node parents its handler span
under it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanTracer", "SPAN", "INSTANT"]

SPAN = "span"
INSTANT = "instant"


class Span:
    """One timed, causally linked unit of work.

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


# Clock of a tracer built without one: every span is stamped 0.0.
_NO_CLOCK = SimpleNamespace(now=0.0)


class SpanTracer:
    """Collects :class:`Span` records against a simulated clock.

    ``clock`` is anything with a ``now`` attribute (the simulator); the
    tracer never advances it.  The context stack is synchronous-only by
    design: the discrete-event kernel runs one callback at a time, so a
    push/pop pair around a dispatch brackets exactly the work that
    dispatch caused directly.  Work it *scheduled* (timers, processes)
    runs later with an empty context and must be linked explicitly via
    ``parent_id`` if causality matters.

    Span ids are positions: span ``n`` is ``spans[n - 1]``, so lookup by
    id needs no second index.
    """

    def __init__(self, clock: Any = None) -> None:
        self._clock = clock if clock is not None else _NO_CLOCK
        self.spans: List[Span] = []
        self._stack: List[Span] = []
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
    ) -> Span:
        """Open a span; parent and trace default from the context stack."""
        parent = self._parent(parent_id, use_context)
        return self.record(name, category, source, trace_id, parent, attrs)

    def record(
        self, name: str, category: str, source: str, trace_id: Optional[str],
        parent: Optional[Span], attrs: Dict[str, Any], kind: str = SPAN,
    ) -> Span:
        """Positional core of :meth:`start` and :meth:`instant`.

        For the per-message hooks, which have the parent span in hand and
        build ``attrs`` once (the dict is kept, not copied).  A ``None``
        trace id inherits the parent's.
        """
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else ""
        now = self._clock.now
        span = Span(
            len(self.spans) + 1, parent.span_id if parent is not None else None,
            trace_id, name, category, source,
            now, now if kind is INSTANT else None, kind, "ok", attrs,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, status: Optional[str] = None, **attrs: Any) -> None:
        """Close a span at the current simulated time (idempotent)."""
        if span.end is None:
            span.end = self._clock.now
        if status is not None:
            span.status = status
        if attrs:
            span.attrs.update(attrs)

    def instant(
        self,
        name: str,
        category: str,
        source: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> Span:
        """Record a point event (start == end)."""
        parent = self._parent(parent_id, True)
        return self.record(name, category, source, trace_id, parent, attrs, INSTANT)

    # -- causal context ---------------------------------------------------

    def push(self, span: Span) -> None:
        self._stack.append(span)

    def pop(self) -> None:
        self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _parent(self, parent_id: Optional[int], use_context: bool) -> Optional[Span]:
        """The explicit parent if it exists, else the top of the context."""
        parent = self.get(parent_id)
        if parent is None and use_context and self._stack:
            parent = self._stack[-1]
        return parent

    def context(self, span: Optional[Span]) -> "_Scope":
        """Make ``span`` the causal parent for the enclosed block."""
        return _Scope(self, span)

    def span(self, name: str, category: str, source: str, **kwargs: Any) -> "_Scope":
        """Start a span, make it current, finish it on exit.

        An exception escaping the block (a handler interrupted by a node
        crash, an unknown-destination raise) still closes the span, but
        tagged ``error:<ExceptionType>`` instead of ``ok`` — error paths
        must never leave a span open or mislabelled as clean.
        """
        return _Scope(self, None, ((name, category, source), kwargs))

    # -- queries ------------------------------------------------------------

    def get(self, span_id: Optional[int]) -> Optional[Span]:
        if span_id is None or not 0 < span_id <= len(self.spans):
            return None
        return self.spans[span_id - 1]

    def for_trace(self, trace_id: str) -> List[Span]:
        """Spans of one request, in (start time, creation) order."""
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def open_spans(self) -> List[Span]:
        """Spans not yet closed, in creation order (empty after finalize)."""
        return [span for span in self.spans[self._bounded:] if span.end is None]

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
        bounded.  One walk finds the horizon and the stragglers; returns
        how many spans it had to close.  Idempotent (later calls close
        nothing and return 0).
        """
        if self._finalized:
            return 0
        self._finalized = True
        horizon = self._clock.now
        stragglers = []
        for span in self.spans:
            if span.start > horizon:
                horizon = span.start
            end = span.end
            if end is None:
                stragglers.append(span)
            elif end > horizon:
                horizon = end
        for span in stragglers:
            span.end = horizon
            if span.status == "ok":
                span.status = "open"
        self._bounded = len(self.spans)
        return len(stragglers)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return f"<SpanTracer spans={len(self.spans)} open={len(self.open_spans())}>"


class _Scope:
    """The ``with`` block of :meth:`SpanTracer.context` and ``.span``.

    Keeps ``span`` on the context stack for the block (``None``: nothing
    happens).  Given ``start`` — the arguments of :meth:`SpanTracer.start`
    — it opens that span on entry and finishes it on exit instead.
    """

    __slots__ = ("_tracer", "_span", "_start")

    def __init__(self, tracer: SpanTracer, span: Optional[Span],
                 start: Optional[tuple] = None) -> None:
        self._tracer = tracer
        self._span = span
        self._start = start

    def __enter__(self) -> Optional[Span]:
        if self._start is not None:
            args, kwargs = self._start
            self._span = self._tracer.start(*args, **kwargs)
        if self._span is not None:
            self._tracer.push(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._span is not None:
            self._tracer.pop()
            if self._start is not None:
                status = f"error:{exc_type.__name__}" if exc_type else None
                self._tracer.finish(self._span, status=status)
