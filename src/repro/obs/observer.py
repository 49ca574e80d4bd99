"""The observer: one object bundling a span tracer and a metrics registry.

Instrumented layers below ``obs`` in the import DAG (``net``, ``db``)
never import this module — they hold an *optional, duck-typed* observer
and guard every hook with a ``None`` check, which keeps instrumentation
zero-cost when disabled and keeps the architecture acyclic (``obs`` may
depend on ``sim``/``net``; nothing below ``core`` depends on ``obs``).
The hooks below are therefore the whole contract between the
observability layer and the system it watches.  A span crosses it as
its id: the request and lock-wait hooks return one, the lock hooks take
one back, and a message carries its flight's in ``span_id``.

Causality model (one root per client request):

* ``on_request_submit`` opens the root span; the client pushes it while
  dispatching, so the outgoing ``client.request`` messages are children.
* ``on_message_send`` opens a flight span under the current context and
  stamps its id onto the envelope (``message.span_id``); ``on_message_deliver`` /
  ``on_message_drop`` close it.
* ``handler_context`` brackets a receiving node's handler with a span
  parented under the flight span — re-entering the request's causal tree
  on the other side of the wire.
* the trace-log bridge (``_on_trace_event``, which the
  :class:`~repro.sim.TraceLog` calls with every record it stores) turns
  the five-phase records into phase spans — each phase of a (source,
  request) pair ends when the next one starts — and group
  communication, failure-detector, 2PC and fault-injection records into
  instant events and counters.
* lock hooks wrap 2PL waits.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import chain
from typing import Any, ContextManager, Dict, List, Optional, Tuple

from .metrics import InstrumentFamily, MetricsRegistry
from .timeseries import DEFAULT_BUCKET_WIDTH
from .spans import SpanTracer

__all__ = ["Observer", "abort_reason_label"]

# Trace-log categories bridged into instant group-communication events.
_GC_CATEGORIES = frozenset({"abcast", "rbcast", "optab", "consensus", "view"})

_ABORT_KEYWORDS = (
    ("deadlock", "deadlock"),
    ("timeout", "timeout"),
    ("crash", "crash"),
    ("certif", "certification"),
    ("conflict", "conflict"),
    ("vote", "vote-no"),
    ("client abort", "client"),
)


# Attr keys of the per-message, per-handler and per-phase spans: one
# tuple per shape, so no attrs dict is built per span.
_FLIGHT_KEYS = ("type", "src", "dst", "msg_id")
_SIZED_FLIGHT_KEYS = _FLIGHT_KEYS + ("bytes",)
_INNER_FLIGHT_KEYS = _SIZED_FLIGHT_KEYS + ("inner",)
_HANDLE_KEYS = ("type", "src")
_PHASE_KEYS = ("request", "mechanism")


class _Prefixed(dict):
    """``key -> prefix + key``, each name built once (``msg:<type>``)."""

    __slots__ = ("_prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self._prefix = prefix

    def __missing__(self, key: str) -> str:
        name = self[key] = f"{self._prefix}{key}"
        return name


def abort_reason_label(reason: str) -> str:
    """Collapse free-form abort reasons to a bounded label set.

    Reasons often embed transaction ids (``"transaction r0:t3 aborted:
    lock wait timeout"``); counting them verbatim would explode metric
    cardinality without adding information.
    """
    lowered = reason.lower()
    for needle, label in _ABORT_KEYWORDS:
        if needle in lowered:
            return label
    return "other"


class Observer:
    """Span tracer + metrics registry + the hook surface layers call."""

    def __init__(self, clock: Any = None) -> None:
        self.tracer = SpanTracer(clock)
        self.metrics = MetricsRegistry()
        # Span ids of the open request and phase spans.
        self._open_requests: Dict[str, int] = {}
        self._open_phases: Dict[Tuple[str, object], int] = {}
        self._flight_names = _Prefixed("msg:")
        self._handle_names = _Prefixed("handle:")
        self._completed_at: Dict[str, float] = {}
        self.lock_sequence: List[Tuple[str, str, str, str]] = []
        self.attr_writes: Dict[str, set] = {}
        # The run's TraceLog, given by whoever builds the system; finalize
        # reads its ring-buffer drops.
        self.trace_log: Any = None
        self._sampled_sim: Any = None
        self._finalized = False
        # Instruments of the per-message, per-phase and per-lock hooks,
        # resolved once per label instead of by (name, label) per call.
        counter, histogram, series = (
            self.metrics.counter, self.metrics.histogram, self.metrics.series
        )
        self._bytes = InstrumentFamily(counter, "messages.bytes")
        self._sent = InstrumentFamily(counter, "messages.sent")
        self._sent_by_type = InstrumentFamily(counter, "messages.sent.by_type")
        self._sent_by_inner = InstrumentFamily(counter, "messages.sent.by_inner_type")
        self._delivered = InstrumentFamily(counter, "messages.delivered")
        self._flight_time = InstrumentFamily(histogram, "message.flight_time")
        self._ts_messages = InstrumentFamily(series, "ts.messages")
        self._phases_entered = InstrumentFamily(counter, "phases.entered")
        self._phase_latency = InstrumentFamily(histogram, "phase.latency")
        self._ts_phase_time = InstrumentFamily(series, "ts.phase_time")
        self._broadcasts = InstrumentFamily(counter, "broadcast.delivered")
        self._lock_requests = InstrumentFamily(counter, "lock.requests")
        self._lock_wait_time = InstrumentFamily(histogram, "lock.wait_time")
        self._lock_hold_time = InstrumentFamily(histogram, "lock.hold_time")

    # -- client request lifecycle (called from repro.core) -----------------

    def on_request_submit(self, request_id: str, client: str) -> int:
        span = self.tracer.start(
            "request", "request", client,
            trace_id=str(request_id), parent_id=None, use_context=False,
            request=str(request_id), client=client,
        )
        self._open_requests[str(request_id)] = span
        self.metrics.inc("requests.submitted")
        return span

    def on_request_complete(
        self, request_id: str, committed: bool, reason: str = "", retries: int = 0
    ) -> None:
        span = self._open_requests.pop(str(request_id), None)
        if span is None:
            return
        status = "ok" if committed else "aborted"
        self.tracer.finish(span, status=status, committed=committed,
                           reason=reason, retries=retries)
        start, end = self.tracer.interval(span)
        self._completed_at[str(request_id)] = end
        self.metrics.inc("requests.committed" if committed else "requests.aborted")
        if retries:
            self.metrics.inc("requests.retries", amount=retries)
        now = self.tracer.now
        if committed:
            self.metrics.observe("request.latency", end - start)
            self.metrics.sample("ts.completions", now)
            self.metrics.sample("ts.response_time", now, end - start)
        else:
            self.metrics.sample("ts.aborts", now)

    def request_context(self, request_id: str) -> ContextManager[Optional[int]]:
        """Causal context of a request's root span (client-side dispatch)."""
        return self.tracer.context(self._open_requests.get(str(request_id)))

    # -- network (called from repro.net, duck-typed) -----------------------

    def on_message_send(self, message: Any) -> None:
        """Open a flight span for an envelope and stamp it on the message.

        The flight normally parents (and inherits its trace) from the
        context stack.  When the send happens outside any context — a
        timer callback, a process the tracer could not see — the trace
        id is recovered from request/transaction identifiers inside the
        payload, so phase attribution and the critical-path walk keep
        every flight of a request even across untracked boundaries.
        """
        payload = message.payload
        mtype = message.type
        src = message.src
        if isinstance(payload, dict):
            inner = payload.get("inner_type")
            size = _approx_size(payload)
            self._bytes[None].value += size
            if isinstance(inner, str):
                keys: Tuple[str, ...] = _INNER_FLIGHT_KEYS
                values: tuple = (mtype, src, message.dst, message.msg_id, size, inner)
                self._sent_by_inner[inner].value += 1
            else:
                keys = _SIZED_FLIGHT_KEYS
                values = (mtype, src, message.dst, message.msg_id, size)
        else:
            keys = _FLIGHT_KEYS
            values = (mtype, src, message.dst, message.msg_id)
        tracer = self.tracer
        parent = tracer.current
        message.span_id = tracer.record(
            self._flight_names[mtype], "message", src,
            None if parent is not None else _payload_trace_hint(payload),
            parent, keys, values,
        )
        self._sent[None].value += 1
        self._sent_by_type[mtype].value += 1
        self._ts_messages[None].observe(tracer.now)

    def on_message_deliver(self, message: Any) -> None:
        span = message.span_id
        if span is not None:
            self.tracer.finish(span, status="ok")
            start, end = self.tracer.interval(span)
            self._flight_time[None].observe(end - start)
        self._delivered[None].value += 1

    def on_message_drop(self, message: Any, cause: str) -> None:
        if message.span_id is not None:
            self.tracer.finish(message.span_id, status=f"dropped:{cause}")
        self.metrics.inc("messages.dropped", label=cause)

    def handler_context(
        self, node_name: str, message: Any
    ) -> ContextManager[Optional[int]]:
        """Bracket a handler invocation with a span under the flight span."""
        tracer = self.tracer
        flight = message.span_id
        trace_id = tracer.trace_of(flight)
        if trace_id is None:
            return tracer.context(None)
        mtype = message.type
        return tracer.record_scope(
            self._handle_names[mtype], "handle", node_name, trace_id, flight,
            _HANDLE_KEYS, (mtype, message.src),
        )

    # -- locks (called from repro.db.locks, duck-typed) ----------------------

    def on_lock_acquire(self, site: str, txn: object, item: str, mode: str) -> None:
        """Every acquisition *request*, contended or not.

        The sequence is what the wait-graph tests replay against the
        static W5xx lock sites: each recorded (site, item, mode) must
        match a lock pattern the analysis extracted.
        """
        self.lock_sequence.append((site, str(txn), item, mode))
        self._lock_requests[mode].value += 1

    def on_lock_wait(self, site: str, txn: object, item: str, mode: str) -> int:
        return self.tracer.start(
            f"lock-wait:{item}", "lock", site, trace_id=_txn_trace(txn),
            txn=str(txn), item=item, mode=mode,
        )

    def on_lock_granted(self, span: Optional[int], waited: float) -> None:
        if span is not None:
            self.tracer.finish(span, status="ok")
        self._lock_wait_time[None].observe(waited)

    def on_lock_failed(self, span: Optional[int], cause: str) -> None:
        if span is not None:
            self.tracer.finish(span, status=f"aborted:{cause}")
        self.metrics.inc("lock.aborted_waits", label=cause)

    def on_lock_released(self, hold_time: float) -> None:
        self._lock_hold_time[None].observe(hold_time)

    def on_deadlock(self) -> None:
        self.metrics.inc("lock.deadlocks")

    # -- attribute writes (opt-in, via repro.obs.attrtrack) ------------------

    def on_attr_write(self, label: str, attr: str) -> None:
        """Record that a tracked instance wrote one of its attributes.

        Only fires for instances explicitly wrapped with
        :func:`~repro.obs.attrtrack.track_attr_writes` — nothing on the
        normal hot path calls this.  The accumulated per-class sets are
        what the interference tests compare against the static R6xx
        write sets (``docs/interference.json`` ``classes`` map): every
        observed write must be a subset of what the analysis predicted.
        """
        self.attr_writes.setdefault(label, set()).add(attr)

    # -- transactions (called from repro.db.transactions, duck-typed) --------

    def on_txn_commit(self, site: str) -> None:
        self.metrics.inc("txn.committed")

    def on_txn_abort(self, site: str, reason: str) -> None:
        self.metrics.inc("txn.aborted", label=abort_reason_label(reason))

    # -- trace-log bridge and tick sampler -------------------------------------

    def attach_sampler(self, sim: Any) -> None:
        """Sample gauges at every bucket boundary via the sim tick hook.

        Event-fed series carry their own timestamps; *state* (breaker
        positions, suspicion counts — anything held in a gauge) has to be
        polled.  The simulator's tick hook fires inline as the event loop
        crosses bucket boundaries — no timers are scheduled, so observing
        a run does not perturb it (the neutrality test's contract).
        """
        self._sampled_sim = sim
        sim.set_tick_hook(DEFAULT_BUCKET_WIDTH, self._on_tick)

    def _on_tick(self, boundary: float) -> None:
        """Record every gauge's current value into its ``sample.*`` series."""
        for name, label, value in self.metrics.gauge_values():
            self.metrics.sample(
                f"sample.{name}", boundary, value, label=label or None
            )

    def _on_trace_event(
        self, category: str, source: str, keys: Tuple[str, ...], values: tuple
    ) -> None:
        """Mirror one stored trace record as spans, instants and counters.

        The group-communication, failure-detection, 2PC and
        fault-injection layers, and the phase tracer, narrate themselves
        into the :class:`~repro.sim.TraceLog`; the log hands each record
        here, which converts that narration into the span world without
        those layers knowing the observer exists.  Records are written
        inside handler contexts, so the spans land in the right causal
        subtree.
        """
        if category == "phase":
            self._on_phase(source, *values)
            return
        data = dict(zip(keys, values))
        if category in _GC_CATEGORIES:
            mtype = data.get("mtype", data.get("action", ""))
            self.tracer.instant(
                f"{category}:{mtype}" if mtype else category, "gc",
                source, **_primitive_attrs(data),
            )
            self._broadcasts[category].value += 1
        elif category == "fd":
            action = data.get("action", "")
            self.tracer.instant(
                f"fd:{action}", "fd", source, peer=data.get("peer", ""),
            )
            if action == "suspect":
                self.metrics.inc("fd.suspicions")
            elif action == "restore":
                self.metrics.inc("fd.wrong_suspicions")
        elif category == "2pc":
            decision = data.get("decision", "")
            self.tracer.instant(
                f"2pc:{decision}", "2pc", source, txn=str(data.get("txn", "")),
            )
            self.metrics.inc("2pc.decisions", label=decision)
        elif category == "fault":
            action = data.get("action", "")
            self.tracer.instant(
                f"fault:{action}", "fault", source, **_primitive_attrs(data),
            )
            self.metrics.inc("faults.injected", label=action)
            self.metrics.sample("ts.faults", self.tracer.now)

    def _on_phase(
        self, source: str, request_id: object, phase: str, mechanism: str
    ) -> None:
        """Open a phase span; the previous phase of (source, request) ends."""
        key = (source, request_id)
        tracer = self.tracer
        previous = self._open_phases.pop(key, None)
        if previous is not None:
            tracer.finish(previous)
            start, end = tracer.interval(previous)
            name = tracer.name_of(previous)
            self._phase_latency[name].observe(end - start)
            self._ts_phase_time[name].observe(end, end - start)
        trace_id = str(request_id)
        self._open_phases[key] = tracer.record(
            phase, "phase", source, trace_id, tracer.current,
            _PHASE_KEYS, (trace_id, mechanism),
        )
        self._phases_entered[phase].value += 1
        completed = self._completed_at.get(trace_id)
        if phase == "AC" and completed is not None:
            # A replica applying after the client already got its answer:
            # lazy propagation.  The gap is the staleness window this
            # update was invisible for — replication lag, as a series.
            now = tracer.now
            self.metrics.sample("ts.replication_lag", now, now - completed)

    # -- crashes (called from repro.core.system) ------------------------------

    def on_node_crash(self, node_name: str) -> None:
        """Close the crashed node's open phase spans as errors.

        The host loses its in-flight work (active transactions are
        aborted, the serving table cleared); the spans narrating that
        work must not linger as if it were still running — satellite
        audit: no leaked open spans on chaos paths.
        """
        keys = sorted(
            (k for k in self._open_phases if k[0] == node_name), key=repr
        )
        for key in keys:
            span = self._open_phases.pop(key)
            self.tracer.finish(span, status="error:crash")
        self.metrics.inc("nodes.crashed")

    # -- export preparation ----------------------------------------------------

    def finalize(self) -> None:
        """Bound every open span and derive end-of-run gauges (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        if self._sampled_sim is not None:
            # Final gauge sample at the horizon, then detach so a reused
            # simulator does not call into a finalized observer.
            self._on_tick(self.tracer.now)
            self._sampled_sim.clear_tick_hook()
            self._sampled_sim = None
        for key in sorted(self._open_phases, key=repr):
            span = self._open_phases[key]
            self.tracer.finish(span, status="open")
        self._open_phases.clear()
        for request_id in sorted(self._open_requests):
            self.tracer.finish(self._open_requests[request_id], status="unanswered")
        self._open_requests.clear()
        force_closed = self.tracer.finalize()
        self.metrics.set("spans.recorded", float(len(self.tracer)))
        self.metrics.set("spans.force_closed", float(force_closed))
        if self.trace_log is not None:
            # Ring-buffer overflow is silent at drop time by design (the
            # hot path cannot afford reporting); surface it here so a
            # truncated trace is visible in every metrics report.
            self.metrics.set(
                "trace.dropped_events", float(self.trace_log.dropped_events)
            )

    def __repr__(self) -> str:
        return f"<Observer {self.tracer!r} {self.metrics!r}>"


def _txn_trace(txn: object) -> str:
    """Transaction ids double as trace ids when protocols reuse request ids."""
    return str(txn)


# Exact leaf types of fixed size; these and ``str`` (its length) are sized
# inside the container loop, without a call.
_FIXED_SIZE = {bool: 1, type(None): 1, int: 8, float: 8}

# Immutable leaf types: an object holding only these (and tuples and
# frozen objects of them) has one wire form for its whole life.
_ATOMS = frozenset({str, bytes, bool, type(None), int, float})

# Instance attribute under which an object travelling as itself keeps
# its wire size, once the size can no longer change.
_WIRE_SIZE = "_obs_wire_size"


def _approx_size(value: Any) -> int:
    """Deterministic wire-size estimate of a payload, in bytes.

    An accounting convention, not a codec: strings count their length,
    numbers a fixed word, containers recurse with small framing.  An
    object with an ``as_wire()`` (a request or a writeset travelling as
    itself) counts as its plain-data form (see :func:`_wire_size`).
    Other objects count a flat 16 — never ``str()`` them, the default
    repr embeds ``id()`` and would vary run to run.

    One call per container, not per key and value: leaves of the exact
    common types are sized in the loop, and only containers and subclass
    instances (which take the ``isinstance`` ladder) recurse.
    """
    if isinstance(value, dict):
        size = 2 + 2 * len(value)
        items: Any = chain(value, value.values())
    elif isinstance(value, (list, tuple, set, frozenset)):
        size = 2
        items = value
    elif isinstance(value, bool) or value is None:
        return 1
    elif isinstance(value, (int, float)):
        return 8
    elif isinstance(value, (str, bytes)):
        return len(value)
    else:
        return _wire_size(value)
    for item in items:
        cls = item.__class__
        if cls is str:
            size += len(item)
        else:
            fixed = _FIXED_SIZE.get(cls)
            size += fixed if fixed is not None else _approx_size(item)
    return size


def _wire_size(value: Any) -> int:
    """Size of an object that is no container: its ``as_wire()`` form, or 16.

    A request is sized once per envelope it travels in, and a broadcast
    sends it in many.  So the size is kept on the object, but only when
    :func:`_immutable` says its wire form cannot change; an object with a
    mutable leaf (a list argument, say) is sized every time.
    """
    as_wire = getattr(value, "as_wire", None)
    if as_wire is None:
        return 16
    state = getattr(value, "__dict__", None)
    if state is not None:
        size = state.get(_WIRE_SIZE)
        if size is not None:
            return size
    size = _approx_size(as_wire())
    if state is not None and _immutable(value):
        state[_WIRE_SIZE] = size
    return size


def _immutable(value: Any) -> bool:
    """Whether nothing reachable from ``value`` can change.

    True of an exact atom, a tuple of immutable values, and a frozen
    dataclass whose fields are immutable values.
    """
    cls = value.__class__
    if cls in _ATOMS:
        return True
    if cls is tuple:
        return all(map(_immutable, value))
    params = getattr(cls, "__dataclass_params__", None)
    return params is not None and params.frozen and all(
        _immutable(getattr(value, field.name)) for field in fields(value)
    )


def _payload_trace_hint(payload: Any, depth: int = 5) -> Optional[str]:
    """Recover a trace id from request identifiers inside a payload.

    Used only for sends with an empty causal context — timer callbacks
    (lazy propagation, retransmissions) and the group-communication
    stack's ``call_soon`` local-delivery hops, where the synchronous
    context chain is cut.  Wire payloads nest the request under framing
    layers (a reliable-transport frame wraps an ordered-broadcast body
    wraps the request), so the probe descends a few known envelope keys.
    A ``None`` merely leaves the flight as background traffic, so it is
    deliberately conservative: exact keys, bounded depth, first match in
    a fixed order.  A request or a writeset travels as itself (the
    ``as_wire`` convention of :func:`_approx_size`); its fields are read
    by name, like a dict's keys.
    """
    if depth <= 0:
        return None
    if not isinstance(payload, dict):
        if not hasattr(payload, "as_wire"):
            return None
        payload = vars(payload)
    request_id = payload.get("request_id")
    if isinstance(request_id, str) and request_id:
        return request_id
    for key in ("txn", "txn_id"):
        txn = payload.get(key)
        if isinstance(txn, str) and txn:
            return txn.split("@", 1)[0]
    for key in ("request", "body", "updates"):
        hint = _payload_trace_hint(payload.get(key), depth - 1)
        if hint is not None:
            return hint
    entries = payload.get("entries")
    if isinstance(entries, list) and entries:
        # A propagation batch: attribute the flight to the first shipped
        # transaction's request (a convention — the batch serves them
        # all, but one trace must own the flight span).
        return _payload_trace_hint(entries[0], depth - 1)
    return None


def _primitive_attrs(data: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only primitive payload values (span attrs must stay JSON-able)."""
    return {
        key: value
        for key, value in data.items()
        if isinstance(value, (str, int, float, bool)) or value is None
    }
