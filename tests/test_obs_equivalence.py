"""Equivalence properties for the observer's fast paths.

The hot-path and exporter rewrites promise *the same integers and the
same bytes* as the straightforward definitions they replaced.  Those
definitions live on here as oracles:

* ``_approx_size`` against the one-call-per-value recursive definition;
* ``_approx_size`` and ``_payload_trace_hint`` on a request or writeset
  travelling as itself against the same on its ``as_wire()`` form, also
  when the size is read a second time;
* ``chrome_trace`` / ``spans_jsonl`` and the files ``write_artifacts``
  writes against a list-building, ``json.dumps``-per-document rendering,
  including at the chunk boundaries of the renderer;
* the span tracer's columns against a reference tracer that keeps one
  :class:`Span` object per span, read back after every step of random
  recording programs.
"""

import enum
import json
import os
import tempfile
from collections import OrderedDict, namedtuple
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operations import UPDATE_FUNCTIONS, Operation, Request
from repro.db import Stamp, TransactionUpdates, UpdateRecord
from repro.obs import (
    Observer, Span, SpanTracer, chrome_trace, export, spans_jsonl, write_artifacts,
)
from repro.obs import spans as span_store
from repro.obs.observer import _approx_size, _payload_trace_hint


# ---------------------------------------------------------------------------
# (a) payload sizing
# ---------------------------------------------------------------------------

def _approx_size_oracle(value):
    """The original definition: one recursive call per key, value and item."""
    if isinstance(value, bool) or value is None:
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, dict):
        return 2 + sum(
            _approx_size_oracle(k) + _approx_size_oracle(v) + 2
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return 2 + sum(_approx_size_oracle(item) for item in value)
    return 16


class _Opaque:
    """An object the convention knows nothing about (flat 16)."""


class _Level(enum.IntEnum):
    LOW = 1


class _Name(str):
    pass


class _Frame(dict):
    """A dict subclass: sized like the dict it holds."""


_Pair = namedtuple("_Pair", "left right")

_HASHABLE = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8),
    st.sampled_from([_Level.LOW, _Name("named"), _Pair(1, "x")]),
)
_LEAVES = st.one_of(_HASHABLE, st.floats(), st.builds(_Opaque),
                    st.binary(max_size=4).map(bytearray))


def _containers(children):
    by_name = st.dictionaries(st.text(max_size=6), children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_HASHABLE, max_size=4),
        st.frozensets(_HASHABLE, max_size=4),
        st.dictionaries(_HASHABLE, children, max_size=4),
        by_name.map(_Frame),
        by_name.map(OrderedDict),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_LEAVES, _containers, max_leaves=30))
def test_approx_size_equals_recursive_definition(payload):
    assert _approx_size(payload) == _approx_size_oracle(payload)


def test_approx_size_fixed_points():
    assert _approx_size(True) == 1 and _approx_size(1) == 8
    assert _approx_size(None) == 1 and _approx_size(_Opaque()) == 16
    assert _approx_size({"k": True, "n": 1}) == 2 + (1 + 1 + 2) + (1 + 8 + 2)
    frame = _Frame({"inner_type": "x", "body": {"seq": 3}})
    assert _approx_size(frame) == _approx_size_oracle(dict(frame))


_ITEMS = st.text(max_size=6)
_VALUES = st.recursive(_HASHABLE, lambda children: st.lists(children, max_size=3),
                       max_leaves=6)
_OPERATIONS = st.one_of(
    st.builds(Operation.read, _ITEMS),
    st.builds(Operation.write, _ITEMS, _VALUES),
    st.builds(Operation.update, _ITEMS, st.sampled_from(sorted(UPDATE_FUNCTIONS)),
              _VALUES),
)
_RECORDS = st.builds(UpdateRecord, _ITEMS, _VALUES, st.integers())
_WIRE_TYPES = st.one_of(
    _OPERATIONS,
    st.builds(Request, st.text(max_size=8), st.lists(_OPERATIONS, max_size=3).map(tuple)),
    _RECORDS,
    st.builds(TransactionUpdates, st.text(max_size=8),
              st.lists(_RECORDS, max_size=3).map(tuple), st.integers()),
    st.builds(Stamp, st.floats(allow_nan=False), st.text(max_size=4),
              st.one_of(st.none(), st.text(max_size=8)), st.integers()),
)


@settings(max_examples=200, deadline=None)
@given(_WIRE_TYPES)
def test_approx_size_of_object_equals_its_wire_form(value):
    # Payloads carry these objects by reference; the byte count is the one
    # their plain-data form would have had, alone and inside a container.
    # The second sizing may read a size kept from the first.
    wire_size = _approx_size(value.as_wire())
    assert _approx_size(value) == _approx_size(value) == wire_size
    assert _approx_size({"k": [value]}) == _approx_size({"k": [value.as_wire()]})


def test_approx_size_follows_a_mutable_argument():
    # A list argument can grow between two sends of the same request, so
    # a size kept from the first send would be wrong at the second.
    values = [1]
    request = Request.make(Operation.write("x", values), client="c0", sequence=1)
    before = _approx_size(request)
    assert before == _approx_size(request.as_wire())
    values.append("eleven")
    after = _approx_size(request)
    assert after == _approx_size(request.as_wire()) == before + len("eleven")


def test_payload_trace_hint_reads_requests_and_writesets():
    request = Request.make(Operation.write("x", 1), client="c0", sequence=4)
    updates = TransactionUpdates("c0-r5@r1", (UpdateRecord("x", 1, 2),), commit_lsn=0)
    cases = [
        ({"request": request}, "c0-r4"),
        ({"body": {"request": request, "client": "c0"}}, "c0-r4"),
        ({"updates": updates}, "c0-r5"),
        ({"entries": [updates]}, "c0-r5"),
        ({"stamp": Stamp(1.0, "r0", "c0-r6")}, None),
    ]
    for payload, expected in cases:
        assert _payload_trace_hint(payload) == expected
        wire = {key: _as_wire(value) for key, value in payload.items()}
        assert _payload_trace_hint(wire) == expected


def _as_wire(value):
    if isinstance(value, dict):
        return {key: _as_wire(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_wire(item) for item in value]
    return value.as_wire() if hasattr(value, "as_wire") else value


# ---------------------------------------------------------------------------
# (b) exporters
# ---------------------------------------------------------------------------

def _dumps(document):
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _reference_chrome_trace(spans, node_order=None, process_name="repro"):
    """Build the whole event list, dump the whole document."""
    seen = {span.source for span in spans}
    tracks = [name for name in (node_order or []) if name in seen]
    tracks += sorted(seen - set(tracks))
    tid_of = {name: index for index, name in enumerate(tracks)}
    events = [{"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
               "args": {"name": process_name}}]
    for name in tracks:
        events.append({"ph": "M", "pid": 0, "tid": tid_of[name],
                       "name": "thread_name", "args": {"name": name}})
        events.append({"ph": "M", "pid": 0, "tid": tid_of[name],
                       "name": "thread_sort_index",
                       "args": {"sort_index": tid_of[name]}})
    for span in spans:
        args = {"span_id": span.span_id, "parent_id": span.parent_id,
                "trace_id": span.trace_id, "status": span.status}
        args.update(span.attrs)
        tid = tid_of[span.source]
        start = span.start * 1000.0
        if span.kind == "instant":
            events.append({"ph": "i", "pid": 0, "tid": tid, "ts": start,
                           "s": "t", "name": span.name, "cat": span.category,
                           "args": args})
            continue
        end = (span.end if span.end is not None else span.start) * 1000.0
        events.append({"ph": "X", "pid": 0, "tid": tid, "ts": start,
                       "dur": end - start, "name": span.name,
                       "cat": span.category, "args": args})
        if span.category == "message" and span.status == "ok":
            dst = span.attrs.get("dst")
            if dst in tid_of:
                events.append({"ph": "s", "pid": 0, "tid": tid, "ts": start,
                               "id": span.span_id, "name": "flight",
                               "cat": "message"})
                events.append({"ph": "f", "pid": 0, "tid": tid_of[dst],
                               "ts": end, "id": span.span_id, "bp": "e",
                               "name": "flight", "cat": "message"})
    return _dumps({"displayTimeUnit": "ms", "traceEvents": events}) + "\n"


def _reference_spans_jsonl(spans):
    """One ``json.dumps`` per span, joined as a list of lines."""
    lines = [
        _dumps({
            "span_id": span.span_id, "parent_id": span.parent_id,
            "trace_id": span.trace_id, "name": span.name,
            "category": span.category, "kind": span.kind,
            "source": span.source, "start": span.start, "end": span.end,
            "status": span.status, "attrs": span.attrs,
        })
        for span in sorted(spans, key=lambda s: s.span_id)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


_NODES = ["r0", "r1", "c0"]
_TEXT = st.one_of(
    st.text(max_size=10),
    st.sampled_from(['q"uote', "back\\slash", "naïve café ✓", "},{\"attrs\":",
                     "line\nbreak", " ", ""]),
)
_NUMBERS = st.one_of(
    st.booleans(), st.integers(), st.floats(),
    st.integers(min_value=2**64, max_value=10**30).flatmap(
        lambda big: st.sampled_from([big, -big])),
    st.sampled_from([True, 1, -0.0, 1e-07, 1e16, float("inf"),
                     float("-inf"), float("nan"), 5e-324, -2.5e-310,
                     10**30, _Level.LOW]),
)
_ATTR_VALUES = st.recursive(
    st.one_of(st.none(), _TEXT, _NUMBERS, st.sampled_from(_NODES),
              st.sampled_from([_Name("named"), _Name("r0")])),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(["attrs", "a"]), children, max_size=2),
    ),
    max_leaves=6,
)
# Attr names: the ones the renderer treats specially (the flow arrow's
# ``dst``, the four Chrome ``args`` keys an attr shadows) and any text.
_ATTR_NAMES = st.one_of(
    st.sampled_from(["dst", "type", "bytes",
                     "span_id", "parent_id", "trace_id", "status"]),
    _TEXT,
)
# Names that are no exact ``str``: the encoder converts some of them, and
# sorting them beside text raises.
_ODD_NAMES = st.one_of(
    st.integers(), st.none(), st.booleans(), st.floats(allow_nan=False),
    st.sampled_from([_Level.LOW, _Name("named"), _Name("status"), (1, "x")]),
)
_TIMES = st.floats(min_value=-1e6, max_value=1e6)


@st.composite
def _span_lists(draw, max_size=12):
    count = draw(st.integers(min_value=0, max_value=max_size))
    ids = draw(st.permutations(range(1, count + 1)))
    odd_names = draw(st.booleans())
    spans = []
    for span_id in ids:
        names = _ATTR_NAMES
        if odd_names and draw(st.integers(min_value=0, max_value=3)) == 0:
            names = st.one_of(_ATTR_NAMES, _ODD_NAMES)
        attrs = draw(st.dictionaries(names, _ATTR_VALUES, max_size=4))
        if isinstance(attrs.get("dst"), (list, dict, tuple)):
            # The flow-arrow lookup needs a hashable destination.
            attrs["dst"] = draw(st.sampled_from(_NODES))
        spans.append(Span(
            span_id,
            draw(st.one_of(st.none(), st.integers(min_value=1, max_value=99))),
            draw(_TEXT), draw(_TEXT),
            draw(st.sampled_from(["message", "phase", "handle", "gc"])),
            draw(st.sampled_from(_NODES + ["späte-node"])),
            draw(_TIMES), draw(st.one_of(st.none(), _TIMES)),
            draw(st.sampled_from(["span", "instant"])),
            draw(st.sampled_from(["ok", "open", "dropped:loss"])),
            attrs,
        ))
    return spans


@contextmanager
def _chunk_spans(count):
    """Run the exporters with ``count`` spans per encoded chunk."""
    saved, export._CHUNK_SPANS = export._CHUNK_SPANS, count
    try:
        yield
    finally:
        export._CHUNK_SPANS = saved


def _outcome(render, *args, **kwargs):
    """What ``render`` returns, or the type of the exception it raises."""
    try:
        return render(*args, **kwargs)
    except Exception as error:
        return type(error)


@settings(max_examples=100, deadline=None)
@given(_span_lists(), st.sampled_from([None, ["c0", "r0"], _NODES]), _TEXT)
def test_exporters_equal_json_dumps_rendering(spans, order, title):
    # A four-span chunk makes the generated lists straddle several.  Attrs
    # a JSON encoder refuses make both sides raise the same way.
    with _chunk_spans(4):
        trace = _outcome(chrome_trace, spans, node_order=order, process_name=title)
        jsonl = _outcome(spans_jsonl, spans)
    assert trace == _outcome(_reference_chrome_trace, spans, order, title)
    assert jsonl == _outcome(_reference_spans_jsonl, spans)


def _written_texts(observer, order, title):
    with tempfile.TemporaryDirectory() as directory:
        paths = write_artifacts(observer, os.path.join(directory, "run"),
                                node_order=order, title=title)
        with open(paths["trace"]) as trace, open(paths["spans"]) as jsonl:
            return trace.read(), jsonl.read()


@st.composite
def _recorded_spans(draw, max_size=12):
    """``(fields, finish)`` per span for a tracer's recording API: the
    fields of :func:`_span_lists` with a parent among the earlier spans,
    and the ``(end, status, attrs)`` to finish it with, or ``None``."""
    spans = []
    for span in draw(_span_lists(max_size)):
        span.parent_id = draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=len(spans) or 1)))
        if not spans:
            span.parent_id = None
        finish = None
        if span.end is not None:
            finish = (span.end, span.status, draw(st.dictionaries(
                st.sampled_from(["dst", "bytes", "z"]), _ATTR_VALUES,
                max_size=2)))
        spans.append((span, finish))
    return spans


@settings(max_examples=100, deadline=None)
@given(_recorded_spans(), st.sampled_from([None, ["c0", "r0"], _NODES]), _TEXT)
def test_write_artifacts_writes_the_reference_texts(recorded, order, title):
    # The same recording calls fill the observer's tracer and a reference
    # tracer of Span objects; the files must hold what the reference
    # renderers make of the reference's spans.
    clock = SimpleNamespace(now=0.0)
    observer = Observer(clock)
    reference = _ReferenceTracer(clock)
    for tracer in (observer.tracer, reference):
        for span, _ in recorded:
            clock.now = span.start
            tracer.record(span.name, span.category, span.source, span.trace_id,
                          span.parent_id, tuple(span.attrs),
                          tuple(span.attrs.values()), span.kind)
        for span_id, (_, finish) in enumerate(recorded, start=1):
            if finish is not None:
                clock.now, status, attrs = finish
                tracer.finish(span_id, status, **attrs)
    reference.finalize()
    spans = reference.spans
    expected = _outcome(lambda: (_reference_chrome_trace(spans, order, title),
                                 _reference_spans_jsonl(spans)))
    with _chunk_spans(4):
        assert _outcome(_written_texts, observer, order, title) == expected


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_exporters_at_chunk_boundary(offset):
    count = export._CHUNK_SPANS + offset
    spans = [
        Span(n, n - 1 or None, f"req-{n % 7}", f"msg:{n % 3}", "message",
             _NODES[n % 3], n * 0.1, n * 0.1 + 1.0, "span", "ok",
             {"dst": _NODES[(n + 1) % 3], "msg_id": n})
        for n in range(1, count + 1)
    ]
    assert chrome_trace(spans, node_order=_NODES) == \
        _reference_chrome_trace(spans, node_order=_NODES)
    assert spans_jsonl(spans) == _reference_spans_jsonl(spans)


def test_exporters_keep_equal_values_of_different_texts_apart():
    # The renderer memoises texts within a chunk.  Values that compare
    # equal but print differently, side by side in one chunk, must each
    # keep their own text.
    values = [0.0, -0.0, 1, True, 1.0, _Level.LOW, "r0", _Name("r0"),
              5e-324, 0, False, None]
    spans = [
        Span(n, None, "t", "msg:x", "message", "r0", value, -value,
             "span", "ok", {"v": value, "w": [value], "dst": "r1"})
        for n, value in enumerate([0.0, -0.0, 0, 1.0, 1, True], start=1)
    ] + [
        Span(n, n - 1, "t", "phase", "phase", "r1", 1.0, 2.0, "instant", "ok",
             {"v": value, "status": value})
        for n, value in enumerate(values, start=7)
    ]
    assert chrome_trace(spans, node_order=_NODES) == \
        _reference_chrome_trace(spans, node_order=_NODES)
    assert spans_jsonl(spans) == _reference_spans_jsonl(spans)


def test_exporters_on_empty_span_list():
    assert chrome_trace([]) == _reference_chrome_trace([])
    assert spans_jsonl([]) == _reference_spans_jsonl([]) == ""


# ---------------------------------------------------------------------------
# (c) the span store
# ---------------------------------------------------------------------------

class _ReferenceTracer:
    """The tracer as one :class:`Span` object per span, in a list.

    Same recording API by id, each call on the object itself: a finished
    span's end and status are set on it and its attrs dict is updated in
    place.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.finalized = False

    def record(self, name, category, source, trace_id, parent, keys, values,
               kind="span"):
        if trace_id is None:
            trace_id = self.spans[parent - 1].trace_id if parent else ""
        now = self.clock.now
        self.spans.append(Span(
            len(self.spans) + 1, parent, trace_id, name, category, source, now,
            now if kind == "instant" else None, kind, "ok", dict(zip(keys, values)),
        ))
        return len(self.spans)

    def parent(self, parent_id, use_context):
        if parent_id is not None and 0 < parent_id <= len(self.spans):
            return parent_id
        return self.stack[-1] if use_context and self.stack else None

    def finish(self, span_id, status=None, **attrs):
        span = self.spans[span_id - 1]
        if span.end is None:
            span.end = self.clock.now
        if status is not None:
            span.status = status
        span.attrs.update(attrs)

    def for_trace(self, trace_id):
        return sorted((s for s in self.spans if s.trace_id == trace_id),
                      key=lambda s: (s.start, s.span_id))

    def finalize(self):
        if self.finalized:
            return 0
        self.finalized = True
        horizon = self.clock.now
        stragglers = []
        for span in self.spans:
            if span.start > horizon:
                horizon = span.start
            if span.end is None:
                stragglers.append(span)
            elif span.end > horizon:
                horizon = span.end
        for span in stragglers:
            span.end = horizon
            if span.status == "ok":
                span.status = "open"
        return len(stragglers)


def _fields(span):
    """Every field of a span, attrs in their order; ``None`` stays ``None``."""
    if span is None:
        return None
    return (span.span_id, span.parent_id, span.trace_id, span.name,
            span.category, span.source, span.start, span.end, span.kind,
            span.status, list(span.attrs.items()))


_PROGRAM_TIMES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, 7.0, 1e9])
_PROGRAM_TEXT = st.sampled_from(["a", "b", "msg:x", "phase"])
_PROGRAM_TRACES = ["", "t1", "t2"]
_PROGRAM_ATTRS = st.dictionaries(
    st.sampled_from(["type", "src", "k", "request"]),
    st.one_of(st.none(), st.integers(-3, 300), st.text(max_size=3),
              st.floats(allow_nan=False), st.booleans()),
    max_size=3,
)
_OPENS = st.tuples(
    st.sampled_from(["start", "start", "instant"]), _PROGRAM_TEXT,
    st.sampled_from(["phase", "message", "gc"]), st.sampled_from(["r0", "r1"]),
    st.one_of(st.none(), st.sampled_from(_PROGRAM_TRACES)),
    st.one_of(st.none(), st.integers(0, 8)), st.booleans(), _PROGRAM_ATTRS,
)
_RECORDS = st.tuples(
    st.just("record"), st.integers(0, 8), _PROGRAM_TEXT,
    st.sampled_from(["phase", "message"]), st.sampled_from(["r0", "r1"]),
    st.one_of(st.none(), st.sampled_from(_PROGRAM_TRACES)),
    st.sampled_from(["span", "instant"]), _PROGRAM_ATTRS,
)
_FINISHES = st.tuples(
    st.just("finish"), st.integers(1, 8),
    st.one_of(st.none(), st.sampled_from(["ok", "aborted", "open"])),
    _PROGRAM_ATTRS,
)
# Recording steps drawn most often.  A span-taking step names its span
# by a number the program maps onto the spans recorded so far.
_STEPS = st.one_of(
    _OPENS, _RECORDS, _OPENS, _RECORDS, _FINISHES, _FINISHES,
    st.tuples(st.just("clock"), _PROGRAM_TIMES),
    st.tuples(st.just("push"), st.integers(1, 8)),
    st.just(("pop",)),
    st.just(("finalize",)),
)


def _run_step(step, tracer, reference, clock):
    """Apply one step to both tracers; what each returned."""
    kind, args = step[0], step[1:]
    if kind == "clock":
        clock.now = args[0]
        return None, None
    if kind in ("start", "instant"):
        name, category, source, trace_id, parent_id, use_context, attrs = args
        if kind == "start":
            got = tracer.start(name, category, source, trace_id, parent_id,
                               use_context, **attrs)
        else:
            got = tracer.instant(name, category, source, trace_id, parent_id,
                                 **attrs)
        parent = reference.parent(parent_id, use_context or kind == "instant")
        return got, reference.record(name, category, source, trace_id, parent,
                                     tuple(attrs), tuple(attrs.values()),
                                     "span" if kind == "start" else "instant")
    if kind == "finalize":
        return tracer.finalize(), reference.finalize()
    if kind == "pop":
        if reference.stack:
            tracer.pop()
            reference.stack.pop()
        return None, None
    if not reference.spans:
        return None, None
    span_id = (args[0] - 1) % len(reference.spans) + 1 if args[0] else None
    if kind == "record":
        name, category, source, trace_id, span_kind, attrs = args[1:]
        record = (name, category, source, trace_id, span_id, tuple(attrs),
                  tuple(attrs.values()), span_kind)
        return tracer.record(*record), reference.record(*record)
    if kind == "finish":
        status, attrs = args[1:]
        for repeat in (status, None):
            # Twice, as a hook may: the second moves no end.
            tracer.finish(span_id, repeat, **attrs)
            reference.finish(span_id, repeat, **attrs)
        return None, None
    tracer.push(span_id)
    reference.stack.append(span_id)
    return None, None


@contextmanager
def _small_blocks():
    """Mark the flat attr values every 2 spans and read 3 spans a block,
    so short programs cross both boundaries."""
    saved = span_store._MARK_EVERY, span_store._BLOCK
    span_store._MARK_EVERY, span_store._BLOCK = 2, 3
    try:
        yield
    finally:
        span_store._MARK_EVERY, span_store._BLOCK = saved


@settings(max_examples=100, deadline=None)
@given(st.lists(_STEPS, min_size=8, max_size=40))
def test_span_columns_read_back_what_was_recorded(program):
    with _small_blocks():
        _check_program(program)


def _check_program(program):
    clock = SimpleNamespace(now=0.0)
    tracer = SpanTracer(clock)
    reference = _ReferenceTracer(clock)
    for step in program:
        got, expected = _run_step(step, tracer, reference, clock)
        assert got == expected, step
        spans = list(tracer.spans)
        assert [_fields(s) for s in spans] == [_fields(s) for s in reference.spans]
        assert len(tracer) == len(tracer.spans) == len(reference.spans)
        assert tracer.current == (reference.stack[-1] if reference.stack else None)
        for span_id in range(-1, len(reference.spans) + 2):
            wanted = reference.spans[span_id - 1] if 0 < span_id <= len(spans) else None
            assert _fields(tracer.get(span_id)) == _fields(wanted)
        open_now = [s for s in reference.spans if s.end is None]
        assert [_fields(s) for s in tracer.open_spans()] == \
            [_fields(s) for s in open_now]
        for trace_id in _PROGRAM_TRACES:
            assert [_fields(s) for s in tracer.for_trace(trace_id)] == \
                [_fields(s) for s in reference.for_trace(trace_id)]
            for source in (None, "r0"):
                assert tracer.phase_sequence(trace_id, source) == [
                    s.name for s in reference.for_trace(trace_id)
                    if s.category == "phase" and source in (None, s.source)
                ]
    assert [_fields(s) for s in tracer.spans[1:-1]] == \
        [_fields(s) for s in reference.spans[1:-1]]
    assert [_fields(s) for s in tracer.spans[::-2]] == \
        [_fields(s) for s in reference.spans[::-2]]
    if reference.spans:
        assert _fields(tracer.spans[-1]) == _fields(reference.spans[-1])
