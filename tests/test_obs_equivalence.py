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
  including at the chunk boundaries of the renderer.
"""

import enum
import json
import os
import tempfile
from collections import OrderedDict, namedtuple
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operations import UPDATE_FUNCTIONS, Operation, Request
from repro.db import Stamp, TransactionUpdates, UpdateRecord
from repro.obs import Observer, Span, chrome_trace, export, spans_jsonl, write_artifacts
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
    st.builds(Request, st.text(max_size=8), st.lists(_OPERATIONS, max_size=3).map(tuple),
              st.one_of(st.none(), st.text(max_size=8))),
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


@settings(max_examples=100, deadline=None)
@given(_span_lists(), st.sampled_from([None, ["c0", "r0"], _NODES]), _TEXT)
def test_write_artifacts_writes_the_reference_texts(spans, order, title):
    # The files are written in one pass over the tracer's spans, whose ids
    # are their positions: renumber the generated spans so.
    observer = Observer()
    for position, span in enumerate(spans, start=1):
        span.span_id = position
    observer.tracer.spans = spans
    observer.finalize()
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
