"""Span and metrics exporters.

Three formats, all byte-deterministic for a given span set:

* **Chrome trace-event JSON** (:func:`chrome_trace`) — loadable in
  Perfetto / ``chrome://tracing``.  One track (tid) per node, complete
  (``"X"``) events for interval spans, instant (``"i"``) events for
  point events, and flow arrows (``"s"``/``"f"``) tying each message's
  send to its delivery across tracks.  One simulated time unit is
  rendered as one millisecond (Chrome timestamps are microseconds).
* **JSONL spans** (:func:`spans_jsonl`) — one JSON object per span in
  id order; the machine-readable form the regression tests byte-compare.
* **Plain-text metrics report** — :meth:`MetricsRegistry.report`,
  written beside the traces by :func:`write_artifacts`.

Both JSON formats come out of one renderer, fed :data:`~repro.obs.spans.Row`
tuples a bounded chunk at a time: each span's attrs are encoded once,
in an order worked out once per keys tuple, and the same ``"key":value``
fragments fill its JSONL ``attrs`` and its Chrome ``args``.  The text is the one a sorted-keys ``json`` encoding of
the documents would give.  :func:`write_artifacts` reads the rows
straight from the tracer's columns and writes both files in one pass,
building no :class:`~repro.obs.spans.Span`; the string-returning
functions take the rows from a span list and join the very same chunks.
"""

from __future__ import annotations

import json
import os
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import (
    AbstractSet, Any, Callable, Dict, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

from ..errors import ReplicationError
from .observer import Observer
from .spans import INSTANT, Row, Span
from .timeseries import counter_trace

__all__ = [
    "chrome_trace",
    "spans_jsonl",
    "write_artifacts",
    "write_counter_track",
    "assert_no_open_spans",
]


def assert_no_open_spans(observer: Observer) -> None:
    """Fail loudly if finalization left any span unbounded.

    ``finalize()`` closes stragglers at the horizon, so an open span
    after it means a bookkeeping bug (a hook that started a span and
    lost it), not a lazy technique's legitimate tail — exports must
    refuse to paper over that.
    """
    leaked = observer.tracer.open_spans()
    if leaked:
        listing = ", ".join(repr(span) for span in leaked[:5])
        raise ReplicationError(
            f"{len(leaked)} span(s) still open after finalize: {listing}"
        )

# Simulated-time unit -> Chrome microseconds (1 unit rendered as 1 ms).
_TS_SCALE = 1000.0

# What the renderer does not format itself goes through this encoder;
# the renderer's own text is what it would have produced.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Spans per chunk: one write to each file, and the lifetime of the
# renderer's memos.  Simulated times and names repeat within a chunk, so
# its memos hit; dropped at the chunk's end, they never hold more than a
# chunk's distinct values, whatever the length of the run.
_CHUNK_SPANS = 1024

# Chrome ``args`` keys every span carries besides its attrs (an attr of
# the same name wins).
_FIXED_ARGS = ("parent_id", "span_id", "status", "trace_id")

_INF = float("inf")
_int_text = int.__repr__

# A span's fields but its attrs, in slot order.
_FIELDS = attrgetter(*Span.__slots__[:-1])


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _text(value: Any) -> str:
    """JSON text of one value: exact atoms directly, the rest by ``_ENCODER``."""
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return _int_text(value)
    if cls is float:
        return _float_text(value)
    if value is None:
        return "null"
    if cls is bool:
        return "true" if value else "false"
    return _ENCODER.encode(value)


def _shape(
    attr_keys: Tuple[Any, ...], pairs: Dict[str, Dict[str, str]],
    key_texts: Dict[str, str],
) -> Optional[Tuple[list, Callable[[list], tuple], Optional[int]]]:
    """How a span whose attrs have these keys renders them.

    ``None`` when a key is not a ``str``: such attrs are encoded whole.
    Otherwise, in sorted key order, each key's ``"key":"value"`` memo,
    its ``"key":`` text and the position of its value; the getter that
    picks the ``args`` entries from the attr fragments followed by the
    fragments of :data:`_FIXED_ARGS`, in sorted key order, an attr
    shadowing the fixed key of its name; and the position of the ``dst``
    value, if there is one.
    """
    names = sorted(attr_keys)
    if any(name.__class__ is not str for name in names):
        return None
    position = {name: at for at, name in enumerate(attr_keys)}
    slots = {name: at for at, name in enumerate(names)}
    for at, name in enumerate(_FIXED_ARGS):
        slots.setdefault(name, len(names) + at)
    order = itemgetter(*[slots[name] for name in sorted(slots)])
    steps = [(pairs[name], key_texts[name], position[name]) for name in names]
    return steps, order, position.get("dst")


def _span_rows(spans: Iterable[Span]) -> List[Row]:
    """The rows of a list of :class:`Span`."""
    return [(*_FIELDS(span), tuple(span.attrs), tuple(span.attrs.values()))
            for span in spans]


class _Memo(dict):
    """A dict that fills a missing entry with ``make(key)``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[Any], Any]) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


def _render(
    rows: Sequence[Row], tids: Optional[Dict[str, str]], jsonl: bool
) -> Tuple[str, str]:
    """One chunk of span rows as Chrome trace events and as JSONL lines.

    The events (when ``tids``, each node's tid as text, is given) come
    comma-joined with a leading comma, ready to follow the previous piece
    of the ``traceEvents`` array; the lines (when ``jsonl``) end in
    newlines.  Strings, floats, ``"key":"value"`` fragments and the
    shape of each keys tuple are memoised for the chunk only.
    """
    strings = _Memo(encode_basestring_ascii)
    floats = _Memo(_float_text)
    keys = _Memo(lambda key: strings[key] + ":")
    # key -> (str value -> '"key":"value"')
    pairs = _Memo(lambda key: _Memo(lambda value: keys[key] + strings[value]))
    shapes = _Memo(lambda attr_keys: _shape(attr_keys, pairs, keys))

    def text(value: Any) -> str:
        # Memo keys are exact strs and non-zero floats only: 1, 1.0 and
        # True, or 0.0 and -0.0, are equal keys with different texts.
        cls = value.__class__
        if cls is str:
            return strings[value]
        if cls is float and value:
            return floats[value]
        return _text(value)

    events: List[str] = []
    lines: List[str] = []
    for (span_id, parent_id, trace_id, name, category, source, start, end,
         kind, status, attr_keys, attr_values) in rows:
        shape = shapes[attr_keys]
        # The fields a span always has, exact strs and ints as a rule,
        # formatted without a call where they are.
        span_id_text = (_int_text(span_id) if span_id.__class__ is int
                        else _text(span_id))
        parent_id_text = (_int_text(parent_id) if parent_id.__class__ is int
                          else _text(parent_id))
        status_text = strings[status] if status.__class__ is str else _text(status)
        trace_id_text = (strings[trace_id] if trace_id.__class__ is str
                         else _text(trace_id))
        name_text = strings[name] if name.__class__ is str else _text(name)
        category_text = (strings[category] if category.__class__ is str
                         else _text(category))
        if shape is None:
            attrs = dict(zip(attr_keys, attr_values))
            attrs_text = _ENCODER.encode(attrs) if jsonl else ""
            if tids is not None:
                args = {"span_id": span_id, "parent_id": parent_id,
                        "trace_id": trace_id, "status": status}
                args.update(attrs)
                args_text = _ENCODER.encode(args)
        else:
            steps, order, dst_at = shape
            fragments = []
            for pair, key_text, at in steps:
                value = attr_values[at]
                fragments.append(pair[value] if value.__class__ is str
                                 else key_text + text(value))
            attrs_text = "{" + ",".join(fragments) + "}"
            if tids is not None:
                fragments += ('"parent_id":' + parent_id_text,
                              '"span_id":' + span_id_text,
                              '"status":' + status_text,
                              '"trace_id":' + trace_id_text)
                args_text = "{" + ",".join(order(fragments)) + "}"
        if jsonl:
            lines.append(
                f'{{"attrs":{attrs_text},"category":{category_text},'
                f'"end":{text(end)},"kind":{text(kind)},'
                f'"name":{name_text},"parent_id":{parent_id_text},'
                f'"source":{text(source)},"span_id":{span_id_text},'
                f'"start":{text(start)},"status":{status_text},'
                f'"trace_id":{trace_id_text}}}\n'
            )
        if tids is None:
            continue
        tid = tids[source]
        ts_start = start * _TS_SCALE
        ts = text(ts_start)
        if kind == INSTANT:
            events.append(
                f'{{"args":{args_text},"cat":{category_text},"name":{name_text},'
                f'"ph":"i","pid":0,"s":"t","tid":{tid},"ts":{ts}}}'
            )
            continue
        ts_end = (end if end is not None else start) * _TS_SCALE
        events.append(
            f'{{"args":{args_text},"cat":{category_text},'
            f'"dur":{text(ts_end - ts_start)},'
            f'"name":{name_text},"ph":"X","pid":0,"tid":{tid},"ts":{ts}}}'
        )
        if category == "message" and status == "ok":
            # Flow arrow from the send on the source track to the
            # arrival on the destination track.
            if shape is None:
                dst = attrs.get("dst")
            else:
                dst = attr_values[dst_at] if dst_at is not None else None
            if dst in tids:
                events.append(
                    f'{{"cat":"message","id":{span_id_text},"name":"flight",'
                    f'"ph":"s","pid":0,"tid":{tid},"ts":{ts}}}'
                )
                events.append(
                    f'{{"bp":"e","cat":"message","id":{span_id_text},'
                    f'"name":"flight","ph":"f","pid":0,"tid":{tids[dst]},'
                    f'"ts":{text(ts_end)}}}'
                )
    return ("," + ",".join(events) if events else "", "".join(lines))


def _chunks(
    rows: Iterable[Row], tids: Optional[Dict[str, str]], jsonl: bool
) -> Iterator[Tuple[str, str]]:
    rows = iter(rows)
    chunk = list(islice(rows, _CHUNK_SPANS))
    while chunk:
        yield _render(chunk, tids, jsonl)
        chunk = list(islice(rows, _CHUNK_SPANS))


def _tracks(
    seen: AbstractSet[str], node_order: Optional[Sequence[str]], process_name: str
) -> Tuple[Dict[str, str], str]:
    """Deterministic tid per node of ``seen`` (declared order, then the
    rest), as text, and the document's head: its opening and the track
    metadata events."""
    tracks = [name for name in (node_order or []) if name in seen]
    tracks += sorted(seen - set(tracks))
    tid_of = {name: index for index, name in enumerate(tracks)}
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    for name in tracks:
        events.append({"ph": "M", "pid": 0, "tid": tid_of[name],
                       "name": "thread_name", "args": {"name": name}})
        events.append({"ph": "M", "pid": 0, "tid": tid_of[name],
                       "name": "thread_sort_index",
                       "args": {"sort_index": tid_of[name]}})
    head = '{"displayTimeUnit":"ms","traceEvents":[' + _ENCODER.encode(events)[1:-1]
    return {name: _int_text(tid) for name, tid in tid_of.items()}, head


_TRACE_TAIL = "]}\n"


def chrome_trace(
    spans: Sequence[Span],
    node_order: Optional[Sequence[str]] = None,
    process_name: str = "repro",
) -> str:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable)."""
    rows = _span_rows(spans)
    tids, head = _tracks({row[5] for row in rows}, node_order, process_name)
    pieces = [head]
    pieces += [events for events, _ in _chunks(rows, tids, False)]
    pieces.append(_TRACE_TAIL)
    return "".join(pieces)


def spans_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per span, in span-id order, keys sorted."""
    ordered = sorted(spans, key=attrgetter("span_id"))
    return "".join([lines for _, lines in _chunks(_span_rows(ordered), None, True)])


def write_artifacts(
    observer: Observer,
    stem: str,
    node_order: Optional[Sequence[str]] = None,
    title: str = "metrics",
) -> Dict[str, str]:
    """Write the three run artifacts next to each other.

    ``stem`` is a path without extension; the files written are
    ``<stem>.trace.json``, ``<stem>.spans.jsonl`` and
    ``<stem>.metrics.txt``.  The two JSON files are written together,
    chunk by chunk, in one pass over the tracer's rows: span ids are
    positions, so the rows are already in the JSONL's id order.  Returns
    format -> path.
    """
    observer.finalize()
    assert_no_open_spans(observer)
    directory = os.path.dirname(stem)
    if directory:
        os.makedirs(directory, exist_ok=True)
    paths = {
        "trace": f"{stem}.trace.json",
        "spans": f"{stem}.spans.jsonl",
        "metrics": f"{stem}.metrics.txt",
    }
    tracer = observer.tracer
    tids, head = _tracks(tracer.sources(), node_order, title)
    with open(paths["trace"], "w") as trace, open(paths["spans"], "w") as jsonl:
        trace.write(head)
        for events, lines in _chunks(tracer.rows(), tids, True):
            trace.write(events)
            jsonl.write(lines)
        trace.write(_TRACE_TAIL)
    with open(paths["metrics"], "w") as handle:
        handle.write(observer.metrics.report(title=title))
    return paths


def write_counter_track(
    observer: Observer, stem: str, title: str = "repro profile"
) -> str:
    """Write the run's time series as a Perfetto counter-track document.

    Kept separate from :func:`write_artifacts` (which writes exactly the
    three classic artifacts) so existing callers and tests keep their
    contract; the profiler calls both.  Returns the written path.
    """
    observer.finalize()
    directory = os.path.dirname(stem)
    if directory:
        os.makedirs(directory, exist_ok=True)
    path = f"{stem}.counters.trace.json"
    with open(path, "w") as handle:
        handle.write(
            counter_trace(observer.metrics.series_snapshot(), process_name=title)
        )
    return path
