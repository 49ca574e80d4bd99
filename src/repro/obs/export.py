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

Both JSON formats come out of one generator each, a bounded chunk of
spans at a time: :func:`write_artifacts` streams the pieces to the file,
the string-returning functions join the very same pieces.
"""

from __future__ import annotations

import json
import os
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..errors import ReplicationError
from .observer import Observer
from .spans import INSTANT, Span
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

# The one encoder every exported JSON byte goes through.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# Spans per piece: enough to make the per-``encode`` overhead vanish, few
# enough that a piece's event dicts (~3 k, half a megabyte of text) die
# before the cyclic GC promotes them and runs a full collection.
_CHUNK_SPANS = 1024


def _track_order(spans: Sequence[Span], node_order: Optional[Sequence[str]]) -> List[str]:
    """Deterministic tid assignment: declared node order, then the rest."""
    seen = {span.source for span in spans}
    ordered = [name for name in (node_order or []) if name in seen]
    ordered += sorted(seen - set(ordered))
    return ordered


def _chunks(spans: Sequence[Span]) -> Iterator[Sequence[Span]]:
    for at in range(0, len(spans), _CHUNK_SPANS):
        yield spans[at:at + _CHUNK_SPANS]


def _trace_pieces(
    spans: Sequence[Span],
    node_order: Optional[Sequence[str]],
    process_name: str,
) -> Iterator[str]:
    """The Chrome trace document, piece by piece.

    Each chunk of spans becomes its events and one ``encode`` of that
    list; the brackets come off so the pieces join into the single
    ``traceEvents`` array without the whole list ever existing.
    """
    tracks = _track_order(spans, node_order)
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
    yield '{"displayTimeUnit":"ms","traceEvents":['
    yield _ENCODER.encode(events)[1:-1]
    for chunk in _chunks(spans):
        events = []
        for span in chunk:
            args = {"span_id": span.span_id, "parent_id": span.parent_id,
                    "trace_id": span.trace_id, "status": span.status}
            args.update(span.attrs)
            tid = tid_of[span.source]
            start = span.start * _TS_SCALE
            if span.kind == INSTANT:
                events.append({"ph": "i", "pid": 0, "tid": tid, "ts": start,
                               "s": "t", "name": span.name,
                               "cat": span.category, "args": args})
                continue
            end = (span.end if span.end is not None else span.start) * _TS_SCALE
            events.append({"ph": "X", "pid": 0, "tid": tid, "ts": start,
                           "dur": end - start, "name": span.name,
                           "cat": span.category, "args": args})
            if span.category == "message" and span.status == "ok":
                # Flow arrow from the send on the source track to the
                # arrival on the destination track.
                dst = span.attrs.get("dst")
                if dst in tid_of:
                    events.append({"ph": "s", "pid": 0, "tid": tid,
                                   "ts": start, "id": span.span_id,
                                   "name": "flight", "cat": "message"})
                    events.append({"ph": "f", "pid": 0, "tid": tid_of[dst],
                                   "ts": end, "id": span.span_id, "bp": "e",
                                   "name": "flight", "cat": "message"})
        yield "," + _ENCODER.encode(events)[1:-1]
    yield "]}\n"


def _jsonl_pieces(spans: Sequence[Span]) -> Iterator[str]:
    """The JSONL export, a chunk of whole lines at a time.

    One ``encode`` per span: attrs may nest anything, so where one
    record ends cannot be recovered from the text of an encoded list.
    """
    encode = _ENCODER.encode
    for chunk in _chunks(sorted(spans, key=attrgetter("span_id"))):
        yield "".join([
            encode({
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "name": span.name,
                "category": span.category,
                "kind": span.kind,
                "source": span.source,
                "start": span.start,
                "end": span.end,
                "status": span.status,
                "attrs": span.attrs,
            }) + "\n"
            for span in chunk
        ])


def chrome_trace(
    spans: Sequence[Span],
    node_order: Optional[Sequence[str]] = None,
    process_name: str = "repro",
) -> str:
    """Render spans as Chrome trace-event JSON (Perfetto-loadable)."""
    return "".join(_trace_pieces(spans, node_order, process_name))


def spans_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per span, in span-id order, keys sorted."""
    return "".join(_jsonl_pieces(spans))


def write_artifacts(
    observer: Observer,
    stem: str,
    node_order: Optional[Sequence[str]] = None,
    title: str = "metrics",
) -> Dict[str, str]:
    """Write the three run artifacts next to each other.

    ``stem`` is a path without extension; the files written are
    ``<stem>.trace.json``, ``<stem>.spans.jsonl`` and
    ``<stem>.metrics.txt``.  The two JSON files are streamed piece by
    piece, never held as one string.  Returns format -> path.
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
    spans = observer.tracer.spans
    with open(paths["trace"], "w") as handle:
        handle.writelines(_trace_pieces(spans, node_order, title))
    with open(paths["spans"], "w") as handle:
        handle.writelines(_jsonl_pieces(spans))
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
