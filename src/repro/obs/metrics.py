"""Run-time metrics: counters, gauges and histograms.

The instrumented layers register cheap instruments here (messages by
type, broadcasts by primitive, lock wait/hold times, abort reasons,
failure-detector suspicions, per-phase latency) and the registry
snapshots them as one deterministic dict — the numeric companion to the
span trace, printable as a plain-text report beside every benchmark
artifact.

Instruments are addressed by ``(name, label)``: the name is the metric
family (``"messages.sent"``), the optional label the dimension value
(the message type).  Snapshot keys render as ``name{label}`` so the
report stays grep-able.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from .timeseries import DEFAULT_BUCKET_WIDTH, TimeSeries

__all__ = [
    "Counter", "Gauge", "Histogram", "InstrumentFamily", "MetricsRegistry",
    "percentile",
]


def percentile(data: List[float], q: float) -> float:
    """Nearest-rank percentile over sorted data; 0.0 for no data.

    The one percentile of the package: histograms here and
    :class:`~repro.analysis.LatencyStats` both read it.
    """
    if not data:
        return 0.0
    index = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
    return data[index]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.value}>"


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.value}>"


class Histogram:
    """Distribution of observed values.

    Observations are retained, as floats in an ``array('d')`` (8 bytes
    each, no object per sample), so the snapshot can report exact
    nearest-rank quantiles instead of bucket approximations; the summary
    matches ``analysis.LatencyStats`` semantics so benchmark rows and
    metrics reports agree.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values = array("d")

    def observe(self, value: float) -> None:
        self.values.append(value)

    def summary(self) -> Dict[str, float]:
        data = sorted(self.values)
        if not data:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        return {
            "count": len(data),
            "mean": round(sum(data) / len(data), 6),
            "p50": round(percentile(data, 0.50), 6),
            "p95": round(percentile(data, 0.95), 6),
            "p99": round(percentile(data, 0.99), 6),
            "max": round(data[-1], 6),
        }

    def __repr__(self) -> str:
        return f"<Histogram n={len(self.values)}>"


def _key(name: str, label: Optional[str]) -> Tuple[str, str]:
    return (name, label if label is not None else "")


def _render(key: Tuple[str, str]) -> str:
    name, label = key
    return f"{name}{{{label}}}" if label else name


class InstrumentFamily(dict):
    """``label -> instrument`` of one metric name, filled on first use.

    What a per-message hook holds in place of ``registry.inc(name,
    label)``: a hit is one dict subscript, with no key tuple and no call
    chain.  Creation stays lazy, so an instrument enters the report only
    once something touched it.  ``accessor`` is the registry method that
    makes it (``registry.counter``, ``.histogram``, ``.series``);
    unlabelled metrics use the label ``None``.
    """

    __slots__ = ("_accessor", "_name")

    def __init__(self, accessor: Callable[[str, Optional[str]], Any], name: str) -> None:
        self._accessor = accessor
        self._name = name

    def __missing__(self, label: Optional[str]) -> Any:
        instrument = self[label] = self._accessor(self._name, label)
        return instrument


class MetricsRegistry:
    """All instruments of one observed run."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}
        self._series: Dict[Tuple[str, str], TimeSeries] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, label: Optional[str] = None) -> Counter:
        return self._counters.setdefault(_key(name, label), Counter())

    def gauge(self, name: str, label: Optional[str] = None) -> Gauge:
        return self._gauges.setdefault(_key(name, label), Gauge())

    def histogram(self, name: str, label: Optional[str] = None) -> Histogram:
        return self._histograms.setdefault(_key(name, label), Histogram())

    def series(self, name: str, label: Optional[str] = None) -> TimeSeries:
        """The windowed time series for ``(name, label)``.

        All series share :data:`DEFAULT_BUCKET_WIDTH` so their
        buckets align — a throughput dent and a breaker state flip in
        the same bucket are the same moment of the run.
        """
        key = _key(name, label)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(DEFAULT_BUCKET_WIDTH)
        return series

    # -- one-call helpers ----------------------------------------------------

    def inc(self, name: str, label: Optional[str] = None, amount: int = 1) -> None:
        self.counter(name, label).inc(amount)

    def set(self, name: str, value: float, label: Optional[str] = None) -> None:
        self.gauge(name, label).set(value)

    def observe(self, name: str, value: float, label: Optional[str] = None) -> None:
        self.histogram(name, label).observe(value)

    def sample(
        self, name: str, time: float, value: float = 1.0,
        label: Optional[str] = None,
    ) -> None:
        """Record ``value`` at simulated ``time`` into a windowed series."""
        self.series(name, label).observe(time, value)

    def series_snapshot(self) -> Dict[str, TimeSeries]:
        """All series keyed by their rendered ``name{label}`` form."""
        return {_render(k): s for k, s in sorted(self._series.items())}

    def gauge_values(self) -> List[Tuple[str, str, float]]:
        """``(name, label, value)`` rows for every gauge, sorted by key."""
        return [
            (name, label, gauge.value)
            for (name, label), gauge in sorted(self._gauges.items())
        ]

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All instruments as one sorted, JSON-serialisable dict."""
        return {
            "counters": {
                _render(k): c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {
                _render(k): g.value for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                _render(k): h.summary() for k, h in sorted(self._histograms.items())
            },
            "timeseries": {
                _render(k): s.summary() for k, s in sorted(self._series.items())
            },
        }

    def report(self, title: str = "metrics") -> str:
        """Aligned plain-text rendering of :meth:`snapshot`."""
        snap = self.snapshot()
        lines = [f"# {title}", ""]
        if snap["counters"]:
            lines.append("[counters]")
            width = max(len(k) for k in snap["counters"])
            for key, value in snap["counters"].items():
                lines.append(f"{key.ljust(width)}  {value}")
            lines.append("")
        if snap["gauges"]:
            lines.append("[gauges]")
            width = max(len(k) for k in snap["gauges"])
            for key, value in snap["gauges"].items():
                lines.append(f"{key.ljust(width)}  {value:g}")
            lines.append("")
        if snap["histograms"]:
            lines.append("[histograms]")
            width = max(len(k) for k in snap["histograms"])
            header = f"{'metric'.ljust(width)}  {'count':>6} {'mean':>10} " \
                     f"{'p50':>10} {'p95':>10} {'p99':>10} {'max':>10}"
            lines.append(header)
            lines.append("-" * len(header))
            for key, s in snap["histograms"].items():
                lines.append(
                    f"{key.ljust(width)}  {s['count']:>6} {s['mean']:>10.3f} "
                    f"{s['p50']:>10.3f} {s['p95']:>10.3f} {s['p99']:>10.3f} "
                    f"{s['max']:>10.3f}"
                )
            lines.append("")
        series = {
            _render(k): s for k, s in sorted(self._series.items()) if len(s)
        }
        if series:
            lines.append("[timeseries]")
            width = max(len(k) for k in series)
            for key, s in series.items():
                lines.append(
                    f"{key.ljust(width)}  width={s.width:g} "
                    f"buckets={len(s)} |{s.sparkline()}|"
                )
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)} "
            f"series={len(self._series)}>"
        )
