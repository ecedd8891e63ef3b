"""Trace and metrics exporters: JSONL, Chrome trace, Prometheus text.

Three formats cover the three consumption paths:

* **JSONL** — one span (or one metrics snapshot) per line, trivially
  greppable and streamable into pandas
  (``pd.read_json(path, lines=True)``);
* **Chrome trace** — the ``traceEvents`` document that loads directly in
  ``chrome://tracing`` or Perfetto. Spans become complete events
  (``ph: "X"``) with microsecond ``ts``/``dur``; nesting is recovered
  from timestamps on a single thread row.
* **Prometheus text** — the ``text/plain; version=0.0.4`` exposition
  format, so a run's final metrics can be dropped into a node-exporter
  textfile collector or diffed line-by-line in CI. Output is sorted and
  byte-stable for a given snapshot.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.obs.tracing import Span

if TYPE_CHECKING:
    from repro.obs.registry import MetricsSnapshot

__all__ = [
    "span_to_record",
    "spans_to_jsonl",
    "spans_to_chrome",
    "write_jsonl",
    "write_chrome_trace",
    "metrics_to_prometheus",
    "write_prometheus",
    "metrics_to_jsonl",
    "write_metrics_jsonl",
]


def span_to_record(span: Span) -> dict:
    """Flatten one span into a JSON-ready dict (seconds kept as floats)."""
    return {
        "name": span.name,
        "start_s": span.start_s,
        "duration_s": span.duration_s,
        "depth": span.depth,
        "parent": span.parent,
        "index": span.index,
        "attrs": dict(span.attrs),
    }


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """Render spans as one JSON object per line."""
    return "\n".join(json.dumps(span_to_record(s)) for s in spans)


def spans_to_chrome(
    spans: Iterable[Span],
    process_name: str = "ecgraph",
) -> dict:
    """Build a Chrome-trace document (``chrome://tracing`` / Perfetto).

    All spans land on pid 0 / tid 0; complete events carry microsecond
    timestamps relative to the tracer origin, so the viewer reconstructs
    the nesting purely from containment.
    """
    events = [{
        "name": "process_name",
        "ph": "M",
        "pid": 0,
        "tid": 0,
        "args": {"name": process_name},
    }]
    for span in spans:
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": span.start_s * 1e6,
            "dur": span.duration_s * 1e6,
            "pid": 0,
            "tid": 0,
            "cat": span.name,
            "args": dict(span.attrs),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_jsonl(spans: Iterable[Span], path: str | Path) -> Path:
    """Write spans as JSONL; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = spans_to_jsonl(spans)
    path.write_text(text + ("\n" if text else ""))
    return path


def write_chrome_trace(
    spans: Iterable[Span],
    path: str | Path,
    process_name: str = "ecgraph",
) -> Path:
    """Write the Chrome-trace JSON document; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(spans_to_chrome(spans, process_name), handle)
    return path


# ----------------------------------------------------------------------
# Metrics exporters
# ----------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus charset."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"ecgraph_{cleaned}"


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(str(v))}"' for k, v in labels)
    return "{" + inner + "}"


def _prom_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def metrics_to_prometheus(snapshot: "MetricsSnapshot") -> str:
    """Render a metrics snapshot in the Prometheus text format.

    Counters and gauges map directly; histogram summaries become
    ``<name>_count`` / ``<name>_sum`` summary pairs plus ``_min`` /
    ``_max`` gauges. Families and series are emitted in sorted order, so
    the same snapshot always renders to the same bytes.
    """
    families: dict[str, tuple[str, list[str]]] = {}

    def _add(name: str, kind: str, line: str) -> None:
        family = families.get(name)
        if family is None:
            family = families[name] = (kind, [])
        family[1].append(line)

    for (name, labels), value in sorted(snapshot.counters.items()):
        prom = _prom_name(name)
        _add(prom, "counter",
             f"{prom}{_prom_labels(labels)} {_prom_value(value)}")
    for (name, labels), value in sorted(snapshot.gauges.items()):
        prom = _prom_name(name)
        _add(prom, "gauge",
             f"{prom}{_prom_labels(labels)} {_prom_value(value)}")
    for (name, labels), (count, total, lo, hi) in sorted(
        snapshot.histograms.items()
    ):
        prom = _prom_name(name)
        rendered = _prom_labels(labels)
        _add(prom, "summary", f"{prom}_count{rendered} {_prom_value(count)}")
        _add(prom, "summary", f"{prom}_sum{rendered} {_prom_value(total)}")
        if count:
            _add(f"{prom}_min", "gauge",
                 f"{prom}_min{rendered} {_prom_value(lo)}")
            _add(f"{prom}_max", "gauge",
                 f"{prom}_max{rendered} {_prom_value(hi)}")

    lines: list[str] = []
    for name in sorted(families):
        kind, series = families[name]
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(series)
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(snapshot: "MetricsSnapshot", path: str | Path) -> Path:
    """Write the Prometheus rendering; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_prometheus(snapshot))
    return path


def metrics_to_jsonl(snapshots: Iterable["MetricsSnapshot"]) -> str:
    """Render snapshots (e.g. one per epoch) as one JSON object per line.

    ``sort_keys`` plus the snapshot's own sorted ``as_dict`` keeps the
    output deterministic for a given sequence of snapshots.
    """
    return "\n".join(
        json.dumps(snap.as_dict(), sort_keys=True) for snap in snapshots
    )


def write_metrics_jsonl(
    snapshots: Iterable["MetricsSnapshot"], path: str | Path
) -> Path:
    """Write metrics snapshots as JSONL; returns the resolved path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = metrics_to_jsonl(snapshots)
    path.write_text(text + ("\n" if text else ""))
    return path
