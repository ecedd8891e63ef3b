"""Observability: tracing, metrics, health, stage profile, traffic ledger.

The subsystem has five collectors behind one switch
(:class:`~repro.obs.config.ObsConfig`, off by default; ``enabled=True``
turns all of them on):

* :class:`~repro.obs.registry.MetricsRegistry` — labelled counters /
  gauges / histograms with per-epoch snapshot/reset semantics;
* :class:`~repro.obs.tracing.SpanTracer` — nested ``perf_counter``
  spans (``epoch > halo_plan/forward/backward/optimize > layer >
  halo_exchange/encode/decode/kernel/server_apply``), exportable as
  JSONL or Chrome trace via :mod:`repro.obs.export`;
* :class:`~repro.obs.health.CompressionHealthMonitor` — ReqEC-FP
  candidate-win fractions, Bit-Tuner width trajectory, and ResEC-BP
  residual norms checked against the Theorem 1 bound;
* :class:`~repro.obs.profiler.StageProfiler` — per-epoch stage timeline
  (wall + modelled time, straggler and bottleneck-link attribution),
  folded from the same stage spans the tracer records;
* :class:`~repro.obs.ledger.ChannelLedger` — per-channel wire-byte /
  retry / degradation ledger reconciling byte-exact against the
  :class:`~repro.cluster.network.TrafficMeter`.

:mod:`repro.obs.report` renders one self-contained epoch report
(markdown or HTML) from a finished run and writes it next to the trace
and metrics exports (``repro report`` on the CLI).
See ``docs/observability.md`` for usage.
"""

from repro.obs.config import OBS_DISABLED, ObsConfig
from repro.obs.export import (
    metrics_to_jsonl,
    metrics_to_prometheus,
    span_to_record,
    spans_to_chrome,
    spans_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.obs.health import CompressionHealthMonitor, HealthReport, ResidualCheck
from repro.obs.ledger import (
    NULL_LEDGER,
    ChannelLedger,
    ChannelRecord,
    LedgerSnapshot,
    NullChannelLedger,
    direction_of_category,
)
from repro.obs.profiler import (
    ENGINE_STAGES,
    EpochTimeline,
    StageProfile,
    StageProfiler,
    StageSample,
)
from repro.obs.registry import HistogramStat, MetricsRegistry, MetricsSnapshot
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, TelemetryReport
from repro.obs.tracing import NullTracer, Span, SpanTracer, monotonic_now

__all__ = [
    "OBS_DISABLED",
    "ObsConfig",
    "metrics_to_jsonl",
    "metrics_to_prometheus",
    "span_to_record",
    "spans_to_chrome",
    "spans_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_jsonl",
    "write_prometheus",
    "CompressionHealthMonitor",
    "HealthReport",
    "ResidualCheck",
    "NULL_LEDGER",
    "ChannelLedger",
    "ChannelRecord",
    "LedgerSnapshot",
    "NullChannelLedger",
    "direction_of_category",
    "ENGINE_STAGES",
    "EpochTimeline",
    "StageProfile",
    "StageProfiler",
    "StageSample",
    "HistogramStat",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TELEMETRY",
    "Telemetry",
    "TelemetryReport",
    "NullTracer",
    "Span",
    "SpanTracer",
    "monotonic_now",
]
