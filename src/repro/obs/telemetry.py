"""The telemetry facade wired through the trainer and cluster runtime.

One :class:`Telemetry` object bundles the five collectors (span tracer,
metrics registry, compression-health monitor, stage profiler, channel
ledger) behind the single :class:`~repro.obs.config.ObsConfig` switch.
Instrumented code holds a ``Telemetry`` and calls ``span()`` /
``stage()`` / ``metrics.inc()`` / ``ledger.record_frame()``
unconditionally; when the config is disabled every call is a no-op on a
shared null object, so the un-instrumented timings are preserved.

There is exactly one ``Telemetry`` per training run: the trainer builds
it, hands it to the :class:`~repro.cluster.engine.ClusterRuntime`, and
the staged engine's :class:`~repro.engine.context.ExchangeContext`
carries the same instance to every stage, the halo transport and the
recovery manager — so the span tree (``epoch > stage > layer >
kernel/halo_exchange > encode/decode``) nests consistently no matter
which layer opened the span.

Each engine stage is timed once: :meth:`Telemetry.stage` opens the
stage's span, and the span's own ``perf_counter`` pair is also the wall
time of the profiler's :class:`~repro.obs.profiler.StageSample`.
:meth:`Telemetry.epoch` does the same for the epoch envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.config import ObsConfig
from repro.obs.health import CompressionHealthMonitor, HealthReport
from repro.obs.ledger import NULL_LEDGER, ChannelLedger, LedgerSnapshot
from repro.obs.profiler import StageProfile, StageProfiler
from repro.obs.registry import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import _NULL_CONTEXT, NullTracer, Span, SpanTracer

__all__ = ["Telemetry", "TelemetryReport", "NULL_TELEMETRY"]

_NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class TelemetryReport:
    """End-of-run telemetry attached to a :class:`ConvergenceRun`.

    Attributes:
        phase_totals: ``span name -> (count, total seconds)``.
        metrics: Lifetime metrics snapshot.
        health: Compression-health report.
        num_spans: Spans recorded; ``dropped_spans`` counts overflow.
        profile: Stage timeline profile.
        ledger: Per-channel traffic ledger snapshot.
        membership_events: The elastic-membership timeline
            (:attr:`~repro.membership.view.MembershipView.events` as
            dicts; empty when elasticity is off).
    """

    phase_totals: dict[str, tuple[int, float]]
    metrics: MetricsSnapshot
    health: HealthReport | None
    num_spans: int
    dropped_spans: int
    profile: StageProfile | None = None
    ledger: LedgerSnapshot | None = None
    membership_events: tuple[dict, ...] = ()
    spans: list[Span] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {
            "phase_totals": {
                name: {"count": count, "seconds": seconds}
                for name, (count, seconds) in sorted(self.phase_totals.items())
            },
            "metrics": self.metrics.as_dict(),
            "health": self.health.as_dict() if self.health else None,
            "num_spans": self.num_spans,
            "dropped_spans": self.dropped_spans,
            "profile": self.profile.as_dict() if self.profile else None,
            "ledger": self.ledger.as_dict() if self.ledger else None,
            "membership_events": [dict(e) for e in self.membership_events],
        }


class _EpochContext:
    """The ``epoch`` span; its duration is the profile's envelope."""

    __slots__ = ("_profiler", "_span", "_epoch", "_runtime")

    def __init__(self, telemetry: "Telemetry", epoch: int, runtime):
        self._profiler = telemetry.profiler
        self._span = telemetry.tracer.span("epoch", epoch=epoch)
        self._epoch = epoch
        self._runtime = runtime

    def __enter__(self):
        self._profiler.begin_epoch(self._epoch, self._runtime)
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._span.__exit__(exc_type, exc, tb)
        if exc_type is None:
            self._profiler.end_epoch(self._span.duration_s)
        return False


class _StageContext:
    """One engine stage: its span's duration is its sample's wall time."""

    __slots__ = ("_profiler", "_span", "_name", "_before")

    def __init__(self, telemetry: "Telemetry", name: str, epoch: int):
        self._profiler = telemetry.profiler
        self._span = telemetry.tracer.span(name, epoch=epoch)
        self._name = name

    def __enter__(self):
        self._before = self._profiler.snapshot()
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._span.__exit__(exc_type, exc, tb)
        self._profiler.record_stage(
            self._name, self._span.duration_s, self._before
        )
        return False


class Telemetry:
    """Bundle of tracer + metrics + health + profiler + ledger behind
    one enable switch."""

    __slots__ = ("config", "enabled", "tracer", "metrics", "health",
                 "profiler", "ledger")

    def __init__(self, config: ObsConfig | None = None):
        self.config = config or ObsConfig()
        self.enabled = self.config.enabled
        self.metrics = MetricsRegistry(enabled=self.enabled)
        if self.enabled:
            self.tracer = SpanTracer(
                max_spans=self.config.max_spans, metrics=self.metrics
            )
            self.health = CompressionHealthMonitor()
            self.profiler = StageProfiler()
            self.ledger = ChannelLedger()
        else:
            self.tracer = _NULL_TRACER
            self.health = None
            self.profiler = None
            self.ledger = NULL_LEDGER

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a nested span (no-op context when telemetry is off)."""
        return self.tracer.span(name, **attrs)

    def epoch(self, epoch: int, runtime):
        """Open the ``epoch`` span; on a clean exit the profile freezes
        the epoch's timeline, attributing its stages against
        ``runtime``."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _EpochContext(self, epoch, runtime)

    def stage(self, name: str, epoch: int):
        """Open one engine stage: one span and one profiled sample, timed
        by the same ``perf_counter`` pair."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _StageContext(self, name, epoch)

    def end_epoch(self, epoch: int) -> MetricsSnapshot | None:
        """Close one epoch's metrics scope.

        Returns the epoch-scoped snapshot (it becomes
        ``EpochResult.telemetry``) and resets the epoch scope so the
        next epoch starts clean; None when telemetry is off.
        """
        if not self.enabled:
            return None
        self.metrics.set_gauge("last_epoch", epoch)
        return self.metrics.reset_epoch()

    def report(self, membership_events=()) -> TelemetryReport:
        """Aggregate everything collected so far (``membership_events``
        is the run's elastic-membership timeline, as dicts)."""
        return TelemetryReport(
            phase_totals=self.tracer.totals_by_name(),
            metrics=self.metrics.snapshot("total"),
            health=self.health.report() if self.health else None,
            num_spans=len(self.tracer.spans),
            dropped_spans=self.tracer.dropped,
            profile=self.profiler.profile() if self.profiler else None,
            ledger=self.ledger.snapshot() if self.ledger.enabled else None,
            membership_events=tuple(dict(e) for e in membership_events),
            spans=self.tracer.spans,
        )

    def reset(self) -> None:
        """Clear all collectors (between independent runs)."""
        self.tracer.reset()
        self.metrics.reset()
        if self.enabled:
            self.health.reset()
            self.profiler.reset()
        self.ledger.reset()


# Shared disabled instance: the default for every un-instrumented run.
NULL_TELEMETRY = Telemetry(ObsConfig(enabled=False))
