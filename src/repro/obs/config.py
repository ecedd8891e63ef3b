"""Configuration of the telemetry subsystem.

Telemetry is **off by default**: a disabled :class:`ObsConfig` builds a
null :class:`~repro.obs.telemetry.Telemetry` whose spans and metric
updates are no-ops, so the tier-1 benchmarks measure exactly what they
measured before the subsystem existed. Enabling it turns every collector
on; it costs one branch plus a ``perf_counter`` pair per span and a dict
update per metric.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ObsConfig", "OBS_DISABLED"]


@dataclass(frozen=True)
class ObsConfig:
    """The observability pipeline's one switch.

    Attributes:
        enabled: When True every collector runs (span tracer, metrics
            registry, compression-health monitor, stage profiler,
            channel ledger); when False every collector is a no-op.
        max_spans: Hard cap on recorded spans; once reached further
            spans are counted but dropped (guards long runs).
    """

    enabled: bool = False
    max_spans: int = 500_000

    def __post_init__(self):
        if self.max_spans < 1:
            raise ValueError("max_spans must be >= 1")


# Shared immutable default used by ECGraphConfig; frozen, so one
# instance can safely back every un-instrumented run.
OBS_DISABLED = ObsConfig()
