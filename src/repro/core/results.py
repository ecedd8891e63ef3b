"""Result containers for training runs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.engine import EpochBreakdown
from repro.obs.registry import MetricsSnapshot
from repro.obs.telemetry import TelemetryReport

__all__ = ["EpochResult", "ConvergenceRun"]


@dataclass(frozen=True)
class EpochResult:
    """Metrics of one training epoch.

    Accuracy numbers come from the same forward pass that trained (i.e.
    under whatever compression the run uses), which is what the paper's
    per-epoch curves show.

    ``telemetry`` is the epoch-scoped metrics snapshot when the run was
    instrumented (``ObsConfig(enabled=True)``);
    ``None`` otherwise.
    """

    epoch: int
    loss: float
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    breakdown: EpochBreakdown
    telemetry: MetricsSnapshot | None = None


@dataclass
class ConvergenceRun:
    """A full training run: per-epoch metrics plus preprocessing costs.

    Attributes:
        name: Label used in benchmark tables (system / configuration).
        epochs: Per-epoch results, in order.
        preprocessing_seconds: Partitioning + data loading + caches
            (Fig. 9 charges these in the end-to-end comparison).
        final_test_accuracy: Exact-communication test accuracy measured
            after training (Table V); ``None`` if not evaluated.
        meta: Free-form details (bits used, dataset, cluster size, ...).
        telemetry: End-of-run :class:`~repro.obs.TelemetryReport`
            (per-phase span totals, metrics, compression health) when
            the run was instrumented; ``None`` otherwise.
    """

    name: str
    epochs: list[EpochResult] = field(default_factory=list)
    preprocessing_seconds: float = 0.0
    final_test_accuracy: float | None = None
    meta: dict = field(default_factory=dict)
    telemetry: TelemetryReport | None = None

    # ------------------------------------------------------------------
    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def training_seconds(self) -> float:
        """Sum of modelled epoch times."""
        return sum(e.breakdown.total_seconds for e in self.epochs)

    def avg_epoch_seconds(self) -> float:
        """Mean modelled epoch time (the Table IV quantity)."""
        return self.training_seconds() / self.num_epochs if self.epochs else 0.0

    def best_test_accuracy(self) -> float:
        return max((e.test_accuracy for e in self.epochs), default=0.0)

    def time_to_accuracy(self, target: float) -> float | None:
        """Modelled seconds until test accuracy first reaches ``target``.

        Returns ``None`` when the run never got there — callers must
        treat that as "did not converge", not as zero time.
        """
        elapsed = self.preprocessing_seconds
        for result in self.epochs:
            elapsed += result.breakdown.total_seconds
            if result.test_accuracy >= target:
                return elapsed
        return None

    def total_bytes(self) -> int:
        """Total inter-machine traffic over the run."""
        return sum(e.breakdown.bytes_sent for e in self.epochs)

    def accuracy_curve(self) -> list[tuple[int, float]]:
        """(epoch, test accuracy) pairs — the Fig. 6/7 series."""
        return [(e.epoch, e.test_accuracy) for e in self.epochs]
