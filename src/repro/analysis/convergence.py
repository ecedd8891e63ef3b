"""Convergence-comparison helpers shared by the benchmarks.

The paper compares systems both on *time per epoch* (Table IV) and on
*time to converge* (Figs. 8-9: epoch time × epochs until the near-optimal
accuracy is reached). These helpers turn a set of
:class:`~repro.core.results.ConvergenceRun` objects into those derived
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import ConvergenceRun

__all__ = ["ConvergenceSummary", "summarize", "convergence_target"]


@dataclass(frozen=True)
class ConvergenceSummary:
    """Derived metrics of one run against a shared accuracy target."""

    name: str
    avg_epoch_seconds: float
    best_test_accuracy: float
    final_test_accuracy: float
    epochs_to_target: int | None
    seconds_to_target: float | None
    total_bytes: int
    preprocessing_seconds: float


def convergence_target(
    runs: list[ConvergenceRun], slack: float = 0.98
) -> float:
    """A shared accuracy target: ``slack`` times the best run's peak.

    The paper's "near-optimal test accuracy" criterion: a run converged
    once it reaches 98 % of the best accuracy any system achieved.
    """
    best = max((run.best_test_accuracy() for run in runs), default=0.0)
    return best * slack


def summarize(
    run: ConvergenceRun, target: float
) -> ConvergenceSummary:
    """Compute one run's summary against an accuracy target."""
    epochs_to_target = None
    for result in run.epochs:
        if result.test_accuracy >= target:
            epochs_to_target = result.epoch + 1
            break
    return ConvergenceSummary(
        name=run.name,
        avg_epoch_seconds=run.avg_epoch_seconds(),
        best_test_accuracy=run.best_test_accuracy(),
        final_test_accuracy=run.final_test_accuracy
        if run.final_test_accuracy is not None
        else (run.epochs[-1].test_accuracy if run.epochs else 0.0),
        epochs_to_target=epochs_to_target,
        seconds_to_target=run.time_to_accuracy(target),
        total_bytes=run.total_bytes(),
        preprocessing_seconds=run.preprocessing_seconds,
    )
