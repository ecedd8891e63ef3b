"""Chaos runner: train under a fault scenario and report survival.

Runs the same system twice on the same graph — once fault-free, once
under a named scenario from :mod:`repro.faults.scenarios` — and distils
the comparison into a :class:`ChaosReport`: did training survive every
scheduled epoch, what did the tolerance machinery absorb, and how much
accuracy/time did the faults cost.

This module imports :mod:`repro.core`, so it is intentionally *not*
re-exported from ``repro.faults.__init__`` (which ``repro.core.config``
itself imports).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.baselines.systems import run_system
from repro.core.results import ConvergenceRun
from repro.faults.config import FaultConfig
from repro.faults.injector import FaultCounters
from repro.faults.scenarios import build_scenario
from repro.graph.store.base import GraphStoreBundle

__all__ = ["ChaosReport", "run_chaos"]


@dataclass(frozen=True)
class ChaosReport:
    """Outcome of one chaos scenario versus its fault-free twin."""

    scenario: str
    fault_config: FaultConfig
    scheduled_epochs: int
    completed_epochs: int
    counters: FaultCounters
    baseline_accuracy: float
    chaos_accuracy: float
    baseline_seconds: float
    chaos_seconds: float
    membership_events: tuple[dict, ...] = ()

    @property
    def survived(self) -> bool:
        """All scheduled epochs completed despite the injected faults."""
        return self.completed_epochs == self.scheduled_epochs

    @property
    def accuracy_gap(self) -> float:
        """Fault-free minus faulty final test accuracy (>0 = faults hurt)."""
        return self.baseline_accuracy - self.chaos_accuracy

    @property
    def slowdown(self) -> float:
        """Modelled time ratio faulty / fault-free."""
        if self.baseline_seconds <= 0:
            return 1.0
        return self.chaos_seconds / self.baseline_seconds

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "scheduled_epochs": self.scheduled_epochs,
            "completed_epochs": self.completed_epochs,
            "survived": self.survived,
            "baseline_accuracy": self.baseline_accuracy,
            "chaos_accuracy": self.chaos_accuracy,
            "accuracy_gap": self.accuracy_gap,
            "baseline_seconds": self.baseline_seconds,
            "chaos_seconds": self.chaos_seconds,
            "slowdown": self.slowdown,
            "counters": self.counters.as_dict(),
            "membership_events": [dict(e) for e in self.membership_events],
        }


def _total_seconds(run: ConvergenceRun) -> float:
    return sum(epoch.breakdown.total_seconds for epoch in run.epochs)


def run_chaos(
    graph: GraphStoreBundle,
    scenario: str,
    system: str = "ecgraph",
    num_layers: int = 2,
    hidden_dim: int = 16,
    num_workers: int = 4,
    num_epochs: int = 30,
    seed: int = 0,
    checkpoint_dir: str | None = None,
    execution: str = "sync",
) -> ChaosReport:
    """Train ``system`` fault-free and under ``scenario``; compare.

    Both runs share the model/seed/cluster configuration, so every
    difference between them is attributable to the injected faults and
    the tolerance machinery absorbing them. Early stopping is disabled:
    the acceptance question is whether *all* scheduled epochs complete.
    """
    from repro.baselines.systems import SYSTEMS
    from repro.cluster.topology import ClusterSpec
    from repro.core.config import ECGraphConfig, ModelConfig

    faults = build_scenario(scenario, num_epochs, num_workers, seed=seed)
    if checkpoint_dir is not None:
        faults = replace(faults, checkpoint_dir=str(checkpoint_dir))
    base = ECGraphConfig(seed=seed, execution=execution)
    # Built first: a scenario the execution mode refuses (elastic under
    # multiprocess) fails before the baseline trains.
    faulty = replace(base, faults=faults)

    baseline = run_system(
        system, graph, num_layers=num_layers, hidden_dim=hidden_dim,
        num_workers=num_workers, num_epochs=num_epochs, config=base,
    )

    # run_system returns the ConvergenceRun but not the trainer, and the
    # report needs the injector counters — so build the faulty trainer
    # through the same registry factory directly.
    model = ModelConfig(num_layers=num_layers, hidden_dim=hidden_dim)
    spec = ClusterSpec(num_workers=num_workers)
    with SYSTEMS[system](graph, model, spec, faulty, None) as trainer:
        chaos_run = trainer.train(num_epochs, name=f"{system}+{scenario}")
    counters = trainer.fault_counters or FaultCounters()
    events = tuple(trainer.membership_events)

    return ChaosReport(
        scenario=scenario,
        fault_config=faults,
        scheduled_epochs=num_epochs,
        completed_epochs=len(chaos_run.epochs),
        counters=counters,
        baseline_accuracy=baseline.final_test_accuracy or 0.0,
        chaos_accuracy=chaos_run.final_test_accuracy or 0.0,
        baseline_seconds=_total_seconds(baseline),
        chaos_seconds=_total_seconds(chaos_run),
        membership_events=events,
    )
