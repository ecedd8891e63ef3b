"""The tolerance policy is one block of constants, each reached by a run.

``repro.faults.config`` fixes how the fault layer survives what a
``FaultConfig`` schedules: retries and their backoff, server-outage
attempts, the recovery stall, and the watchdog's thresholds. Each test
here drives one constant at its value and checks the run's books
against it exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig, FaultInjector
from repro.faults.config import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    MAX_RETRIES,
    OUTAGE_ATTEMPTS,
    RECOVERY_SECONDS,
    WATCHDOG_BURST,
    WATCHDOG_LOSS_FACTOR,
    WATCHDOG_WINDOW,
)
from repro.membership import ConvergenceWatchdog


def test_tolerance_fields_are_gone():
    for name in (
        "max_retries", "backoff_base_s", "backoff_factor",
        "outage_attempts", "recovery_seconds", "reset_residuals",
        "heartbeat_interval_s", "lease_grace_s",
        "max_consecutive_rollbacks", "watchdog_loss_factor",
        "watchdog_window", "watchdog_burst",
    ):
        with pytest.raises(TypeError):
            FaultConfig(**{name: 1})
    assert len(dataclasses.fields(FaultConfig)) == 17


def _trainer(graph, faults, workers=3, servers=1):
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=workers, num_servers=servers),
        ECGraphConfig(faults=faults),
    )


@pytest.mark.parametrize("attempt", range(1, MAX_RETRIES + 1))
def test_backoff_doubles_per_retransmission(attempt):
    injector = FaultInjector(FaultConfig(enabled=True))
    assert injector.backoff_seconds(attempt) == pytest.approx(
        BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1)
    )


def test_every_lost_message_spends_max_retries(small_graph):
    """With every attempt dropped, each message is retried exactly
    MAX_RETRIES times and then degrades."""
    trainer = _trainer(small_graph, FaultConfig(enabled=True, drop_prob=1.0))
    trainer.train(3)
    counters = trainer.fault_counters
    assert counters.degraded > 0
    assert counters.retries == MAX_RETRIES * counters.degraded
    assert counters.drops == (MAX_RETRIES + 1) * counters.degraded


def test_outage_costs_outage_attempts_per_shard_message(small_graph):
    trainer = _trainer(
        small_graph, FaultConfig(enabled=True, server_outages=((1, 0),))
    )
    trainer.setup()
    servers = trainer.servers
    calls = []
    retry = servers._outage_retries

    def counted(worker, server, *args):
        calls.append(server)
        retry(worker, server, *args)

    servers._outage_retries = counted
    trainer.run_epoch(0)
    assert trainer.fault_counters.ps_retries == 0
    calls.clear()
    trainer.run_epoch(1)
    assert calls and set(calls) == {0}
    assert trainer.fault_counters.ps_retries == OUTAGE_ATTEMPTS * len(calls)


def test_crash_stall_is_recovery_seconds(small_graph):
    trainer = _trainer(
        small_graph, FaultConfig(enabled=True, crash_schedule=((2, 1),))
    )
    trainer.train(4)
    assert trainer.fault_counters.crashes == 1
    assert trainer.fault_counters.extra_seconds == RECOVERY_SECONDS


def test_crash_always_invalidates_both_policies(small_graph):
    trainer = _trainer(
        small_graph, FaultConfig(enabled=True, crash_schedule=((2, 1),))
    )
    trainer.setup()
    ctx = trainer.engine.ctx
    invalidated = []
    for direction in ("fp", "bp"):
        policy = ctx.policy_for(direction)
        original = policy.invalidate_worker

        def spy(worker, _d=direction, _original=original):
            invalidated.append((_d, worker))
            _original(worker)

        policy.invalidate_worker = spy
    for t in range(4):
        trainer.run_epoch(t)
    assert invalidated == [("fp", 1), ("bp", 1)]


@pytest.mark.parametrize("over, trips", [(1.0, False), (1.001, True)])
def test_watchdog_trips_just_above_the_loss_factor(over, trips):
    dog = ConvergenceWatchdog()
    for t in range(3):
        assert dog.observe(t, 2.0) is None
    dog.arm(3, "membership_change")
    verdict = dog.observe(3, 2.0 * WATCHDOG_LOSS_FACTOR * over)
    assert verdict == ("divergence" if trips else None)


def test_watchdog_history_holds_one_window():
    """Only the last WATCHDOG_WINDOW healthy losses set the baseline."""
    dog = ConvergenceWatchdog()
    for t in range(WATCHDOG_WINDOW):
        dog.observe(t, 100.0)
    for t in range(WATCHDOG_WINDOW, 2 * WATCHDOG_WINDOW):
        dog.observe(t, 1.0)
    dog.arm(2 * WATCHDOG_WINDOW, "membership_change")
    # The 100.0 losses have left the window, so the baseline is 1.0.
    loss = WATCHDOG_LOSS_FACTOR + 1.0
    assert dog.observe(2 * WATCHDOG_WINDOW, loss) == "divergence"


@pytest.mark.parametrize("burst, armed", [
    (WATCHDOG_BURST - 1, False), (WATCHDOG_BURST, True),
])
def test_corruption_burst_threshold(small_graph, burst, armed):
    trainer = _trainer(small_graph, FaultConfig(enabled=True, elastic=True))
    trainer.setup()
    recovery = trainer.engine.recovery
    trainer.engine.ctx.injector.counters.corruptions += burst
    recovery.observe_convergence(0, 1.0)
    assert recovery.watchdog.is_armed(0) is armed
    events = [e["kind"] for e in trainer.membership_events]
    assert ("watchdog_armed" in events) is armed

