"""Deterministic fault injector and fault/tolerance counters.

The injector answers, for every fault-prone event in the simulator,
"what goes wrong here?" — and counts both the faults it injects and the
tolerance machinery they trigger (retries, degradations, recoveries).

Message fates are *stateless* draws: each (epoch, layer, responder,
requester, attempt) tuple is hashed with the configured seed into its
own :class:`numpy.random.Generator`, so a fault schedule does not depend
on the order the exchange loop visits channels, and a retransmission of
the same message gets an independent fate. Scheduled faults (stragglers,
outages, crashes) are looked up directly from the config.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields

import numpy as np

from repro.faults.config import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    OUTAGE_ATTEMPTS,
    FaultConfig,
)

__all__ = ["FaultCounters", "FaultInjector", "FATE_OK", "FATE_DROP",
           "FATE_CORRUPT", "FATE_DELAY"]

FATE_OK = "ok"
FATE_DROP = "drop"
FATE_CORRUPT = "corrupt"
FATE_DELAY = "delay"


@dataclass
class FaultCounters:
    """Everything that went wrong, and everything that absorbed it."""

    drops: int = 0
    corruptions: int = 0
    delays: int = 0
    retries: int = 0
    retry_bytes: int = 0
    degraded_predicted: int = 0
    degraded_cached: int = 0
    degraded_zero: int = 0
    residual_compensations: int = 0
    ps_retries: int = 0
    crashes: int = 0
    params_rolled_back: int = 0
    corrupt_checkpoints: int = 0
    extra_seconds: float = 0.0
    # Elastic membership (permanent loss / adoption / watchdog).
    permanent_failures: int = 0
    adoptions: int = 0
    rejoins: int = 0
    watchdog_trips: int = 0
    watchdog_rollbacks: int = 0
    watchdog_escalations: int = 0

    @property
    def degraded(self) -> int:
        """Channels that fell back to an approximation this run."""
        return (
            self.degraded_predicted + self.degraded_cached + self.degraded_zero
        )

    @property
    def faults_injected(self) -> int:
        return (
            self.drops + self.corruptions + self.delays + self.crashes
            + self.permanent_failures
        )

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["degraded"] = self.degraded
        out["faults_injected"] = self.faults_injected
        return out


class FaultInjector:
    """Seeded oracle for every injected fault in one training run.

    The trainer creates one injector per run (when
    ``config.faults.enabled``), attaches it to the cluster runtime, the
    NAC and the parameter servers, and advances its epoch clock from
    ``run_epoch``. Crashes are consumed exactly once even if an epoch is
    re-entered.
    """

    def __init__(self, config: FaultConfig):
        if not config.enabled:
            raise ValueError(
                "FaultInjector requires an enabled FaultConfig; disabled "
                "runs must not construct one"
            )
        self.config = config
        self.counters = FaultCounters()
        self._epoch = 0
        self._consumed_crashes: set[tuple[int, int]] = set()
        self._consumed_losses: set[tuple[int, int]] = set()
        self._consumed_rejoins: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Epoch clock
    # ------------------------------------------------------------------
    def start_epoch(self, t: int) -> None:
        self._epoch = t

    @property
    def epoch(self) -> int:
        return self._epoch

    # ------------------------------------------------------------------
    # Message fates
    # ------------------------------------------------------------------
    def _uniform(self, *parts: int) -> float:
        seed = (self.config.seed, self._epoch) + parts
        return float(np.random.default_rng(seed).random())

    def message_fate(
        self,
        layer: int,
        responder: int,
        requester: int,
        category: str,
        attempt: int,
    ) -> str:
        """Fate of one delivery attempt of a worker-to-worker message."""
        cfg = self.config
        if not cfg.any_message_faults:
            return FATE_OK
        u = self._uniform(
            zlib.crc32(category.encode()), layer + 1, responder, requester,
            attempt,
        )
        if u < cfg.drop_prob:
            self.counters.drops += 1
            return FATE_DROP
        if u < cfg.drop_prob + cfg.corrupt_prob:
            self.counters.corruptions += 1
            return FATE_CORRUPT
        if u < cfg.drop_prob + cfg.corrupt_prob + cfg.delay_prob:
            self.counters.delays += 1
            return FATE_DELAY
        return FATE_OK

    def backoff_seconds(self, attempt: int) -> float:
        """Stall before retransmission ``attempt`` (1-based)."""
        return BACKOFF_BASE_S * BACKOFF_FACTOR ** max(attempt - 1, 0)

    # ------------------------------------------------------------------
    # Stragglers
    # ------------------------------------------------------------------
    def compute_scale(self, worker: int) -> float:
        """Compute-time multiplier for ``worker`` at the current epoch."""
        cfg = self.config
        if cfg.straggler_factor == 1.0 or worker not in cfg.straggler_workers:
            return 1.0
        if cfg.straggler_epochs is not None:
            start, stop = cfg.straggler_epochs
            if not start <= self._epoch < stop:
                return 1.0
        return cfg.straggler_factor

    # ------------------------------------------------------------------
    # Parameter-server outages
    # ------------------------------------------------------------------
    def server_outage_attempts(self, server: int) -> int:
        """Failed attempts each shard message to ``server`` pays now."""
        if (self._epoch, server) in self.config.server_outages:
            return OUTAGE_ATTEMPTS
        return 0

    # ------------------------------------------------------------------
    # Crashes
    # ------------------------------------------------------------------
    def take_crashes(self, t: int) -> list[int]:
        """Workers crashing just before epoch ``t`` (consumed once)."""
        crashed = []
        for epoch, worker in self.config.crash_schedule:
            if epoch == t and (epoch, worker) not in self._consumed_crashes:
                self._consumed_crashes.add((epoch, worker))
                crashed.append(worker)
        return crashed

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def take_permanent_failures(self, t: int) -> list[int]:
        """Workers lost for good just before epoch ``t`` (consumed once)."""
        lost = []
        for epoch, worker in self.config.permanent_failures:
            if epoch == t and (epoch, worker) not in self._consumed_losses:
                self._consumed_losses.add((epoch, worker))
                lost.append(worker)
        return lost

    def take_rejoins(self, t: int) -> list[int]:
        """Workers rejoining just before epoch ``t`` (consumed once)."""
        rejoined = []
        for epoch, worker in self.config.rejoin_schedule:
            if epoch == t and (epoch, worker) not in self._consumed_rejoins:
                self._consumed_rejoins.add((epoch, worker))
                rejoined.append(worker)
        return rejoined
