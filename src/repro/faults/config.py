"""Fault-injection configuration.

A :class:`FaultConfig` describes every fault the simulator can inject
into a training run; the tolerance policy used to survive it is the
block of constants below (``MAX_RETRIES`` ... ``WATCHDOG_BURST``). It
hangs off :class:`~repro.core.config.ECGraphConfig` the same way the
telemetry :class:`~repro.obs.config.ObsConfig` does: disabled by
default, and with ``enabled=False`` the whole fault stack is inert —
training is bit-identical (loss *and* traffic-meter totals) to a build
without it.

Fault classes:

* **message faults** — every worker-to-worker halo message independently
  drops, corrupts (detected by checksum, so it behaves like a drop that
  consumed wire bytes) or arrives late;
* **stragglers** — chosen workers run slower by a constant factor over
  an epoch range, stretching the BSP epoch;
* **parameter-server outages** — during chosen epochs a server is
  unreachable for ``OUTAGE_ATTEMPTS`` attempts per shard message, so every
  pull/push pays retry bytes and backoff before succeeding (parameters
  cannot be degraded away, only delayed);
* **worker crashes** — at chosen epochs a worker dies and is rebuilt
  from the latest checkpoint (see ``checkpoint_every`` /
  ``checkpoint_dir``), with the error-compensation channel state
  resynchronized;
* **permanent worker loss** (``elastic=True``) — at chosen epochs a
  worker dies and *never* comes back; the membership layer
  (:mod:`repro.membership`) detects the expired lease, hands the
  orphaned partition to the least-loaded survivor, and the convergence
  watchdog guards the run against post-adoption divergence. A separate
  rejoin schedule can bring a lost worker back later, reclaiming its
  original partition.

All randomness is derived from ``seed`` with stateless per-message
draws, so a fault schedule is exactly reproducible and independent of
iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FaultConfig", "FAULTS_DISABLED", "MAX_RETRIES", "BACKOFF_BASE_S",
    "BACKOFF_FACTOR", "OUTAGE_ATTEMPTS", "RECOVERY_SECONDS",
    "HEARTBEAT_INTERVAL_S", "LEASE_GRACE_S", "MAX_CONSECUTIVE_ROLLBACKS",
    "WATCHDOG_LOSS_FACTOR", "WATCHDOG_WINDOW", "WATCHDOG_BURST",
]

# The tolerance policy: one value each, the same for every run.
# Retransmissions after the first failed attempt before an exchange
# degrades; retry ``k`` first waits BACKOFF_BASE_S * BACKOFF_FACTOR**(k-1)
# (charged as requester stall time).
MAX_RETRIES = 3
BACKOFF_BASE_S = 0.01
BACKOFF_FACTOR = 2.0
# Failed attempts per shard message while its server is in an outage.
OUTAGE_ATTEMPTS = 2
# Stall charged to a recovering or adopting worker (process
# restart + partition state rebuild).
RECOVERY_SECONDS = 1.0
# Membership heartbeat period, and the lease survivors wait without a
# heartbeat before declaring a worker dead (quantized to whole beats).
HEARTBEAT_INTERVAL_S = 0.25
LEASE_GRACE_S = 1.0
# Convergence watchdog: abort with ``DivergenceError`` after this many
# consecutive trips; while armed, trip when the loss exceeds
# WATCHDOG_LOSS_FACTOR x the median of the last WATCHDOG_WINDOW healthy
# epochs; stay armed WATCHDOG_WINDOW epochs after an event; arm on
# WATCHDOG_BURST checksum failures within one epoch.
MAX_CONSECUTIVE_ROLLBACKS = 3
WATCHDOG_LOSS_FACTOR = 4.0
WATCHDOG_WINDOW = 5
WATCHDOG_BURST = 16


@dataclass(frozen=True)
class FaultConfig:
    """Fault schedule for one training run (the tolerance policy is the
    module's constants).

    Attributes:
        enabled: Master switch; False keeps every hot path untouched.
        seed: Seed for the stateless per-message fate draws.
        drop_prob: Per-delivery-attempt probability a worker-to-worker
            message is lost in transit.
        corrupt_prob: Probability the message arrives but fails its
            checksum (counted separately; handled like a drop).
        delay_prob: Probability the message is delivered late.
        delay_seconds: Stall charged to the requester for a late message.
        straggler_workers: Workers slowed by ``straggler_factor``.
        straggler_factor: Compute-time multiplier for stragglers (>= 1).
        straggler_epochs: ``(start, stop)`` epoch half-open range the
            slowdown applies to; None means every epoch.
        server_outages: ``(epoch, server)`` pairs; during that epoch the
            server fails ``OUTAGE_ATTEMPTS`` times per shard message.
        crash_schedule: ``(epoch, worker)`` pairs; the worker dies just
            before that epoch runs and is recovered from checkpoint.
        checkpoint_every: Auto-checkpoint the server parameters every
            this many completed epochs (in memory, or on disk when
            ``checkpoint_dir`` is set).
        checkpoint_dir: Directory for real ``.npz`` checkpoints; None
            keeps snapshots in memory only.
        elastic: Enable elastic membership: a lease/heartbeat-based
            :class:`~repro.membership.MembershipView`, partition
            adoption on permanent loss, and the convergence watchdog.
            Requires ``enabled=True``, and ``execution="sync"`` (see
            :class:`~repro.core.config.ECGraphConfig`).
        permanent_failures: ``(epoch, worker)`` pairs; the worker dies
            just before that epoch and never restarts. Requires
            ``elastic=True`` — without adoption the run cannot survive.
        rejoin_schedule: ``(epoch, worker)`` pairs; a permanently lost
            worker rejoins just before that epoch, reclaiming the
            vertices it originally owned.
        quorum_fraction: Fail fast (``QuorumLostError``) when the alive
            fraction of the original membership drops below this.
    """

    enabled: bool = False
    seed: int = 0
    # Message-level faults (worker-to-worker halo exchange).
    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    delay_prob: float = 0.0
    delay_seconds: float = 0.05
    # Stragglers.
    straggler_workers: tuple[int, ...] = ()
    straggler_factor: float = 1.0
    straggler_epochs: tuple[int, int] | None = None
    # Parameter-server outages.
    server_outages: tuple[tuple[int, int], ...] = ()
    # Worker crashes + checkpointed recovery.
    crash_schedule: tuple[tuple[int, int], ...] = ()
    checkpoint_every: int = 1
    checkpoint_dir: str | None = None
    # Elastic membership: permanent loss, adoption, rejoin, watchdog.
    elastic: bool = False
    permanent_failures: tuple[tuple[int, int], ...] = ()
    rejoin_schedule: tuple[tuple[int, int], ...] = ()
    quorum_fraction: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("drop_prob", "corrupt_prob", "delay_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.drop_prob + self.corrupt_prob + self.delay_prob > 1.0:
            raise ValueError(
                "drop_prob + corrupt_prob + delay_prob must not exceed 1"
            )
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if any(w < 0 for w in self.straggler_workers):
            raise ValueError("straggler worker ids must be non-negative")
        if self.straggler_epochs is not None:
            start, stop = self.straggler_epochs
            if start < 0 or stop < start:
                raise ValueError(
                    "straggler_epochs must be a (start, stop) range with "
                    "0 <= start <= stop"
                )
        for epoch, server in self.server_outages:
            if epoch < 0 or server < 0:
                raise ValueError("server_outages entries must be non-negative")
        for epoch, worker in self.crash_schedule:
            if epoch < 0 or worker < 0:
                raise ValueError("crash_schedule entries must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_dir is not None and not str(self.checkpoint_dir):
            raise ValueError("checkpoint_dir must be None or a non-empty path")
        for name in ("permanent_failures", "rejoin_schedule"):
            for epoch, worker in getattr(self, name):
                if epoch < 0 or worker < 0:
                    raise ValueError(f"{name} entries must be non-negative")
        if self.permanent_failures and not self.elastic:
            raise ValueError(
                "permanent_failures requires elastic=True: without "
                "partition adoption the run cannot survive a permanent "
                "worker loss"
            )
        if self.rejoin_schedule and not self.elastic:
            raise ValueError("rejoin_schedule requires elastic=True")
        if self.elastic and not self.enabled:
            raise ValueError(
                "elastic=True requires enabled=True: membership runs on "
                "the fault injector, which enabled=False leaves out"
            )
        if not 0.0 < self.quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in (0, 1]")

    @property
    def any_message_faults(self) -> bool:
        """True when at least one message-fate probability is nonzero."""
        return (self.drop_prob + self.corrupt_prob + self.delay_prob) > 0.0

    @staticmethod
    def from_dict(fields: dict) -> "FaultConfig":
        """Rebuild from a JSON round-trip (lists became tuples again)."""
        fields = dict(fields)
        for name in ("straggler_workers",):
            if name in fields and fields[name] is not None:
                fields[name] = tuple(fields[name])
        if fields.get("straggler_epochs") is not None:
            fields["straggler_epochs"] = tuple(fields["straggler_epochs"])
        for name in (
            "server_outages", "crash_schedule", "permanent_failures",
            "rejoin_schedule",
        ):
            if name in fields and fields[name] is not None:
                fields[name] = tuple(tuple(pair) for pair in fields[name])
        return FaultConfig(**fields)


FAULTS_DISABLED = FaultConfig()
