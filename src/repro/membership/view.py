"""Lease/heartbeat membership view over the simulated worker fleet.

The :class:`MembershipView` is the single source of truth for *which
workers are alive*. It is driven by the deterministic
:class:`~repro.faults.injector.FaultInjector` schedules
(``permanent_failures`` / ``rejoin_schedule``) rather than wall-clock
heartbeats, so elastic runs replay bit-identically, but it models the
timing of a real lease protocol: a dead worker is only *detected* after
its lease expires, which costs every survivor a stall of one grace
window quantized to whole heartbeat intervals.

Every transition (loss, detection, adoption, rejoin, watchdog action,
quorum check) is appended to ``events`` — an ordered, deterministic
timeline that the chaos harness and the epoch report both surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.faults.config import HEARTBEAT_INTERVAL_S, LEASE_GRACE_S, FaultConfig

__all__ = ["MembershipEvent", "MembershipView", "QuorumLostError"]


class QuorumLostError(ValueError):
    """Alive fraction dropped below ``quorum_fraction``: fail fast.

    Subclasses :class:`ValueError` so the CLI maps it to exit code 2
    alongside the other configuration/state errors.
    """


@dataclass(frozen=True)
class MembershipEvent:
    """One membership transition, in deterministic timeline order."""

    epoch: int
    kind: str
    worker: int | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"epoch": self.epoch, "kind": self.kind}
        if self.worker is not None:
            out["worker"] = self.worker
        out.update(self.details)
        return out


class MembershipView:
    """Who is alive, who owns what, and how we found out.

    Args:
        num_workers: Size of the original membership (worker ids are
            dense ``0..num_workers-1`` and never renumbered — a dead
            worker keeps its slot so partition/worker indexing stays
            stable).
        faults: The fault config supplying ``quorum_fraction`` (the
            lease is ``HEARTBEAT_INTERVAL_S`` / ``LEASE_GRACE_S``).
    """

    def __init__(self, num_workers: int, faults: FaultConfig):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self.faults = faults
        self._alive = [True] * num_workers
        self.events: list[MembershipEvent] = []
        # worker -> current owner of its original partition (differs
        # from the worker itself only while the partition is adopted).
        self.custodian = {w: w for w in range(num_workers)}

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def is_alive(self, worker: int) -> bool:
        return self._alive[worker]

    def alive_workers(self) -> list[int]:
        """Alive worker ids, ascending (deterministic order)."""
        return [w for w in range(self.num_workers) if self._alive[w]]

    @property
    def alive_count(self) -> int:
        return sum(self._alive)

    def detection_seconds(self) -> float:
        """Wall time from silent death to declared-dead.

        A real lease expires after ``LEASE_GRACE_S`` without a
        heartbeat, but survivors only *notice* on heartbeat boundaries,
        so detection rounds up to a whole number of heartbeat intervals
        (at least one).
        """
        beats = max(1, math.ceil(LEASE_GRACE_S / HEARTBEAT_INTERVAL_S))
        return beats * HEARTBEAT_INTERVAL_S

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_dead(self, epoch: int, worker: int) -> float:
        """Declare ``worker`` permanently dead; return detection stall.

        Returns the per-survivor stall (seconds) spent waiting out the
        lease before the death was detected.
        """
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} out of range")
        if not self._alive[worker]:
            raise ValueError(f"worker {worker} is already dead")
        self._alive[worker] = False
        stall = self.detection_seconds()
        self.record(
            epoch, "worker_lost", worker,
            detection_seconds=stall, alive=self.alive_count,
        )
        return stall

    def mark_alive(self, epoch: int, worker: int) -> bool:
        """Bring ``worker`` back; False if it was never marked dead."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} out of range")
        if self._alive[worker]:
            return False
        self._alive[worker] = True
        self.record(epoch, "worker_rejoined", worker, alive=self.alive_count)
        return True

    def require_quorum(self, epoch: int) -> None:
        """Fail fast when too few of the original workers survive."""
        fraction = self.alive_count / self.num_workers
        if fraction < self.faults.quorum_fraction:
            self.record(
                epoch, "quorum_lost",
                alive=self.alive_count, total=self.num_workers,
                quorum_fraction=self.faults.quorum_fraction,
            )
            raise QuorumLostError(
                f"quorum lost at epoch {epoch}: {self.alive_count}/"
                f"{self.num_workers} workers alive, below quorum "
                f"fraction {self.faults.quorum_fraction}"
            )

    def record(
        self, epoch: int, kind: str, worker: int | None = None, **details
    ) -> MembershipEvent:
        """Append one transition to the deterministic timeline."""
        event = MembershipEvent(
            epoch=epoch, kind=kind, worker=worker, details=dict(details)
        )
        self.events.append(event)
        return event
