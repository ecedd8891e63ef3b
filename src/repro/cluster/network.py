"""Network model and traffic accounting for the simulated cluster.

The paper's clusters connect machines with Gigabit Ethernet; communication
time there is (message bytes / bandwidth) plus per-message latency. The
simulator charges every inter-machine message to a :class:`TrafficMeter`
with its *actual serialized size* (the length of its wire frame), and a
:class:`NetworkModel` converts the per-epoch byte totals into seconds.

Intra-machine traffic (workers sharing a machine, or a worker talking to a
co-located server) is free, matching the paper's shared-memory access for
local neighbours.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = [
    "NetworkModel",
    "TrafficRecord",
    "TrafficSnapshot",
    "TrafficMeter",
    "GIGABIT",
]


@dataclass(frozen=True)
class NetworkModel:
    """Bandwidth/latency model of one cluster interconnect.

    Attributes:
        bandwidth_bytes_per_s: Per-machine link bandwidth. The default is
            Gigabit Ethernet (1e9 bits/s = 125 MB/s), the paper's setting.
        latency_s: One-way per-message latency (RPC + serialization fixed
            cost). 0.1 ms is typical for LAN gRPC.
        timeout_factor: Multiple of the expected round trip a sender
            waits before declaring a message lost (retransmission
            timeout); see :meth:`loss_detection_seconds`.
    """

    bandwidth_bytes_per_s: float = 125e6
    latency_s: float = 1e-4
    timeout_factor: float = 4.0

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.timeout_factor < 1:
            raise ValueError("timeout_factor must be >= 1")

    def bandwidth_seconds(self, num_bytes: int) -> float:
        """Pure wire time for ``num_bytes`` (no per-message latency)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / self.bandwidth_bytes_per_s

    def transfer_seconds(self, num_bytes: int, num_messages: int = 1) -> float:
        """Time to move ``num_bytes`` split over ``num_messages`` messages.

        Nonzero bytes must travel in at least one message; callers that
        account latency separately should use :meth:`bandwidth_seconds`.
        """
        if num_messages < 0:
            raise ValueError("num_messages must be non-negative")
        if num_messages == 0 and num_bytes > 0:
            raise ValueError(
                f"{num_bytes} bytes cannot be transferred in 0 messages; "
                "use bandwidth_seconds() for latency-free wire time"
            )
        return self.bandwidth_seconds(num_bytes) + num_messages * self.latency_s

    def link_busy_seconds(
        self, sent: int, received: int, messages: int
    ) -> float:
        """Busy time of one full-duplex link carrying ``sent`` /
        ``received`` bytes over ``messages`` endpoint events.

        Send and receive overlap, so the link is busy for the larger
        direction; latency counts once per wire message, and
        ``messages`` counts both endpoints (sent + received), hence the
        halving. This is the per-machine term inside
        :meth:`TrafficMeter.epoch_comm_seconds`, exposed so the stage
        profiler can attribute a traffic delta to link seconds with the
        same arithmetic the epoch model uses.
        """
        return (
            self.bandwidth_seconds(max(sent, received))
            + (messages / 2) * self.latency_s
        )

    def loss_detection_seconds(self, num_bytes: int) -> float:
        """Retransmission timeout: how long a sender waits before it can
        conclude a message of ``num_bytes`` was lost.

        Modelled as ``timeout_factor`` times the expected one-message
        round trip (transfer + ack latency) — the conservative RTO a
        reliable RPC layer would use. Charged once per failed delivery
        attempt by the fault-tolerant exchange path, on top of the
        retry policy's exponential backoff.
        """
        return self.timeout_factor * (
            self.transfer_seconds(num_bytes) + self.latency_s
        )


GIGABIT = NetworkModel()


@dataclass
class TrafficRecord:
    """Byte/message counters for one (endpoint, category) pair."""

    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable copy of a meter's cumulative totals at one instant.

    Two snapshots of the same meter subtract to the traffic between
    them, which is how callers slice a shared meter per run or per
    phase without double-counting lifetime totals.
    """

    total_bytes: int
    total_messages: int
    category_bytes: dict[str, int] = field(default_factory=dict)

    def delta(self, since: "TrafficSnapshot") -> "TrafficSnapshot":
        """Traffic between ``since`` (earlier) and this snapshot."""
        categories = {}
        for category, nbytes in self.category_bytes.items():
            diff = nbytes - since.category_bytes.get(category, 0)
            if diff:
                categories[category] = diff
        return TrafficSnapshot(
            total_bytes=self.total_bytes - since.total_bytes,
            total_messages=self.total_messages - since.total_messages,
            category_bytes=categories,
        )


class TrafficMeter:
    """Per-epoch and cumulative traffic accounting.

    Every charge names a source machine, a destination machine and a
    category (``fp_embeddings``, ``bp_gradients``, ``param_pull``,
    ``param_push``, ``sampling``, ...). Per-machine counters let the
    engine compute the bottleneck link each epoch.
    """

    def __init__(self):
        self._epoch: dict[int, dict[str, TrafficRecord]] = defaultdict(
            lambda: defaultdict(TrafficRecord)
        )
        self._total_bytes: int = 0
        self._total_messages: int = 0
        self._category_bytes: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def charge(
        self,
        src_machine: int,
        dst_machine: int,
        num_bytes: int,
        category: str = "other",
    ) -> bool:
        """Record one message; returns whether its bytes were metered.

        This is the one place that knows intra-machine messages are
        free: they are not recorded, and the call returns False.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if src_machine == dst_machine:
            return False
        src = self._epoch[src_machine][category]
        dst = self._epoch[dst_machine][category]
        src.bytes_sent += num_bytes
        src.messages_sent += 1
        dst.bytes_received += num_bytes
        dst.messages_received += 1
        self._total_bytes += num_bytes
        self._total_messages += 1
        self._category_bytes[category] += num_bytes
        return True

    # ------------------------------------------------------------------
    def epoch_machine_bytes(self, machine: int) -> tuple[int, int, int]:
        """``(sent, received, messages)`` for one machine this epoch."""
        sent = received = messages = 0
        for record in self._epoch.get(machine, {}).values():
            sent += record.bytes_sent
            received += record.bytes_received
            messages += record.messages_sent + record.messages_received
        return sent, received, messages

    def epoch_bytes(self) -> int:
        """Total bytes charged since the last :meth:`reset_epoch`."""
        return sum(
            record.bytes_sent
            for per_cat in self._epoch.values()
            for record in per_cat.values()
        )

    def epoch_category_bytes(self) -> dict[str, int]:
        """Bytes per category since the last reset (send side only)."""
        out: dict[str, int] = defaultdict(int)
        for per_cat in self._epoch.values():
            for category, record in per_cat.items():
                out[category] += record.bytes_sent
        return dict(out)

    def epoch_comm_seconds(self, network: NetworkModel, machines: int) -> float:
        """Per-epoch communication time under a synchronous model.

        Each machine's link carries its sent+received bytes; the epoch is
        gated by the busiest link, so the epoch communication time is the
        max over machines of that link's transfer time.
        """
        worst = 0.0
        for machine in range(machines):
            sent, received, messages = self.epoch_machine_bytes(machine)
            busy = network.link_busy_seconds(sent, received, messages)
            worst = max(worst, busy)
        return worst

    def reset_epoch(self) -> None:
        """Clear the per-epoch counters (cumulative totals are kept)."""
        self._epoch.clear()

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self._total_bytes

    @property
    def total_messages(self) -> int:
        return self._total_messages

    def snapshot(self) -> TrafficSnapshot:
        """Freeze the cumulative totals (see :class:`TrafficSnapshot`).

        Take one snapshot before a run and one after, and ``after.delta
        (before)`` is exactly that run's traffic even when the meter is
        shared across runs.
        """
        return TrafficSnapshot(
            total_bytes=self._total_bytes,
            total_messages=self._total_messages,
            category_bytes=dict(self._category_bytes),
        )

    def reset(self) -> None:
        """Clear everything — epoch counters *and* lifetime totals."""
        self._epoch.clear()
        self._total_bytes = 0
        self._total_messages = 0
        self._category_bytes.clear()
