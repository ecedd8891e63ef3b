"""The cluster runtime: compute/communication accounting per epoch.

The original system runs workers as processes connected by gRPC. This
reproduction executes all workers inside one process (sequentially), and
recovers distributed timing by accounting:

* **compute** — numpy kernel time is measured per worker with
  :meth:`ClusterRuntime.worker_compute`; because real workers run in
  parallel, the epoch's compute time is the *maximum* over workers;
* **communication** — every inter-machine message is charged to the
  traffic meter with its exact wire size; the epoch's communication time
  is the busiest link's transfer time under the cluster's network model.

``epoch_time = max_w compute_w / speed + comm_time`` is the synchronous
(BSP) execution model that both EC-Graph and the baselines follow.

Charging clients: the staged training engine reaches the runtime through
its :class:`~repro.engine.context.ExchangeContext` — the halo transport
(:class:`~repro.engine.transport.HaloTransport`) charges each policy
call by frame kind and the wire bytes, the executor's kernel rounds
charge worker kernels (:meth:`ClusterRuntime.worker_compute` inline,
:meth:`ClusterRuntime.add_compute` for a worker process's reported
wall), and the parameter servers charge pulls/pushes. The runtime's
``telemetry`` handle is the same object the context carries, so span
attribution and traffic accounting stay aligned.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.cluster.network import TrafficMeter
from repro.cluster.topology import ClusterSpec
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["EpochBreakdown", "ClusterRuntime"]


@dataclass(frozen=True)
class EpochBreakdown:
    """Timing and traffic summary of one training epoch.

    Attributes:
        compute_seconds: Bottleneck worker's compute time.
        comm_seconds: Bottleneck link's communication time.
        total_seconds: Modelled epoch wall-clock (compute + comm).
        bytes_sent: Total inter-machine bytes this epoch.
        category_bytes: Bytes per message category this epoch.
    """

    compute_seconds: float
    comm_seconds: float
    total_seconds: float
    bytes_sent: int
    category_bytes: dict[str, int]


class ClusterRuntime:
    """Accounting-backed execution context for one simulated cluster."""

    def __init__(self, spec: ClusterSpec, telemetry: Telemetry | None = None):
        self.spec = spec
        self.meter = TrafficMeter()
        # The telemetry mirror of the meter: every inter-machine charge
        # also increments a labelled byte/message counter, so metrics
        # snapshots agree with the meter to the byte.
        self.telemetry = telemetry or NULL_TELEMETRY
        # Optional FaultInjector (repro.faults); the trainer attaches it
        # when fault injection is enabled. It scales straggler compute
        # here and drives message fates / server outages downstream.
        self.fault_injector = None
        self._compute = np.zeros(spec.num_workers, dtype=np.float64)
        self._epoch_history: list[EpochBreakdown] = []

    # ------------------------------------------------------------------
    # Compute accounting
    # ------------------------------------------------------------------
    def _compute_scale(self, worker: int) -> float:
        if self.fault_injector is None:
            return 1.0
        return self.fault_injector.compute_scale(worker)

    @contextmanager
    def worker_compute(self, worker: int):
        """Context manager charging elapsed wall time to ``worker``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._compute[worker] += elapsed * self._compute_scale(worker)

    def add_compute(self, worker: int, seconds: float) -> None:
        """Directly charge compute seconds (used by analytic baselines)."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._compute[worker] += seconds * self._compute_scale(worker)

    def add_stall(self, worker: int, seconds: float) -> None:
        """Charge fault-tolerance stall time (backoff, late delivery).

        Stalls are wall-clock waits, not CPU work, so straggler scaling
        does not apply; they still extend the worker's epoch time under
        the BSP model.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self._compute[worker] += seconds
        if self.fault_injector is not None:
            self.fault_injector.counters.extra_seconds += seconds

    def compute_snapshot(self) -> np.ndarray:
        """Copy of the per-worker compute accumulators (raw seconds,
        not speed-scaled) since the last :meth:`end_epoch`.

        Read-only oracle for the stage profiler: two snapshots subtract
        to the compute each worker was charged during a stage.
        """
        return self._compute.copy()

    # ------------------------------------------------------------------
    # Communication accounting
    # ------------------------------------------------------------------
    def charge(
        self, src_machine: int, dst_machine: int, num_bytes: int,
        category: str,
    ) -> bool:
        """Charge one message between two machines to the meter and its
        telemetry mirror; returns whether the meter charged its bytes."""
        metered = self.meter.charge(
            src_machine, dst_machine, num_bytes, category
        )
        if self.telemetry.enabled and metered:
            # Mirror exactly what the meter recorded.
            self.telemetry.metrics.inc(
                "comm_bytes", num_bytes, category=category
            )
            self.telemetry.metrics.inc("comm_messages", 1, category=category)
        return metered

    def send_worker_to_worker(
        self, src: int, dst: int, num_bytes: int, category: str
    ) -> bool:
        """Charge a worker-to-worker message (embeddings / gradients);
        returns whether the meter charged its bytes."""
        return self.charge(
            self.spec.worker_machine(src),
            self.spec.worker_machine(dst),
            num_bytes,
            category,
        )

    def fetch_from_store(
        self, worker: int, num_bytes: int, category: str
    ) -> None:
        """Charge a fetch from the shared graph store to ``worker``.

        Elastic recovery uses this when an adopter (or rejoiner) loads
        the feature shard of a partition it did not previously own.
        """
        self.charge(
            self.spec.storage_machine,
            self.spec.worker_machine(worker),
            num_bytes,
            category,
        )

    def send_worker_to_server(
        self, worker: int, server: int, num_bytes: int, category: str
    ) -> None:
        """Charge a worker-to-server message (gradient push)."""
        self.charge(
            self.spec.worker_machine(worker),
            self.spec.server_machine(server),
            num_bytes,
            category,
        )

    def send_server_to_worker(
        self, server: int, worker: int, num_bytes: int, category: str
    ) -> None:
        """Charge a server-to-worker message (parameter pull)."""
        self.charge(
            self.spec.server_machine(server),
            self.spec.worker_machine(worker),
            num_bytes,
            category,
        )

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def end_epoch(self) -> EpochBreakdown:
        """Close the epoch: compute its breakdown and reset counters."""
        # The epoch waits for the slowest worker after applying its
        # speed (``compute_speed`` × its heterogeneous multiplier).
        compute = float(max(
            self._compute[worker] / self.spec.speed_of(worker)
            for worker in range(self.spec.num_workers)
        ))
        comm = self.meter.epoch_comm_seconds(
            self.spec.network, self.spec.num_machines
        )
        if self.spec.overlap_comm:
            total = max(compute, comm)
        else:
            total = compute + comm
        breakdown = EpochBreakdown(
            compute_seconds=compute,
            comm_seconds=comm,
            total_seconds=total,
            bytes_sent=self.meter.epoch_bytes(),
            category_bytes=self.meter.epoch_category_bytes(),
        )
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.set_gauge("epoch_compute_seconds", compute)
            metrics.set_gauge("epoch_comm_seconds", comm)
            metrics.set_gauge("epoch_total_seconds", total)
            metrics.observe("epoch_seconds", total)
            metrics.inc("epochs_completed")
        self._epoch_history.append(breakdown)
        self.meter.reset_epoch()
        self._compute[:] = 0.0
        return breakdown

    @property
    def epoch_history(self) -> list[EpochBreakdown]:
        """Breakdowns of all completed epochs, oldest first."""
        return list(self._epoch_history)

    @property
    def last_epoch(self) -> EpochBreakdown | None:
        """Breakdown of the most recently completed epoch (None before
        the first), without copying the history."""
        return self._epoch_history[-1] if self._epoch_history else None

    def total_seconds(self) -> float:
        """Sum of modelled epoch times so far."""
        return sum(epoch.total_seconds for epoch in self._epoch_history)
