"""Cluster topology: machines, workers and parameter servers.

The paper's two test clusters have 13 machines (4 cores each) and 6
machines (32 cores each); a physical node may host any number of workers
and servers. The default layout below mirrors the paper's evaluation: one
worker per machine, and parameter servers co-located with the first
machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.network import GIGABIT, NetworkModel

__all__ = ["ClusterSpec"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a simulated cluster.

    Attributes:
        num_workers: Data-parallel workers (one graph partition each).
        num_servers: Parameter servers holding the model shards.
        workers_per_machine: Workers packed onto each machine.
        colocate_servers: If True (default) server ``s`` runs on machine
            ``s % num_machines``; pulls from co-located workers are free.
        network: Interconnect model (Gigabit Ethernet by default).
        compute_speed: Relative per-worker compute speed used to translate
            measured single-process kernel time into per-machine time; 1.0
            means "as fast as this host".
        worker_speeds: Optional per-worker speed multipliers for
            heterogeneous clusters (the setting where the paper notes
            All-Reduce breaks down but the PS architecture survives).
            ``None`` means a homogeneous cluster.
        overlap_comm: Model perfect communication/computation overlap
            (epoch = max(compute, comm)) instead of the synchronous
            default (epoch = compute + comm). No system sets it yet
            (the ``agl`` row does not model AGL's pipelining); ROADMAP
            item 3(b) reworks it into a per-stage overlap.
    """

    num_workers: int
    num_servers: int = 1
    workers_per_machine: int = 1
    colocate_servers: bool = True
    network: NetworkModel = field(default=GIGABIT)
    compute_speed: float = 1.0
    worker_speeds: tuple[float, ...] | None = None
    overlap_comm: bool = False

    def __post_init__(self):
        if self.num_workers <= 0:
            raise ValueError("need at least one worker")
        if self.num_servers <= 0:
            raise ValueError("need at least one server")
        if self.workers_per_machine <= 0:
            raise ValueError("workers_per_machine must be positive")
        if self.compute_speed <= 0:
            raise ValueError("compute_speed must be positive")
        if self.worker_speeds is not None:
            if len(self.worker_speeds) != self.num_workers:
                raise ValueError(
                    f"{len(self.worker_speeds)} worker speeds for "
                    f"{self.num_workers} workers"
                )
            if any(speed <= 0 for speed in self.worker_speeds):
                raise ValueError("worker speeds must be positive")

    def speed_of(self, worker: int) -> float:
        """Effective compute speed of one worker."""
        base = self.compute_speed
        if self.worker_speeds is not None:
            base *= self.worker_speeds[worker]
        return base

    @property
    def num_machines(self) -> int:
        """Machines needed for the workers (servers are co-located)."""
        return -(-self.num_workers // self.workers_per_machine)

    @property
    def storage_machine(self) -> int:
        """Machine hosting the shared graph store (feature shards live
        on the first machine's disks; elastic recovery fetches adopted
        features from here)."""
        return 0

    def worker_machine(self, worker: int) -> int:
        """Machine hosting ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise IndexError(f"worker {worker} out of range")
        return worker // self.workers_per_machine

    def server_machine(self, server: int) -> int:
        """Machine hosting ``server``."""
        if not 0 <= server < self.num_servers:
            raise IndexError(f"server {server} out of range")
        if self.colocate_servers:
            return server % self.num_machines
        # Dedicated server machines appended after the worker machines.
        return self.num_machines + server
