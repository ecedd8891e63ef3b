"""Parameter servers and the Parameter Manager (paper section III-A).

The PM divides the GNN weights and biases of each layer evenly across the
``m`` servers with a range-based partition (the paper's built-in default):
parameter tensors are split along their first axis into contiguous shards.
Workers ``pull`` the shards of the layers they are about to compute and
``push`` gradient shards back; each server sums the per-worker gradients
and applies the optimizer to the shards it owns (Algorithm 2, lines 1-3).

Because Adam's update is element-wise, running one optimizer per server
over its shards is mathematically identical to a single global optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.cluster.engine import ClusterRuntime
from repro.cluster.serialize import decode_raw, encode_raw
from repro.nn.optim import Optimizer

__all__ = ["Shard", "ParameterServerGroup", "range_shards"]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a parameter tensor owned by one server."""

    name: str
    server: int
    start: int
    stop: int

    @property
    def key(self) -> str:
        return f"{self.name}[{self.start}:{self.stop}]"


def range_shards(name: str, first_axis: int, num_servers: int) -> list[Shard]:
    """Split ``first_axis`` rows into ``num_servers`` contiguous shards.

    Rows are distributed as evenly as possible; when there are fewer rows
    than servers, trailing servers receive empty shards (omitted).
    """
    if first_axis < 0:
        raise ValueError("first_axis must be non-negative")
    base, extra = divmod(first_axis, num_servers)
    shards = []
    start = 0
    for server in range(num_servers):
        size = base + (1 if server < extra else 0)
        if size == 0:
            continue
        shards.append(Shard(name, server, start, start + size))
        start += size
    return shards


class ParameterServerGroup:
    """All parameter servers of one training job, plus the manager logic."""

    def __init__(
        self,
        runtime: ClusterRuntime,
        optimizer_factory: Callable[[], Optimizer],
        reduce: str = "mean",
    ):
        """Args:
        runtime: Cluster runtime used for traffic accounting.
        optimizer_factory: Builds one optimizer per server (the paper
            uses Adam everywhere).
        reduce: ``"mean"`` averages pushed gradients over workers;
            ``"sum"`` adds them (use sum when workers already scale
            their gradients by the global sample count).
        """
        if reduce not in ("mean", "sum"):
            raise ValueError(f"reduce must be 'mean' or 'sum', got {reduce!r}")
        self.runtime = runtime
        self.reduce = reduce
        self.num_servers = runtime.spec.num_servers
        self._params: Dict[str, np.ndarray] = {}
        self._shards: Dict[str, list[Shard]] = {}
        self._optimizers = [optimizer_factory() for _ in range(self.num_servers)]
        self._pending: Dict[str, np.ndarray] = {}
        self._pushes_received = 0

    # ------------------------------------------------------------------
    def register(self, name: str, value: np.ndarray) -> None:
        """Register a parameter tensor and shard it across the servers."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        array = np.ascontiguousarray(value, dtype=np.float32)
        self._params[name] = array
        first_axis = array.shape[0] if array.ndim else 1
        self._shards[name] = range_shards(name, first_axis, self.num_servers)

    def parameter_names(self) -> list[str]:
        return list(self._params)

    def get(self, name: str) -> np.ndarray:
        """Server-side direct read (used by tests and checkpointing)."""
        return self._params[name]

    def set(self, name: str, value: np.ndarray) -> None:
        """Server-side direct write (checkpoint restore)."""
        if name not in self._params:
            raise KeyError(f"unknown parameter {name!r}")
        if value.shape != self._params[name].shape:
            raise ValueError("shape mismatch on parameter restore")
        self._params[name] = np.ascontiguousarray(value, dtype=np.float32)

    # ------------------------------------------------------------------
    def pull(self, worker: int, names: list[str]) -> Dict[str, np.ndarray]:
        """Worker pulls full tensors: each shard travels as a RAW frame,
        charged at its length, and the worker gets the decoded rows."""
        with self.runtime.telemetry.span("param_pull", worker=worker):
            return self._pull(worker, names)

    def _outage_retries(
        self, worker: int, server: int, nbytes: int, category: str,
        server_to_worker: bool,
    ) -> None:
        """Charge the retries a shard message pays during a PS outage.

        Parameters cannot be degraded away like halo rows can, so an
        unreachable server only *delays*: each failed attempt costs its
        wire bytes (the retransmission) plus backoff stall on the
        worker, and the final attempt — already charged by the caller —
        succeeds once the server is back.
        """
        injector = self.runtime.fault_injector
        if injector is None:
            return
        attempts = injector.server_outage_attempts(server)
        if not attempts:
            return
        timeout = self.runtime.spec.network.loss_detection_seconds(nbytes)
        for attempt in range(1, attempts + 1):
            injector.counters.ps_retries += 1
            injector.counters.retry_bytes += nbytes
            self.runtime.add_stall(
                worker, timeout + injector.backoff_seconds(attempt)
            )
            if server_to_worker:
                self.runtime.send_server_to_worker(
                    server, worker, nbytes, category
                )
            else:
                self.runtime.send_worker_to_server(
                    worker, server, nbytes, category
                )
            if self.runtime.telemetry.enabled:
                self.runtime.telemetry.metrics.inc(
                    "fault_ps_retries", category=category
                )

    def _pull(self, worker: int, names: list[str]) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for name in names:
            if name not in self._params:
                raise KeyError(f"unknown parameter {name!r}")
            array = self._params[name]
            pulled = []
            for shard in self._shards[name]:
                frame = encode_raw(np.atleast_1d(array)[shard.start:shard.stop])
                self.runtime.send_server_to_worker(
                    shard.server, worker, len(frame), "param_pull"
                )
                self._outage_retries(
                    worker, shard.server, len(frame), "param_pull", True
                )
                pulled.append(decode_raw(frame))
            out[name] = np.concatenate(pulled).reshape(array.shape)
        return out

    def push(self, worker: int, grads: Dict[str, np.ndarray]) -> None:
        """Worker pushes gradients, a RAW frame per shard; servers
        accumulate until all arrive."""
        with self.runtime.telemetry.span("param_push", worker=worker):
            self._push(worker, grads)

    def _push(self, worker: int, grads: Dict[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            if name not in self._params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            if grad.shape != self._params[name].shape:
                raise ValueError(
                    f"gradient shape {grad.shape} != parameter "
                    f"{self._params[name].shape} for {name!r}"
                )
            for shard in self._shards[name]:
                frame = encode_raw(np.atleast_1d(grad)[shard.start:shard.stop])
                self.runtime.send_worker_to_server(
                    worker, shard.server, len(frame), "param_push"
                )
                self._outage_retries(
                    worker, shard.server, len(frame), "param_push", False
                )
            pending = self._pending.get(name)
            if pending is None:
                self._pending[name] = grad.astype(np.float64)
            else:
                pending += grad
        self._pushes_received += 1

    def apply_updates(self) -> None:
        """Sum the buffered gradients and run the per-server optimizers.

        Called once per iteration after every worker has pushed. Gradients
        are averaged over workers — combined with per-worker mean losses
        this matches a global full-batch mean loss up to worker weighting.
        """
        if not self._pending:
            return
        with self.runtime.telemetry.span("server_apply"):
            self._apply_updates()
        self.runtime.telemetry.metrics.inc("optimizer_steps")

    def _apply_updates(self) -> None:
        num_pushes = max(self._pushes_received, 1) if self.reduce == "mean" else 1
        for server, optimizer in enumerate(self._optimizers):
            shard_params: Dict[str, np.ndarray] = {}
            shard_grads: Dict[str, np.ndarray] = {}
            for name, grad_sum in self._pending.items():
                for shard in self._shards[name]:
                    if shard.server != server:
                        continue
                    view = self._params[name][shard.start:shard.stop]
                    shard_params[shard.key] = view
                    shard_grads[shard.key] = (
                        grad_sum[shard.start:shard.stop] / num_pushes
                    ).astype(np.float32)
            if shard_grads:
                optimizer.step(shard_params, shard_grads)
                # Optimizer mutated the views in place; write them back to
                # be robust to optimizers that rebind instead of mutate.
                for key, updated in shard_params.items():
                    name, span = key.split("[")
                    start, stop = span.rstrip("]").split(":")
                    self._params[name][int(start):int(stop)] = updated
        self._pending.clear()
        self._pushes_received = 0

    def set_learning_rate(self, lr: float) -> None:
        """Update every server optimizer's learning rate.

        Learning-rate schedules are driven by the trainer once per
        iteration; broadcasting a scalar to the servers is free compared
        to parameter traffic, so no bytes are charged.
        """
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        for optimizer in self._optimizers:
            optimizer.lr = lr

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters (checkpointing)."""
        return {name: array.copy() for name, array in self._params.items()}
