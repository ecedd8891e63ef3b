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
from repro.cluster.serialize import Frame, decode_raw, encode_raw
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
    ):
        """Args:
        runtime: Cluster runtime used for traffic accounting.
        optimizer_factory: Builds one optimizer per server (the paper
            uses Adam everywhere).
        """
        self.runtime = runtime
        self.num_servers = runtime.spec.num_servers
        self._params: Dict[str, np.ndarray] = {}
        self._shards: Dict[str, list[Shard]] = {}
        self._optimizers = [optimizer_factory() for _ in range(self.num_servers)]
        self._pending: Dict[str, np.ndarray] = {}
        # What every pull of a parameter version ships: each shard's RAW
        # frame and one read-only copy of the decoded rows, built by the
        # version's first pull. The parameters change only through
        # ``set`` and ``_apply_updates`` (``register`` and ``set`` copy,
        # ``get`` hands out a read-only view), and each drops what it
        # changed.
        self._pulled: Dict[str, tuple[list[Frame], np.ndarray]] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, value: np.ndarray) -> None:
        """Register a parameter tensor and shard it across the servers."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        array = np.array(value, dtype=np.float32, order="C")
        self._params[name] = array
        first_axis = array.shape[0] if array.ndim else 1
        self._shards[name] = range_shards(name, first_axis, self.num_servers)

    def parameter_names(self) -> list[str]:
        return list(self._params)

    def get(self, name: str) -> np.ndarray:
        """Server-side direct read of the live parameter (backward
        kernels, exact evaluation, checkpointing), as a read-only view:
        a write goes through :meth:`set`."""
        view = self._params[name].view()
        view.flags.writeable = False
        return view

    def set(self, name: str, value: np.ndarray) -> None:
        """Server-side direct write of a copy of ``value`` (checkpoint
        restore)."""
        if name not in self._params:
            raise KeyError(f"unknown parameter {name!r}")
        if value.shape != self._params[name].shape:
            raise ValueError("shape mismatch on parameter restore")
        self._params[name] = np.array(value, dtype=np.float32, order="C")
        self._pulled.pop(name, None)

    # ------------------------------------------------------------------
    def pull(self, worker: int, names: list[str]) -> Dict[str, np.ndarray]:
        """Worker pulls full tensors: each shard travels as a RAW frame,
        charged at its length, and the worker gets the decoded rows (a
        read-only copy every pull of this parameter version shares)."""
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
            frames, rows = self._pulled.get(name) or self._frame(name)
            for shard, frame in zip(self._shards[name], frames):
                self.runtime.send_server_to_worker(
                    shard.server, worker, len(frame), "param_pull"
                )
                self._outage_retries(
                    worker, shard.server, len(frame), "param_pull", True
                )
            out[name] = rows
        return out

    def _frame(self, name: str) -> tuple[list[Frame], np.ndarray]:
        """Frame every shard of ``name``'s current version once: the
        frames and a read-only copy of the decoded rows. A copy, since
        the frames view the live parameter ``_apply_updates`` steps in
        place."""
        array = self._params[name]
        frames = [
            encode_raw(np.atleast_1d(array)[shard.start:shard.stop])
            for shard in self._shards[name]
        ]
        rows = np.concatenate([decode_raw(f) for f in frames])
        rows = rows.reshape(array.shape)
        rows.flags.writeable = False
        self._pulled[name] = frames, rows
        return self._pulled[name]

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

    def apply_updates(self) -> None:
        """Sum the buffered gradients and run the per-server optimizers.

        Called once per iteration after every worker has pushed. The
        pushed gradients are summed, not averaged: each worker already
        scales its share by the global training-vertex count, so the sum
        is the gradient of the full-batch mean loss.
        """
        if not self._pending:
            return
        with self.runtime.telemetry.span("server_apply"):
            self._apply_updates()
        self.runtime.telemetry.metrics.inc("optimizer_steps")

    def _apply_updates(self) -> None:
        for server, optimizer in enumerate(self._optimizers):
            # Views into the parameters: the optimizer updates them in
            # place.
            shard_params: Dict[str, np.ndarray] = {}
            shard_grads: Dict[str, np.ndarray] = {}
            for name, grad_sum in self._pending.items():
                for shard in self._shards[name]:
                    if shard.server != server:
                        continue
                    shard_params[shard.key] = (
                        self._params[name][shard.start:shard.stop]
                    )
                    shard_grads[shard.key] = (
                        grad_sum[shard.start:shard.stop].astype(np.float32)
                    )
            if shard_grads:
                optimizer.step(shard_params, shard_grads)
        self._pending.clear()
        self._pulled.clear()

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameters (checkpointing)."""
        return {name: array.copy() for name, array in self._params.items()}
