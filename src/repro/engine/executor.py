"""The execution seam: where worker kernels actually run.

The staged engine describes *what* happens each iteration — pulls,
halo exchanges, per-worker kernels, the loss scan — while an executor
decides *where* the per-worker kernels run:

* :class:`SyncExecutor` (``execution="sync"``) runs them inline in the
  supervisor process under each worker's compute clock, exactly as the
  engine always has — the historical single-process simulation;
* :class:`~repro.mp.supervisor.ProcessExecutor`
  (``execution="multiprocess"``) dispatches them to real OS worker
  processes over pipes and shared-memory stores (see
  ``docs/execution.md``).

Everything *between* the kernels — parameter pulls, the exchange
policies and their compensation state, fault injection, traffic
metering, the Bit-Tuner — always stays on the supervisor, which is why
the two executors produce bit-identical loss curves and traffic totals.

Exchanges source the rows a worker serves from the layer workspaces the
kernels wrote (:mod:`repro.engine.workspace`) — private arrays here,
shared-memory blocks under the process executor — so neither executor
has row accessors of its own.

What a worker does in a round is spelled once — :func:`forward_kernel`,
:func:`loss_kernel` — and both executors call it, so sync ≡ multiprocess
holds by construction.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, ContextManager

import numpy as np

from repro.nn.losses import softmax_cross_entropy

if TYPE_CHECKING:
    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext

__all__ = [
    "SyncExecutor", "forward_kernel", "loss_kernel", "publish_workspace_bytes",
]


def publish_workspace_bytes(
    ctx: ExchangeContext, worker: int, held: tuple[int, int]
) -> None:
    """Resident kernel buffers (``LayerWorkspaces.held``) as gauges —
    ``ecgraph_workspace_bytes{worker=...}`` once exported — rather than
    something inferred from RSS."""
    metrics = ctx.telemetry.metrics
    metrics.set_gauge("workspace_bytes", held[0], worker=worker)
    metrics.set_gauge("first_aggregate_bytes", held[1], worker=worker)


def forward_kernel(
    ctx: ExchangeContext,
    backend: ModelBackend,
    state: WorkerState,
    layer: int,
    pulled: dict[str, np.ndarray],
    is_last: bool,
) -> None:
    """One worker's forward round on the layer's input workspace: the
    previous kernel (or the feature shard) already wrote its head, the
    halo exchange its tail."""
    ws, dims = ctx.workspaces, ctx.params.dims
    if layer == 1:
        h_cat = ws.first_input(state, ctx.config.cache_first_hop)
    else:
        h_cat = ws.h_cat(state, layer - 1, dims[layer - 1])
    backend.forward_layer(state, h_cat, pulled, layer, is_last=is_last)


def loss_kernel(
    ctx: ExchangeContext, backend: ModelBackend, state: WorkerState
) -> tuple[float, dict[str, list[int]]]:
    """One worker's loss term and accuracy counters from its final
    logits; seeds ``grad_rows`` (scaled by the global train count)."""
    num_layers = ctx.params.num_layers
    logits = backend.final_logits(state)
    result = softmax_cross_entropy(logits, state.labels, state.train_mask)
    local = int(state.train_mask.sum())
    scale = local / ctx.global_train_count if local else 0.0
    # result.grad is a mean over local train vertices; rescale to a
    # global mean so summing worker pushes is exact.
    state.grad_rows[num_layers] = np.multiply(
        result.grad, scale, out=backend.grad_out(state, num_layers)
    )
    counters = {"train": [result.correct, result.count]}
    predictions = logits.argmax(axis=1)
    for split, mask in (("val", state.val_mask), ("test", state.test_mask)):
        counters[split] = [
            int((predictions[mask] == state.labels[mask]).sum()),
            int(mask.sum()),
        ]
    return result.loss * scale, counters


class SyncExecutor:
    """Inline execution: every worker kernel runs in this process."""

    name = "sync"

    def __init__(self) -> None:
        self.ctx: ExchangeContext | None = None
        self.backend: ModelBackend | None = None

    def bind(self, ctx: ExchangeContext, backend: ModelBackend) -> None:
        self.ctx = ctx
        self.backend = backend

    def _bound(self) -> tuple[ExchangeContext, ModelBackend]:
        assert self.ctx is not None and self.backend is not None
        return self.ctx, self.backend

    # ------------------------------------------------------------------
    # Iteration hooks
    # ------------------------------------------------------------------
    def on_epoch_start(self, t: int) -> None:
        self._bound()[1].on_epoch_start(t)

    def begin_iteration(self) -> None:
        ctx, backend = self._bound()
        backend.begin_iteration()
        if ctx.telemetry.enabled:
            for state in ctx.active_workers():
                w = state.worker_id
                publish_workspace_bytes(ctx, w, ctx.workspaces.held(w))

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward_kernels(
        self,
        t: int,
        layer: int,
        pulled: dict[int, dict[str, np.ndarray]],
        is_last: bool,
    ) -> None:
        del t
        ctx, backend = self._bound()
        for state in ctx.active_workers():
            i = state.worker_id
            with ctx.runtime.worker_compute(i):
                forward_kernel(
                    ctx, backend, state, layer, pulled[i], is_last
                )

    def loss_scan(self, t: int) -> tuple[float, dict[str, list[int]]]:
        """Loss + accuracy counters summed over the workers."""
        del t
        ctx, backend = self._bound()
        counters = {"train": [0, 0], "val": [0, 0], "test": [0, 0]}
        total_loss = 0.0
        for state in ctx.active_workers():
            with ctx.runtime.worker_compute(state.worker_id):
                loss_term, worker_counters = loss_kernel(ctx, backend, state)
            total_loss += loss_term
            for split in counters:
                counters[split][0] += worker_counters[split][0]
                counters[split][1] += worker_counters[split][1]
        return total_loss, counters

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def _bp_span(self, layer: int, stage: str) -> ContextManager[object]:
        ctx, _ = self._bound()
        if getattr(self.backend, "_bp_span_stages", False):
            return ctx.telemetry.span(
                "kernel", layer=layer, direction="bp", stage=stage
            )
        return contextlib.nullcontext()

    def backward_local(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
        grads: dict[int, dict[str, np.ndarray]],
    ) -> None:
        del t
        ctx, backend = self._bound()
        with self._bp_span(layer, "weight_grad"):
            for state in ctx.active_workers():
                i = state.worker_id
                with ctx.runtime.worker_compute(i):
                    grads[i].update(
                        backend.backward_local(state, layer, weights)
                    )

    def backward_reduce(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
    ) -> None:
        del t
        ctx, backend = self._bound()
        with self._bp_span(layer, "input_grad"):
            for state in ctx.active_workers():
                with ctx.runtime.worker_compute(state.worker_id):
                    backend.backward_reduce(state, layer, weights)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_worker_crash(self, worker_id: int) -> None:
        """Inline workers have no process to respawn."""
        del worker_id

    def close(self) -> None:
        """Inline execution holds no external resources."""
