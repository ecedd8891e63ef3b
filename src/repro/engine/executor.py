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

What a worker does in a round is spelled once — :func:`run_kernel`, the
op table both executors dispatch through — and so is what the engine
does with a round's results (:class:`KernelRounds`). An executor only
says how one round reaches the workers (``_round``), so sync ≡
multiprocess holds by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.reqec_fp import ReqECPolicy
from repro.core.resec_bp import ResECPolicy
from repro.nn.losses import softmax_cross_entropy

if TYPE_CHECKING:
    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext
    from repro.engine.workspace import WorkspaceBytes

__all__ = [
    "KernelRounds", "SyncExecutor", "forward_kernel", "loss_kernel",
    "publish_workspace_bytes", "run_kernel",
]


def publish_workspace_bytes(
    ctx: ExchangeContext, worker: int, held: WorkspaceBytes
) -> None:
    """A worker's kernel buffers (``LayerWorkspaces.held``) as gauges —
    ``ecgraph_workspace_bytes{worker=...}`` once exported — rather than
    something inferred from RSS: resident, planned, and the first-layer
    aggregate's share; beside them the feature rows and the sparse
    adjacency rows (``a_local``) its state holds (this process's copy)
    and the exchange-policy state the worker owns: ReqEC-FP trend tables
    and ResEC-BP residuals (sizes only)."""
    metrics = ctx.telemetry.metrics
    metrics.set_gauge("workspace_bytes", held.resident, worker=worker)
    metrics.set_gauge("workspace_planned_bytes", held.planned, worker=worker)
    metrics.set_gauge(
        "first_aggregate_bytes", held.first_aggregate, worker=worker
    )
    state = ctx.workers[worker]
    metrics.set_gauge("feature_bytes", state.feature_bytes(), worker=worker)
    metrics.set_gauge("csr_bytes", state.csr_bytes(), worker=worker)
    if isinstance(ctx.fp_policy, ReqECPolicy):
        metrics.set_gauge(
            "trend_table_bytes", ctx.fp_policy.trend_table_bytes(worker),
            worker=worker,
        )
    if isinstance(ctx.bp_policy, ResECPolicy):
        metrics.set_gauge(
            "residual_bytes", ctx.bp_policy.residual_bytes(worker),
            worker=worker,
        )


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
    halo exchange its tail. Layer 1's is None when the plan holds no
    ``[X; X_halo]`` (the kernel reads the constant ``M^1``). Once layer
    1 has run, this process holds what it reads, and the worker's input
    arrays can go (``LayerWorkspaces.release_first_inputs``)."""
    ws = ctx.workspaces
    if layer == 1:
        h_cat = ws.first_input(state)
    else:
        h_cat = ws.h_cat(state, layer - 1)
    backend.forward_layer(state, h_cat, pulled, layer, is_last=is_last)
    if layer == 1:
        ws.release_first_inputs(state)


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


def run_kernel(
    ctx: ExchangeContext,
    backend: ModelBackend,
    state: WorkerState,
    op: str,
    args: tuple[Any, ...],
) -> Any:
    """One worker's part of kernel round ``op`` — the op table both
    executors run, inline or in the worker process.

    ``fwd`` takes ``(layer, is_last, pulled)``, ``loss`` nothing,
    ``bpl``/``bpr`` ``(layer, weights)``; the result is what the round
    hands back to the engine (loss terms, gradient shares, or None).
    """
    if op == "fwd":
        layer, is_last, pulled = args
        return forward_kernel(ctx, backend, state, layer, pulled, is_last)
    if op == "loss":
        return loss_kernel(ctx, backend, state)
    if op == "bpl":
        layer, weights = args
        return backend.backward_local(state, layer, weights)
    if op == "bpr":
        layer, weights = args
        return backend.backward_reduce(state, layer, weights)
    raise ValueError(f"unknown kernel op {op!r}")


class KernelRounds:
    """The engine's four kernel rounds, written once over ``_round``.

    ``_round(op, args_of)`` runs :func:`run_kernel` for every active
    worker — ``args_of(state)`` gives that worker's arguments — charges
    each worker's kernel time to its compute clock, and returns the
    results keyed by worker id in ``active_workers()`` order.
    """

    ctx: ExchangeContext | None = None
    backend: ModelBackend | None = None

    def _round(
        self, op: str, args_of: Callable[[WorkerState], tuple[Any, ...]]
    ) -> dict[int, Any]:
        raise NotImplementedError

    def forward_kernels(
        self,
        t: int,
        layer: int,
        pulled: dict[int, dict[str, np.ndarray]],
        is_last: bool,
    ) -> None:
        del t
        self._round("fwd", lambda s: (layer, is_last, pulled[s.worker_id]))

    def loss_scan(self, t: int) -> tuple[float, dict[str, list[int]]]:
        """Loss + accuracy counters summed over the workers."""
        del t
        counters = {"train": [0, 0], "val": [0, 0], "test": [0, 0]}
        total_loss = 0.0
        for loss_term, worker_counters in self._round(
            "loss", lambda s: ()
        ).values():
            total_loss += loss_term
            for split in counters:
                counters[split][0] += worker_counters[split][0]
                counters[split][1] += worker_counters[split][1]
        return total_loss, counters

    def backward_local(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
        grads: dict[int, dict[str, np.ndarray]],
    ) -> None:
        del t
        shares = self._round("bpl", lambda s: (layer, weights))
        for worker, worker_shares in shares.items():
            grads[worker].update(worker_shares)

    def backward_reduce(
        self,
        t: int,
        layer: int,
        weights: dict[str, np.ndarray],
    ) -> None:
        del t
        self._round("bpr", lambda s: (layer, weights))


class SyncExecutor(KernelRounds):
    """Inline execution: every worker kernel runs in this process."""

    name = "sync"

    def bind(self, ctx: ExchangeContext, backend: ModelBackend) -> None:
        self.ctx = ctx
        self.backend = backend

    def _bound(self) -> tuple[ExchangeContext, ModelBackend]:
        assert self.ctx is not None and self.backend is not None
        return self.ctx, self.backend

    def _round(
        self, op: str, args_of: Callable[[WorkerState], tuple[Any, ...]]
    ) -> dict[int, Any]:
        ctx, backend = self._bound()
        results: dict[int, Any] = {}
        for state in ctx.active_workers():
            args = args_of(state)
            with ctx.runtime.worker_compute(state.worker_id):
                results[state.worker_id] = run_kernel(
                    ctx, backend, state, op, args
                )
        return results

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
    # Lifecycle
    # ------------------------------------------------------------------
    def on_worker_crash(self, worker_id: int) -> None:
        """Inline workers have no process to respawn."""
        del worker_id

    def close(self) -> None:
        """Inline execution holds no external resources."""
