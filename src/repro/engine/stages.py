"""The staged training pipeline: plan → forward → backward → optimize → eval.

Each stage is a small object bound to one
:class:`~repro.engine.context.ExchangeContext` and one
:class:`~repro.engine.backends.ModelBackend`; the
:class:`~repro.engine.core.TrainerCore` drives them in order once per
iteration. The stages own everything the architectures share — pulls,
halo exchanges, the loss scan, pushes, Bit-Tuner feedback, telemetry
spans — while the backend supplies the per-layer math, so a new model
plugs in as a backend and a new pipeline step plugs in as a stage (see
``docs/engine.md``).

Span structure and accounting are kept exactly as the monolithic
trainer emitted them: per-layer ``layer``/``kernel`` spans, the
``loss`` span, pulls before halo exchanges within each layer, and the
parameter push inside the ``backward`` phase.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine import ClusterRuntime, EpochBreakdown
from repro.core.results import EpochResult
from repro.engine.backends import ModelBackend
from repro.engine.context import ExchangeContext
from repro.engine.transport import HaloTransport

__all__ = [
    "Stage",
    "HaloPlanStage",
    "ForwardStage",
    "BackwardStage",
    "OptimizeStage",
    "EvalStage",
]


class Stage:
    """Base class: a pipeline step bound to one context and backend."""

    def __init__(self, ctx: ExchangeContext, backend: ModelBackend) -> None:
        self.ctx = ctx
        self.backend = backend


class HaloPlanStage(Stage):
    """Per-iteration halo planning: sampling hooks refresh the sampled
    adjacencies and the per-channel exchange subsets before the forward
    pass touches the wire (full-batch backends are a no-op)."""

    def run(self, t: int) -> None:
        self.ctx.executor.on_epoch_start(t)


class ForwardStage(Stage):
    """Layer-by-layer forward pass plus the loss/metric scan.

    Per layer: pull the layer's parameters, fetch the halo embeddings
    through the forward policy into the tail of each worker's layer
    workspace, then run the backend's local kernel on every worker
    under its compute clock. After the last layer, the
    softmax cross-entropy scan seeds ``grad_rows`` (scaled by the
    *global* train count so server-side summation is exact) and the
    Bit-Tuner consumes the exchange's predicted-win proportions.
    """

    def run(self, t: int) -> tuple[float, dict[str, tuple[int, int]]]:
        ctx, backend = self.ctx, self.backend
        obs = ctx.telemetry
        num_layers = ctx.params.num_layers
        ctx.executor.begin_iteration()

        for layer in range(1, num_layers + 1):
            with obs.span("layer", layer=layer, direction="fp"):
                names = backend.layer_param_names(layer)
                pulled: dict[int, dict[str, np.ndarray]] = {}
                for state in ctx.active_workers():
                    pulled[state.worker_id] = ctx.servers.pull(
                        state.worker_id, names
                    )

                self._fetch_halos(layer, t)

                with obs.span("kernel", layer=layer, direction="fp"):
                    ctx.executor.forward_kernels(
                        t, layer, pulled, is_last=(layer == num_layers)
                    )

        # Loss and metrics from the final logits; gradients are scaled by
        # the *global* train count so server-side summation is exact.
        with obs.span("loss"):
            total_loss, counters = ctx.executor.loss_scan(t)

        ctx.update_tuner()

        summary = {
            split: (correct, count)
            for split, (correct, count) in counters.items()
        }
        return total_loss, summary

    def _fetch_halos(self, layer: int, t: int) -> None:
        """Halo embeddings feeding ``layer`` (H^{layer-1} remote rows);
        the cached first hop already sits in the layer-1 workspace."""
        ctx, backend = self.ctx, self.backend
        if layer == 1:
            if not ctx.config.cache_first_hop:
                ctx.exchange(
                    "fp",
                    0,
                    t,
                    rows_of=lambda s: s.local_rows(),
                    dim=ctx.graph.feature_dim,
                    subset=backend.exchange_subset(1, "fp"),
                )
            return
        ctx.exchange(
            "fp",
            layer - 1,
            t,
            rows_of=lambda s: ctx.workspaces.h_cat(s, layer - 1)[:s.num_local],
            dim=ctx.params.dims[layer - 1],
            subset=backend.exchange_subset(layer, "fp"),
        )


class BackwardStage(Stage):
    """Reverse layer loop; the backend owns each layer's gradient math
    (including its halo exchange — forward-style gradient fetches for
    GCN/SAGE, reverse partial-gradient pushes for GAT)."""

    def run(self, t: int) -> dict[int, dict[str, np.ndarray]]:
        ctx, backend = self.ctx, self.backend
        obs = ctx.telemetry
        grads: dict[int, dict[str, np.ndarray]] = {
            state.worker_id: {} for state in ctx.active_workers()
        }
        for layer in range(ctx.params.num_layers, 0, -1):
            with obs.span("layer", layer=layer, direction="bp"):
                backend.backward_layer(t, layer, grads)
        return grads


class OptimizeStage(Stage):
    """Push every worker's gradient shares and apply the server update."""

    def run(self, grads: dict[int, dict[str, np.ndarray]]) -> None:
        ctx = self.ctx
        for state in ctx.active_workers():
            ctx.servers.push(state.worker_id, grads[state.worker_id])
        ctx.servers.apply_updates()


class EvalStage(Stage):
    """Epoch bookkeeping and exact evaluation.

    ``run`` folds the forward pass's counters into an
    :class:`~repro.core.results.EpochResult` (plus telemetry gauges);
    ``evaluate_exact`` runs the Table-V measurement — one raw-policy
    forward on a scratch runtime so neither traffic accounting nor
    compensation state is disturbed.
    """

    def run(
        self,
        t: int,
        loss: float,
        counters: dict[str, tuple[int, int]],
        breakdown: EpochBreakdown,
    ) -> EpochResult:
        ctx = self.ctx

        def _ratio(split: str) -> float:
            correct, count = counters[split]
            return correct / count if count else 0.0

        telemetry = None
        obs = ctx.telemetry
        if obs.enabled:
            obs.metrics.set_gauge("loss", loss)
            obs.metrics.set_gauge("train_accuracy", _ratio("train"))
            obs.metrics.set_gauge("val_accuracy", _ratio("val"))
            telemetry = obs.end_epoch(t)

        return EpochResult(
            epoch=t,
            loss=loss,
            train_accuracy=_ratio("train"),
            val_accuracy=_ratio("val"),
            test_accuracy=_ratio("test"),
            breakdown=breakdown,
            telemetry=telemetry,
        )

    def evaluate_exact(self) -> dict[str, float]:
        """Accuracy of the current parameters with exact communication."""
        from repro.core.messages import RawPolicy

        ctx, backend = self.ctx, self.backend
        ws = ctx.workspaces
        scratch_runtime = ClusterRuntime(ctx.spec)
        scratch_transport = HaloTransport(scratch_runtime, ctx.workers)
        raw = RawPolicy()
        num_layers = ctx.params.num_layers

        # The pass runs in the layers' training slots (an iteration
        # rewrites them before reading them): each layer writes its
        # output into the head of the next one's input, the exchange
        # fills the tail. The cached first hop reads the constant h0 or
        # M^1 training holds.
        outputs: list[np.ndarray] = []
        for layer in range(1, num_layers + 1):
            params = {
                name: ctx.servers.get(name)
                for name in backend.layer_param_names(layer)
            }
            if layer == 1:
                h_cats = [ws.first_input(s) for s in ctx.workers]
            else:
                h_cats = [ws.h_cat(s, layer - 1) for s in ctx.workers]
            if layer > 1 or not ctx.config.cache_first_hop:
                scratch_transport.exchange(
                    layer=layer - 1,
                    t=0,
                    rows_of=lambda s, _h=h_cats: _h[s.worker_id][:s.num_local],
                    policy=raw,
                    category="eval",
                    dim=ctx.params.dims[layer - 1],
                    out=[
                        h_cat[state.num_local:]
                        for state, h_cat in zip(ctx.workers, h_cats)
                    ],
                )
            is_last = layer == num_layers
            outputs = [
                backend.eval_layer(
                    state, h_cats[state.worker_id], params, layer,
                    is_last=is_last,
                    out=None if is_last else ws.h_cat(state, layer)[
                        :state.num_local
                    ],
                )
                for state in ctx.workers
            ]

        metrics = {}
        for split, mask_of in (
            ("train", lambda s: s.train_mask),
            ("val", lambda s: s.val_mask),
            ("test", lambda s: s.test_mask),
        ):
            correct = count = 0
            for state in ctx.workers:
                mask = mask_of(state)
                predictions = outputs[state.worker_id].argmax(axis=1)
                correct += int((predictions[mask] == state.labels[mask]).sum())
                count += int(mask.sum())
            metrics[split] = correct / count if count else 0.0
        return metrics
