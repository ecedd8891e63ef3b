"""Model backends: the per-architecture math behind one plumbing path.

The staged engine (:mod:`repro.engine.stages`) owns everything the
paper's Algorithms 1–2 share between architectures — parameter pulls,
halo exchanges, the loss/metric scan, gradient pushes, Bit-Tuner
feedback — and delegates the per-layer math to a
:class:`ModelBackend`. GCN, GraphSAGE, GAT and the sampled GCN variant
therefore differ only in the backend object they plug in.

Every backend subclasses :class:`ModelBackend`, which also owns the
plumbing around the math: layer caches live in the worker state's
``caches[layer]``, the forward pass and exact evaluation run one layer
kernel, the backward pass pulls the layer's parameter list and drives
its kernels and gradient exchange through the context's executor. An
architecture writes:

* ``layer_param_names`` — the server parameters a layer pulls (and its
  backward kernels read);
* ``layer_kernel`` — one local layer on a worker's ``h_cat``, returning
  the :class:`~repro.core.gcn_math.LayerForwardCache` the backward pass
  reads (``out`` is the head of the next layer's workspace, see
  :mod:`repro.engine.workspace`);
* ``backward_local`` / ``backward_reduce`` — one worker's
  parameter-gradient shares, and the fold of the layer's gradient halo
  into ``grad_rows[layer - 1]``;
* ``buffer_lives`` — every workspace buffer its kernels use, with its
  life on the iteration timeline (the default fits a ``layer_kernel``
  backend; see :mod:`repro.engine.workspace`);
* optionally ``build_workers`` (what each worker's local graph is: by
  default its partition plus the 1-hop halo), ``bind`` (register extra
  parameters, build per-worker structures) and ``on_membership_change``
  (rebuild them).

GCN keeps its own ``forward_layer``/``eval_layer`` (workspace-backed
aggregates and DGL's ordering rule); the sampled GCN adds the
per-iteration hooks ``on_epoch_start`` (resampling), ``adjacency`` and
``exchange_subset`` (per-channel sampled row subsets).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Container

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.config import ECGraphConfig
from repro.core.gcn_math import (
    LayerForwardCache,
    apply_relu,
    bias_gradient,
    layer_backward_inputs,
    layer_forward,
    relu_backward,
    weight_gradient,
)
from repro.core.models import bias_name, weight_name
from repro.core.policies import DelayedPolicy
from repro.core.reqec_fp import ReqECPolicy
from repro.core.worker import WorkerState, build_worker_states
from repro.engine.context import ExchangeContext
from repro.engine.workspace import BufferLife, Timeline
from repro.graph.store.base import GraphStore, GraphStoreBundle
from repro.graph.subgraph import check_fanouts, sample_capped_rows
from repro.nn.init import glorot_uniform
from repro.partition.base import Partition

__all__ = [
    "ModelBackend",
    "GCNBackend",
    "SampledGCNBackend",
    "SAGEBackend",
    "GATBackend",
    "self_weight_name",
    "attn_src_name",
    "attn_dst_name",
    "head_weight_name",
]


class ModelBackend:
    """What the staged engine needs from a model architecture, and the
    plumbing every architecture shares.

    The backward pass is split so the execution backend (inline or
    multi-process, see :mod:`repro.engine.executor`) can run the pure
    per-worker kernels wherever the workers live while the exchange
    itself stays on the supervisor:

    * :meth:`backward_local` — one worker's parameter-gradient shares
      for a layer (pure kernel, no clocks, no exchanges);
    * :meth:`backward_reduce` — one worker folds the layer's gradient
      halo (already scattered into its workspace by the exchange) into
      ``grad_rows[layer - 1]`` (pure kernel);
    * :meth:`_backward_halos` — the layer's gradient halo exchange
      (forward-style fetch by default; GAT overrides with the reverse
      push);
    * :meth:`backward_layer` — the generic driver tying them together
      through the context's executor, each kernel round inside its
      ``kernel`` span (``stage=weight_grad`` / ``input_grad``).
    """

    name: str
    ctx: ExchangeContext
    # Bumped whenever supervisor-side per-worker kernel state changes
    # (sampled adjacencies); the process executor ships a refresh to
    # worker replicas when the shipped version falls behind.
    kernel_version: int = 0

    def build_workers(
        self,
        graph: GraphStoreBundle,
        normalized: GraphStore,
        partition: Partition,
        config: ECGraphConfig,
    ) -> list[WorkerState]:
        """The worker states the engine trains on, from the globally
        normalized adjacency: each worker's partition plus its 1-hop
        halo (default). Runs at set-up before :meth:`bind`, and again
        on every elastic rebuild."""
        del config
        return build_worker_states(graph, normalized, partition)

    def bind(self, ctx: ExchangeContext) -> None:
        """Attach the context; register extra parameters, build caches."""
        self.ctx = ctx

    def on_epoch_start(self, t: int) -> None:
        """Per-iteration hook before the forward pass (sampling)."""
        del t

    def on_membership_change(self) -> None:
        """Rebuild architecture-specific per-worker structures after the
        reassigner swapped the worker states (default: nothing cached)."""

    def begin_iteration(self) -> None:
        """Reset every worker's layer caches before a forward pass."""
        num_layers = self.ctx.params.num_layers
        for state in self.ctx.workers:
            state.reset_iteration(num_layers)

    def adjacency(self, state: WorkerState, layer: int) -> csr_matrix:
        """Aggregation rows used by ``state`` at ``layer`` (1-based)."""
        del layer
        return state.a_local

    def exchange_subset(
        self, layer: int, direction: str
    ) -> dict[tuple[int, int], np.ndarray] | None:
        """Per-channel boolean masks of the sampled rows (None = exchange
        all rows)."""
        del layer, direction
        return None

    def layer_param_names(self, layer: int) -> list[str]:
        """Server parameter names ``layer`` (1-based) pulls and its
        backward kernels read (default: ``W`` and ``b``)."""
        return self.ctx.params.layer_param_names(layer - 1)

    # ------------------------------------------------------------------
    # Forward pass and exact inference: one layer kernel
    # ------------------------------------------------------------------
    def layer_kernel(
        self,
        state: WorkerState,
        h_cat: np.ndarray,
        params: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
        out: np.ndarray | None = None,
    ) -> LayerForwardCache:
        """One local layer on ``state``'s concatenated input; hidden
        activations go into ``out`` when given."""
        raise NotImplementedError

    def forward_layer(
        self,
        state: WorkerState,
        h_cat: np.ndarray,
        pulled: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
    ) -> None:
        """One forward kernel; caches what backward needs on the state."""
        state.caches[layer] = self.layer_kernel(
            state, h_cat, pulled, layer, is_last,
            out=self._out_buffer(state, layer),
        )

    def final_logits(self, state: WorkerState) -> np.ndarray:
        """Classification logits for the worker's local vertices."""
        return state.local_output(self.ctx.params.num_layers)

    def eval_layer(
        self,
        state: WorkerState,
        h_cat: np.ndarray | None,
        params: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact-inference layer output (full adjacency); hidden
        activations go into ``out`` when given. ``h_cat`` is None on the
        first layer when the plan holds no ``[X; X_halo]``."""
        return self.layer_kernel(
            state, h_cat, params, layer, is_last, out=out
        ).output

    # ------------------------------------------------------------------
    # Kernel-state shipping (multi-process executor)
    # ------------------------------------------------------------------
    def kernel_refresh(self, worker_id: int) -> Any:
        """Payload bringing a worker replica's kernel state up to
        ``kernel_version`` (None = backend has no mutable kernel state)."""
        del worker_id
        return None

    def apply_kernel_refresh(self, worker_id: int, payload: Any) -> None:
        """Apply a :meth:`kernel_refresh` payload in a worker replica."""
        del worker_id, payload

    # ------------------------------------------------------------------
    # Backward pass: generic driver + per-backend kernels
    # ------------------------------------------------------------------
    def backward_local(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """One worker's parameter-gradient shares for ``layer``."""
        raise NotImplementedError

    def backward_reduce(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> None:
        """Fold the layer's gradient halo into ``grad_rows[layer-1]``."""
        raise NotImplementedError

    # -- persistent buffers (repro.engine.workspace) ---------------------
    def plan_workspaces(self) -> None:
        """Plan every worker's workspace slots from :meth:`buffer_lives`.
        Shared slots are made here, so the process executor's blocks
        exist before its workers attach them. Runs at bind and again
        after a membership change."""
        ctx = self.ctx
        timeline = Timeline(ctx.params.num_layers)
        for state in ctx.workers:
            ctx.workspaces.plan(
                state, self.buffer_lives(state, timeline), timeline
            )

    def buffer_lives(
        self, state: WorkerState, tl: Timeline
    ) -> list[BufferLife]:
        """Every workspace buffer of ``state``, with its life on the
        iteration timeline. The default fits a ``layer_kernel`` backend:
        the weight gradient reads the layer's input (``bpl``), the input
        gradient reads the fetched ``G`` (``bpr``)."""
        lives = []
        for layer in range(1, self.ctx.params.num_layers + 1):
            lives.append(
                self._input_life(state, tl, layer, tl.read(f"bpl{layer}"))
            )
            lives.append(self._grad_life(
                state, tl, layer,
                tl.read(f"bpr{layer}" if layer > 1 else "bpl1"),
            ))
        return lives

    def _input_life(
        self, state: WorkerState, tl: Timeline, layer: int, end: int
    ) -> BufferLife:
        """``h{layer-1}``, the layer's input: written by the layer below
        (``h0``: before the first kernel, or once and for all on the
        cached first hop) and last read at ``end``."""
        dim = self.ctx.params.dims[layer - 1]
        if layer > 1:
            start = tl.write(f"fwd{layer - 1}")
        elif self.ctx.config.cache_first_hop:
            start, end = tl.always
        else:
            start = tl.read("fwd1")
        return BufferLife(
            f"h{layer - 1}", (state.num_local + state.num_halo, dim), True,
            start, end,
        )

    def _grad_life(
        self, state: WorkerState, tl: Timeline, layer: int, end: int
    ) -> BufferLife:
        """The buffer ``G^layer`` lives in: written by the loss (last
        layer) or the input gradient of the layer above, read until
        ``end``."""
        name, shape, shared = self.grad_buffer(state, layer)
        start = tl.write(
            "loss" if layer == self.ctx.params.num_layers
            else f"bpr{layer + 1}"
        )
        return BufferLife(name, shape, shared, start, end)

    def grad_buffer(
        self, state: WorkerState, layer: int
    ) -> tuple[str, tuple[int, int], bool]:
        """Name, shape and sharing of ``g{layer}``, the buffer ``G^layer``
        lives in: local rows plus the halo tail the layer's gradient
        fetch fills (layer 1 fetches nothing: local rows only)."""
        rows = state.num_local + (state.num_halo if layer > 1 else 0)
        return f"g{layer}", (rows, self.ctx.params.dims[layer]), layer > 1

    def grad_cat(self, state: WorkerState, layer: int) -> np.ndarray:
        """``[G^layer; G^layer_halo]`` once the layer's fetch has run."""
        name = self.grad_buffer(state, layer)[0]
        return self.ctx.workspaces.buffer(name, state)

    def grad_out(self, state: WorkerState, layer: int) -> np.ndarray:
        """Where ``G^layer``'s local rows live: the head of its buffer."""
        return self.grad_cat(state, layer)[:state.num_local]

    def _out_buffer(self, state: WorkerState, layer: int) -> np.ndarray | None:
        """Where ``H^layer`` goes: the head of the next layer's ``h_cat``
        (None on the last layer, whose logits nothing aggregates)."""
        if layer == self.ctx.params.num_layers:
            return None
        return self.ctx.workspaces.h_cat(state, layer)[:state.num_local]

    def _backward_halos(self, t: int, layer: int) -> None:
        """The layer's gradient halo exchange (forward-style fetch into
        the tail of the width's ``g_cat`` workspace)."""
        ctx = self.ctx
        ctx.exchange(
            "bp",
            layer,
            t,
            rows_of=lambda s: self.grad_out(s, layer),
            dim=ctx.params.dims[layer],
            subset=self.exchange_subset(layer, "bp"),
        )

    def backward_layer(
        self, t: int, layer: int, grads: dict[int, dict[str, np.ndarray]]
    ) -> None:
        """One backward layer: parameter-gradient shares into ``grads``
        plus the input-gradient propagation (with its halo exchange)."""
        ctx = self.ctx
        obs = ctx.telemetry
        weights = {
            name: ctx.servers.get(name)
            for name in self.layer_param_names(layer)
        }
        with obs.span("kernel", layer=layer, direction="bp",
                      stage="weight_grad"):
            ctx.executor.backward_local(t, layer, weights, grads)
        if layer > 1:
            self._backward_halos(t, layer)
            with obs.span("kernel", layer=layer, direction="bp",
                          stage="input_grad"):
                ctx.executor.backward_reduce(t, layer, weights)


# ----------------------------------------------------------------------
# GCN
# ----------------------------------------------------------------------
class GCNBackend(ModelBackend):
    """Full-batch GCN (paper Algorithms 1–2).

    The one backend with its own forward and eval kernels: training
    aggregates the (possibly sampled) adjacency into kernel-private
    workspaces and reuses the constant first-layer aggregate, while
    exact inference aggregates the full adjacency in DGL's ordering.
    """

    name = "gcn"

    def _transform_first(self, layer: int) -> bool:
        dims = self.ctx.params.dims
        return self.ctx.config.transform_first and dims[layer - 1] > dims[layer]

    def _reads_first_input(self) -> bool:
        """Whether a kernel reads ``[X; X_halo]`` every iteration. On the
        cached first hop an aggregate-first layer 1 reads only the
        constant ``M^1``, so ``h0`` is not planned at all."""
        return not self.ctx.config.cache_first_hop or self._transform_first(1)

    def buffer_lives(
        self, state: WorkerState, tl: Timeline
    ) -> list[BufferLife]:
        ctx = self.ctx
        dims, num_layers = ctx.params.dims, ctx.params.num_layers
        cached = ctx.config.cache_first_hop
        local = state.num_local
        lives = []
        for layer in range(1, num_layers + 1):
            fwd, bpl = f"fwd{layer}", f"bpl{layer}"
            transform_first = self._transform_first(layer)
            constant_m1 = layer == 1 and cached
            if layer > 1 or self._reads_first_input():
                # A transform-first weight gradient recomputes A·H_cat,
                # unless the constant M^1 serves it.
                recompute = transform_first and not constant_m1
                lives.append(self._input_life(
                    state, tl, layer, tl.read(bpl if recompute else fwd)
                ))
            if constant_m1:
                lives.append(BufferLife(
                    "m1", (local, dims[0]), False, *tl.always
                ))
            elif not transform_first:
                lives.append(BufferLife(
                    f"m{layer}", (local, dims[layer - 1]), False,
                    tl.write(fwd), tl.read(bpl),
                ))
            # σ'(Z^l) is read after the layer below's G is written; the
            # logits Z^L again after the loss writes G^L. A hidden
            # layer's Z^l is written into h{layer}'s head and only its
            # mask Z^l > 0 is kept.
            last = layer == num_layers
            lives.append(BufferLife(
                f"z{layer}" if last else f"mask{layer}", (local, dims[layer]),
                False, tl.write(fwd),
                tl.write("loss" if last else f"bpr{layer + 1}"),
                np.dtype(np.float32 if last else np.bool_),
            ))
            lives.append(self._grad_life(
                state, tl, layer, tl.read(f"bpr{layer}" if layer > 1 else bpl)
            ))
        return lives

    def forward_layer(
        self,
        state: WorkerState,
        h_cat: np.ndarray | None,
        pulled: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
    ) -> None:
        ctx = self.ctx
        ws, dims = ctx.workspaces, ctx.params.dims
        adjacency = self.adjacency(state, layer)
        transform_first = self._transform_first(layer)
        # Kernel-private logits Z^L (or a hidden mask) and A·H_cat. A
        # transform-first layer only recomputes the aggregate
        # transiently — except the first, whose constant M^1 then
        # serves the weight gradient.
        aggregated = aggregate_out = None
        if layer == 1 and ctx.config.cache_first_hop:
            aggregated = ws.first_aggregate(state, adjacency)
        elif not transform_first:
            aggregate_out = ws.buffer(f"m{layer}", state)
        sigma = ws.buffer(f"z{layer}" if is_last else f"mask{layer}", state)
        state.caches[layer] = layer_forward(
            adjacency,
            h_cat,
            pulled[weight_name(layer - 1)],
            pulled[bias_name(layer - 1)],
            is_last=is_last,
            transform_first=transform_first,
            aggregated=aggregated,
            aggregate_out=aggregate_out,
            z_out=sigma if is_last else None,
            out=self._out_buffer(state, layer),
            positive_out=None if is_last else sigma,
        )

    def backward_local(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        del weights
        g_local = state.grad_rows[layer]
        cache = state.caches[layer]
        return {
            weight_name(layer - 1): weight_gradient(
                cache, self.adjacency(state, layer), g_local
            ),
            bias_name(layer - 1): bias_gradient(g_local),
        }

    def transposed(self, state: WorkerState, layer: int) -> csr_matrix:
        """``A^T`` rows for the input-gradient spmm: the adjacency itself,
        since the normalized graph is symmetric (directed worker graphs
        override this)."""
        return self.adjacency(state, layer)

    def backward_reduce(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> None:
        state.grad_rows[layer - 1] = layer_backward_inputs(
            self.transposed(state, layer),
            self.grad_cat(state, layer),
            weights[weight_name(layer - 1)],
            state.caches[layer - 1].positive,
            out=self.grad_out(state, layer - 1),
        )

    def eval_layer(
        self,
        state: WorkerState,
        h_cat: np.ndarray | None,
        params: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        # Exact inference always aggregates over the full local
        # adjacency (not a sampled one) with default kernel ordering.
        # Without a held [X; X_halo], an aggregate-first layer 1 reads
        # training's M^1 when this process holds it for that adjacency.
        weight = params[weight_name(layer - 1)]
        aggregated = None
        if h_cat is None:
            if weight.shape[0] <= weight.shape[1]:
                aggregated = self.ctx.workspaces.held_aggregate(
                    state, state.a_local
                )
            if aggregated is None:
                h_cat = state.first_layer_cat()
        return layer_forward(
            state.a_local,
            h_cat,
            weight,
            params[bias_name(layer - 1)],
            is_last=is_last,
            aggregated=aggregated,
            out=out,
        ).output


# ----------------------------------------------------------------------
# Sampled GCN (EC-Graph-S / DistDGL baseline)
# ----------------------------------------------------------------------
class SampledGCNBackend(GCNBackend):
    """GCN over per-layer fanout-sampled adjacencies (EC-Graph-S).

    Each row keeps a uniform ``min(degree, fanout)`` of its edges
    (:func:`~repro.graph.subgraph.sample_capped_rows`), rescaled by
    ``degree / fanout`` so the sampled aggregation is an unbiased
    estimator of the full sum. Offline mode (EC-Graph-S, AGL) samples
    once at bind time — the cost lands in the Fig. 9 preprocessing bar;
    online mode (DistDGL) resamples at every ``on_epoch_start``, each
    worker charged its own sampling wall as compute, plus coordination
    messages.

    Args:
        fanouts: Per-layer neighbour caps (integers >= 1),
            ``fanouts[l-1]`` for layer ``l``; length must equal the
            model's layer count.
        online: Resample every iteration instead of once.
    """

    name = "sampled-gcn"

    def __init__(self, fanouts: list[int], online: bool = False) -> None:
        self.fanouts = check_fanouts(fanouts)
        self.online = online
        self.sampled_adj: list[dict[int, csr_matrix]] = []
        self.subsets: dict[int, dict[tuple[int, int], np.ndarray]] = {}
        self.sampled_once = False

    def bind(self, ctx: ExchangeContext) -> None:
        if isinstance(ctx.fp_policy, ReqECPolicy):
            raise ValueError(
                "ReqEC-FP is a full-batch mechanism (it keeps dense "
                "per-vertex trend tables); use fp_mode='compress' or "
                "'raw' in sampling mode"
            )
        if any(isinstance(p, DelayedPolicy)
               for p in (ctx.fp_policy, ctx.bp_policy)):
            raise ValueError(
                "delayed aggregation keeps dense per-channel caches and "
                "cannot track per-iteration sampled subsets; use raw or "
                "compress/resec in sampling mode"
            )
        if len(self.fanouts) != ctx.params.num_layers:
            raise ValueError(
                f"{len(self.fanouts)} fanouts for "
                f"{ctx.params.num_layers} layers"
            )
        super().bind(ctx)
        self.rng = np.random.default_rng(ctx.config.seed + 1)
        if not self.online:
            with ctx.telemetry.span("sampling", mode="offline"):
                self.resample()
            self.sampled_once = True

    def on_membership_change(self) -> None:
        # The sampled adjacencies index the old compact halo spaces;
        # force a fresh (offline-mode) resample on the next iteration.
        self.sampled_once = False
        self.sampled_adj = []
        self.subsets = {}
        self.kernel_version += 1

    def _reads_first_input(self) -> bool:
        # Online, M^1 follows a new adjacency every iteration.
        return self.online or super()._reads_first_input()

    def kernel_refresh(self, worker_id: int) -> dict[int, csr_matrix]:
        # Worker replicas only aggregate: they need their own sampled
        # adjacency, not the exchange subsets (supervisor-side).
        return self.sampled_adj[worker_id]

    def apply_kernel_refresh(self, worker_id: int, payload: Any) -> None:
        while len(self.sampled_adj) <= worker_id:
            self.sampled_adj.append({})
        self.sampled_adj[worker_id] = payload

    def adjacency(self, state: WorkerState, layer: int) -> csr_matrix:
        return self.sampled_adj[state.worker_id][layer]

    def exchange_subset(
        self, layer: int, direction: str
    ) -> dict[tuple[int, int], np.ndarray] | None:
        del direction  # forward and backward touch the same sampled halo
        return self.subsets.get(layer)

    def on_epoch_start(self, t: int) -> None:
        ctx = self.ctx
        if self.online or not self.sampled_once:
            active = ctx.active_workers()
            with ctx.telemetry.span("sampling", mode="online", epoch=t):
                self.resample(charged={state.worker_id for state in active})
            self.sampled_once = True
            ctx.telemetry.metrics.inc("resamples")
            # Online sampling is coordinated by per-worker samplers: each
            # pays its own sampling compute plus request messages.
            for state in active:
                for owner in state.requests:
                    ctx.runtime.send_worker_to_worker(
                        state.worker_id, owner, 64, "sampling"
                    )

    # ------------------------------------------------------------------
    def resample(self, charged: Container[int] = ()) -> None:
        """Draw a fresh per-layer sampled adjacency for every worker; each
        worker in ``charged`` pays its own sampling wall as compute."""
        ctx = self.ctx
        self.kernel_version += 1
        self.sampled_adj = []
        needed_halo: dict[int, list[np.ndarray]] = {
            layer: [] for layer in range(1, ctx.params.num_layers + 1)
        }
        for state in ctx.workers:
            per_layer: dict[int, csr_matrix] = {}
            with (ctx.runtime.worker_compute(state.worker_id)
                  if state.worker_id in charged else nullcontext()):
                for layer in range(1, ctx.params.num_layers + 1):
                    sampled, used_halo = self._sample_rows(
                        state, self.fanouts[layer - 1]
                    )
                    per_layer[layer] = sampled
                    needed_halo[layer].append(used_halo)
            self.sampled_adj.append(per_layer)

        self.subsets = {}
        for layer, per_worker in needed_halo.items():
            layer_subsets: dict[tuple[int, int], np.ndarray] = {}
            for state, used in zip(ctx.workers, per_worker):
                # halo_slots insertion order IS the bit-pinned channel
                # plan order; sorting would reorder subset construction.
                for owner, slots in state.halo_slots.items():
                    layer_subsets[(owner, state.worker_id)] = used[slots]
            self.subsets[layer] = layer_subsets

    def _sample_rows(
        self, state: WorkerState, fanout: int
    ) -> tuple[csr_matrix, np.ndarray]:
        """Sample one worker's adjacency rows down to ``fanout`` entries.

        Returns the sampled matrix and a boolean mask over the worker's
        halo (which remote rows the sampled matrix references).
        """
        # The subgraph's index arrays are the ones a_local is built over.
        sub = state.sub
        degree = np.diff(sub.indptr)
        positions, rows = sample_capped_rows(
            sub.indptr, np.arange(sub.num_local), fanout, self.rng
        )
        weights = (
            sub.weights[positions]
            if sub.weights is not None
            else np.ones(positions.size, dtype=np.float32)
        )
        # degree / fanout on capped rows: an unbiased row-sum estimator.
        scale = np.maximum(degree / fanout, 1.0).astype(np.float32)
        new_indptr = np.zeros(sub.num_local + 1, dtype=np.int64)
        np.cumsum(np.minimum(degree, fanout), out=new_indptr[1:])
        new_indices = sub.indices[positions]
        sampled = csr_matrix(
            (weights * scale[rows], new_indices, new_indptr),
            shape=(sub.num_local, sub.num_local + sub.num_remote),
        )
        used_halo = np.zeros(sub.num_remote, dtype=bool)
        remote_cols = new_indices[new_indices >= sub.num_local] - sub.num_local
        used_halo[remote_cols] = True
        return sampled, used_halo


# ----------------------------------------------------------------------
# GraphSAGE (mean aggregator, concatenation variant)
# ----------------------------------------------------------------------
def self_weight_name(layer: int) -> str:
    """Parameter key of a layer's self-transform ``W_self``."""
    return f"Ws{layer}"


class SAGEBackend(ModelBackend):
    """GraphSAGE-mean: ``Z = H W_self + (A_row H_cat) W_neigh + b``.

    ``weight_name(l)`` holds ``W_neigh`` and :func:`self_weight_name`
    holds ``W_self``. The mean aggregation matrix is row-normalized and
    therefore not symmetric, but its sparsity structure is (undirected
    graphs), so the backward pass aggregates fetched gradient halos
    locally through the transposed-weight rows built at bind time.
    """

    name = "sage"

    def bind(self, ctx: ExchangeContext) -> None:
        super().bind(ctx)
        rng = np.random.default_rng(ctx.config.seed + 13)
        for layer in range(ctx.params.num_layers):
            d_in, d_out = ctx.params.dims[layer], ctx.params.dims[layer + 1]
            ctx.servers.register(
                self_weight_name(layer), glorot_uniform((d_in, d_out), rng)
            )
        self._build_transposed_rows()

    def on_membership_change(self) -> None:
        self._build_transposed_rows()

    def _build_transposed_rows(self) -> None:
        """Rows of ``A_row^T`` per worker: entry (j, i) = 1/(deg(i)+1).

        The structure equals each worker's local adjacency (symmetric
        graph); only the weights change — they follow the *column*
        vertex's degree instead of the row's.
        """
        ctx = self.ctx
        degrees = np.diff(ctx.graph.adjacency.indptr).astype(np.float64)
        self.a_transposed: list[csr_matrix] = []
        for state in ctx.workers:
            sub = state.sub
            compact_to_global = np.concatenate(
                [sub.local_vertices, sub.remote_vertices]
            )
            col_global = compact_to_global[sub.indices]
            weights = (1.0 / (degrees[col_global] + 1.0)).astype(np.float32)
            # Over the index arrays a_local views: only the weights differ.
            self.a_transposed.append(
                csr_matrix(
                    (weights, sub.indices, sub.indptr),
                    shape=state.a_local.shape,
                )
            )

    def layer_param_names(self, layer: int) -> list[str]:
        return [
            weight_name(layer - 1), self_weight_name(layer - 1),
            bias_name(layer - 1),
        ]

    def layer_kernel(
        self,
        state: WorkerState,
        h_cat: np.ndarray,
        params: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
        out: np.ndarray | None = None,
    ) -> LayerForwardCache:
        aggregated = state.a_local @ h_cat
        z = (
            h_cat[:state.num_local] @ params[self_weight_name(layer - 1)]
            + aggregated @ params[weight_name(layer - 1)]
        ).astype(np.float32, copy=False)
        z += params[bias_name(layer - 1)]
        output, positive = apply_relu(z, is_last, out)
        return LayerForwardCache(
            aggregated=aggregated,
            h_cat=h_cat,
            output=output,
            transform_first=False,
            positive=positive,
        )

    def backward_local(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        del weights
        cache = state.caches[layer]
        g = state.grad_rows[layer]
        return {
            self_weight_name(layer - 1): (
                cache.h_cat[:state.num_local].T @ g
            ).astype(np.float32),
            weight_name(layer - 1): (
                cache.aggregated.T @ g
            ).astype(np.float32),
            bias_name(layer - 1): g.sum(axis=0).astype(np.float32),
        }

    def backward_reduce(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> None:
        g = state.grad_rows[layer]
        g_cat = self.grad_cat(state, layer)
        # Self path + transposed mean aggregation path.
        dh = g @ weights[self_weight_name(layer - 1)].T + (
            self.a_transposed[state.worker_id] @ g_cat
        ) @ weights[weight_name(layer - 1)].T
        # ``g`` (which the destination may alias) is consumed by now.
        state.grad_rows[layer - 1] = relu_backward(
            dh, state.caches[layer - 1].positive,
            out=self.grad_out(state, layer - 1),
        )


# ----------------------------------------------------------------------
# GAT (multi-head, head-averaging)
# ----------------------------------------------------------------------
_LEAKY_SLOPE = 0.2


def attn_src_name(layer: int, head: int = 0) -> str:
    """Parameter key of a head's source attention vector ``a_src``."""
    return f"asrc{layer}" if head == 0 else f"asrc{layer}h{head}"


def attn_dst_name(layer: int, head: int = 0) -> str:
    """Parameter key of a head's target attention vector ``a_dst``."""
    return f"adst{layer}" if head == 0 else f"adst{layer}h{head}"


def head_weight_name(layer: int, head: int = 0) -> str:
    """Parameter key of a head's transform ``W``; head 0 reuses ``W{l}``."""
    return weight_name(layer) if head == 0 else f"W{layer}h{head}"


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, _LEAKY_SLOPE * x)


def _leaky_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, 1.0, _LEAKY_SLOPE).astype(np.float32)


class _EdgeSpace:
    """Per-worker edge arrays derived from the local adjacency structure.

    Attributes:
        src: Edge source (local row id) per edge, aligned with ``col``.
        col: Edge target in the worker's compact (local + halo) space.
        num_local / num_cat: Row/column counts of the local adjacency.
    """

    def __init__(self, state: WorkerState) -> None:
        self.col = state.a_local.indices  # a view: no int64 twin per edge
        self.src = np.repeat(
            np.arange(state.num_local, dtype=self.col.dtype),
            np.diff(state.a_local.indptr),
        )
        self.num_local = state.num_local
        self.num_cat = state.num_local + state.num_halo

    def segment_softmax(self, logits: np.ndarray) -> np.ndarray:
        """Softmax of edge logits within each source vertex's edge set."""
        seg_max = np.full(self.num_local, -np.inf, dtype=np.float64)
        np.maximum.at(seg_max, self.src, logits)
        shifted = np.exp(logits - seg_max[self.src])
        seg_sum = np.zeros(self.num_local, dtype=np.float64)
        np.add.at(seg_sum, self.src, shifted)
        return (shifted / seg_sum[self.src]).astype(np.float32)


@dataclass
class _GATCache(LayerForwardCache):
    """A layer cache plus the per-head arrays the backward pass reads:
    one entry per attention head in ``u_cat``, ``logits`` (raw,
    pre-LeakyReLU scores) and ``alpha``."""

    u_cat: list[np.ndarray]
    logits: list[np.ndarray]
    alpha: list[np.ndarray]


class GATBackend(ModelBackend):
    """Multi-head, head-averaging GAT (paper section III-B).

    The forward halo exchange is the ordinary embedding fetch (so
    ReqEC-FP applies unchanged); the backward pass uses the transport's
    *reverse* exchange — consumers push partial gradients of the remote
    embeddings they attended over back to the owners (so ResEC-BP
    applies to those messages). Per layer and head ``k``, with
    ``U_k = H W_k``, attention logits
    ``r_ij = LeakyReLU(a_src_k . U_k_i + a_dst_k . U_k_j)`` over edges
    ``i <- j`` (self-loops included), attention ``alpha_k = softmax_j(r)``
    and output ``Z_i = mean_k sum_j alpha_k_ij U_k_j + b``.
    """

    name = "gat"

    def __init__(self, num_heads: int = 1) -> None:
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        self.num_heads = num_heads

    def bind(self, ctx: ExchangeContext) -> None:
        super().bind(ctx)
        # Attention (and extra-head weight) parameters join the servers
        # next to each layer's W/b. Head 0 reuses the base W so a
        # one-head GAT shares the GCN parameter layout.
        rng = np.random.default_rng(ctx.config.seed + 7)
        for layer in range(ctx.params.num_layers):
            d_in, d_out = ctx.params.dims[layer], ctx.params.dims[layer + 1]
            for head in range(self.num_heads):
                if head > 0:
                    ctx.servers.register(
                        head_weight_name(layer, head),
                        glorot_uniform((d_in, d_out), rng),
                    )
                ctx.servers.register(
                    attn_src_name(layer, head),
                    glorot_uniform((d_out,), rng) * 0.5,
                )
                ctx.servers.register(
                    attn_dst_name(layer, head),
                    glorot_uniform((d_out,), rng) * 0.5,
                )
        self.edges = [_EdgeSpace(state) for state in ctx.workers]

    def on_membership_change(self) -> None:
        self.edges = [_EdgeSpace(state) for state in self.ctx.workers]

    def layer_param_names(self, layer: int) -> list[str]:
        names = []
        for head in range(self.num_heads):
            names.extend([
                head_weight_name(layer - 1, head),
                attn_src_name(layer - 1, head),
                attn_dst_name(layer - 1, head),
            ])
        names.append(bias_name(layer - 1))
        return names

    def _head_params(
        self, params: dict[str, np.ndarray], layer: int, head: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            params[head_weight_name(layer - 1, head)],
            params[attn_src_name(layer - 1, head)],
            params[attn_dst_name(layer - 1, head)],
        )

    def grad_buffer(
        self, state: WorkerState, layer: int
    ) -> tuple[str, tuple[int, int], bool]:
        # GAT pushes dH partials instead of fetching gradient halos, so
        # every layer's G rows are purely local.
        dim = self.ctx.params.dims[layer]
        return f"g{layer}", (state.num_local, dim), False

    def buffer_lives(
        self, state: WorkerState, tl: Timeline
    ) -> list[BufferLife]:
        lives = []
        for layer in range(1, self.ctx.params.num_layers + 1):
            # backward_local reads the input and G^layer after it has
            # started writing dH.
            bpl = f"bpl{layer}"
            lives.append(self._input_life(state, tl, layer, tl.write(bpl)))
            lives.append(self._grad_life(state, tl, layer, tl.write(bpl)))
            if layer > 1:
                dim, bpr = self.ctx.params.dims[layer - 1], f"bpr{layer}"
                lives.append(BufferLife(
                    f"dh{layer}", (state.num_local + state.num_halo, dim),
                    True, tl.write(bpl), tl.read(bpr),
                ))
                lives.append(BufferLife(
                    f"acc{layer}", (state.num_local, dim), True,
                    tl.write(f"halo{layer}"), tl.read(bpr),
                ))
        return lives

    def _dh_buffer(self, state: WorkerState, layer: int) -> np.ndarray:
        """The worker's dH over ``layer``'s cat space (layers above the
        first); the reverse exchange serves its halo tail."""
        return self.ctx.workspaces.buffer(f"dh{layer}", state)

    def _pushed_buffer(self, state: WorkerState, layer: int) -> np.ndarray:
        """Where the reverse exchange sums the partials pushed to us."""
        return self.ctx.workspaces.buffer(f"acc{layer}", state)

    def layer_kernel(
        self,
        state: WorkerState,
        h_cat: np.ndarray,
        params: dict[str, np.ndarray],
        layer: int,
        is_last: bool,
        out: np.ndarray | None = None,
    ) -> _GATCache:
        edges = self.edges[state.worker_id]
        u_heads, logit_heads, alpha_heads = [], [], []
        z = None
        for head in range(self.num_heads):
            weight, a_src, a_dst = self._head_params(params, layer, head)
            u_cat = (h_cat @ weight).astype(np.float32)
            s = u_cat[:edges.num_local] @ a_src
            d = u_cat @ a_dst
            logits = s[edges.src] + d[edges.col]
            alpha = edges.segment_softmax(_leaky(logits))
            z_head = np.zeros(
                (edges.num_local, u_cat.shape[1]), dtype=np.float32
            )
            np.add.at(z_head, edges.src, alpha[:, None] * u_cat[edges.col])
            z = z_head if z is None else z + z_head
            u_heads.append(u_cat)
            logit_heads.append(logits)
            alpha_heads.append(alpha)
        z = (z / self.num_heads).astype(np.float32, copy=False)
        z += params[bias_name(layer - 1)]
        output, positive = apply_relu(z, is_last, out)
        return _GATCache(
            aggregated=None,
            h_cat=h_cat,
            output=output,
            transform_first=False,
            positive=positive,
            u_cat=u_heads,
            logits=logit_heads,
            alpha=alpha_heads,
        )

    def backward_local(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        # One worker's partial dH over the cat space (summed over
        # heads) plus its parameter-gradient shares.
        edges = self.edges[state.worker_id]
        cache = state.caches[layer]
        # Head averaging: each head sees G / num_heads.
        g = state.grad_rows[layer] / self.num_heads
        shares: dict[str, np.ndarray] = {}
        # Layer 1 has no input gradient: nothing reads its dH.
        dh = self._dh_buffer(state, layer) if layer > 1 else None
        if dh is not None:
            dh.fill(0.0)
        g_src = g[edges.src]
        for head in range(self.num_heads):
            weight = weights[head_weight_name(layer - 1, head)]
            a_src = weights[attn_src_name(layer - 1, head)]
            a_dst = weights[attn_dst_name(layer - 1, head)]
            u_cat = cache.u_cat[head]
            alpha = cache.alpha[head]
            logits = cache.logits[head]
            du = np.zeros_like(u_cat)
            u_col = u_cat[edges.col]
            # Through the weighted sum Z_i = sum alpha U_j.
            np.add.at(du, edges.col, alpha[:, None] * g_src)
            # Through the attention coefficients.
            dalpha = np.einsum("ed,ed->e", g_src, u_col)
            seg_dot = np.zeros(edges.num_local, dtype=np.float64)
            np.add.at(seg_dot, edges.src, alpha * dalpha)
            de = alpha * (dalpha - seg_dot[edges.src])
            dr = (de * _leaky_grad(logits)).astype(np.float32)
            ds = np.zeros(edges.num_local, dtype=np.float32)
            np.add.at(ds, edges.src, dr)
            dd = np.zeros(edges.num_cat, dtype=np.float32)
            np.add.at(dd, edges.col, dr)
            du[:edges.num_local] += ds[:, None] * a_src[None, :]
            du += dd[:, None] * a_dst[None, :]

            shares[attn_src_name(layer - 1, head)] = (
                ds @ u_cat[:edges.num_local]
            ).astype(np.float32)
            shares[attn_dst_name(layer - 1, head)] = (
                dd @ u_cat
            ).astype(np.float32)
            shares[head_weight_name(layer - 1, head)] = (
                cache.h_cat.T @ du
            ).astype(np.float32)
            if dh is not None:
                dh += du @ weight.T
        shares[bias_name(layer - 1)] = (
            state.grad_rows[layer].sum(axis=0)
        ).astype(np.float32)
        return shares

    def _backward_halos(self, t: int, layer: int) -> None:
        # Owners collect the halo partials of dH (the paper's
        # "embedding gradients from out-neighbors").
        ctx = self.ctx
        ctx.reverse_exchange(
            layer,
            t,
            halo_rows_of=lambda s: self._dh_buffer(s, layer)[s.num_local:],
            dim=ctx.params.dims[layer - 1],
        )

    def backward_reduce(
        self, state: WorkerState, layer: int, weights: dict[str, np.ndarray]
    ) -> None:
        del weights
        dh_total = (
            self._dh_buffer(state, layer)[:state.num_local]
            + self._pushed_buffer(state, layer)
        )
        state.grad_rows[layer - 1] = relu_backward(
            dh_total, state.caches[layer - 1].positive,
            out=self.grad_out(state, layer - 1),
        )
