"""The layer kernels from before a hidden layer kept σ' as a mask.

Every layer kept its float32 ``Z`` and the backward pass multiplied by
``activation.derivative(Z)``. Verbatim from ``core/gcn_math.py`` and
``engine/backends.py`` as they were then: ``layer_forward`` /
``layer_backward_inputs`` with their ``LayerForwardCache``, and the GCN,
SAGE and GAT methods that call them or read ``pre_activation``, written
as functions of the backend (bind them with ``types.MethodType``). One
edit: the GCN forward passes ``z_out=None``, since a ReLU plan has no
``z{l}`` buffer any more; a fresh ``Z`` holds the same bits.
"""

from dataclasses import dataclass

import numpy as np
from repro.core.gcn_math import spmm
from repro.core.models import bias_name, weight_name
from repro.engine.backends import _leaky, self_weight_name


@dataclass
class LayerForwardCache:
    aggregated: np.ndarray | None
    h_cat: np.ndarray | None
    pre_activation: np.ndarray
    output: np.ndarray
    transform_first: bool


@dataclass
class _GATCache(LayerForwardCache):
    u_cat: list[np.ndarray]
    logits: list[np.ndarray]
    alpha: list[np.ndarray]


def layer_forward(
    a_local,
    h_cat,
    weight,
    bias,
    activation,
    is_last,
    transform_first=None,
    *,
    aggregated=None,
    aggregate_out=None,
    z_out=None,
    out=None,
):
    d_in, d_out = weight.shape
    if h_cat is not None and h_cat.shape[1] != d_in:
        raise ValueError(
            f"h_cat dim {h_cat.shape[1]} does not match weight in-dim {d_in}"
        )
    if transform_first is None:
        transform_first = d_in > d_out

    if transform_first:
        z = spmm(a_local, h_cat @ weight, z_out)
    else:
        if aggregated is None:
            aggregated = spmm(a_local, h_cat, aggregate_out)
        z = np.matmul(aggregated, weight, out=z_out)
    if bias is not None:
        z += bias
    z = z.astype(np.float32, copy=False)
    h = z if is_last else activation(z, out=out).astype(np.float32, copy=False)
    return LayerForwardCache(
        aggregated=aggregated,
        h_cat=h_cat,
        pre_activation=z,
        output=h,
        transform_first=transform_first,
    )


def layer_backward_inputs(
    a_local,
    g_cat,
    weight,
    pre_activation_prev,
    activation,
    out=None,
):
    aggregated = a_local @ g_cat
    dh = np.matmul(aggregated, weight.T, out=out)
    dh *= activation.derivative(pre_activation_prev)
    return dh.astype(np.float32, copy=False)


# -- GCNBackend ----------------------------------------------------------
def gcn_forward_layer(self, state, h_cat, pulled, layer, is_last):
    ctx = self.ctx
    ws, dims = ctx.workspaces, ctx.params.dims
    adjacency = self.adjacency(state, layer)
    transform_first = self._transform_first(layer)
    # Kernel-private Z^l and A·H_cat. A transform-first layer only
    # recomputes the aggregate transiently — except the first, whose
    # constant M^1 then serves the weight gradient.
    aggregated = aggregate_out = None
    if layer == 1 and ctx.config.cache_first_hop:
        aggregated = ws.first_aggregate(state, adjacency)
    elif not transform_first:
        aggregate_out = ws.buffer(f"m{layer}", state)
    state.caches[layer] = layer_forward(
        adjacency,
        h_cat,
        pulled[weight_name(layer - 1)],
        pulled.get(bias_name(layer - 1)),
        ctx.params.activation,
        is_last=is_last,
        transform_first=transform_first,
        aggregated=aggregated,
        aggregate_out=aggregate_out,
        z_out=None,
        out=self._out_buffer(state, layer),
    )


def gcn_backward_reduce(self, state, layer, weights):
    state.grad_rows[layer - 1] = layer_backward_inputs(
        self.transposed(state, layer),
        self.grad_cat(state, layer),
        weights[weight_name(layer - 1)],
        state.caches[layer - 1].pre_activation,
        self.ctx.params.activation,
        out=self.grad_out(state, layer - 1),
    )


# -- SAGEBackend ---------------------------------------------------------
def sage_layer_kernel(self, state, h_cat, params, layer, is_last, out=None):
    aggregated = state.a_local @ h_cat
    z = (
        h_cat[:state.num_local] @ params[self_weight_name(layer - 1)]
        + aggregated @ params[weight_name(layer - 1)]
    ).astype(np.float32, copy=False)
    bias = params.get(bias_name(layer - 1))
    if bias is not None:
        z += bias
    output = z if is_last else self.ctx.params.activation(z, out=out)
    return LayerForwardCache(
        aggregated=aggregated,
        h_cat=h_cat,
        pre_activation=z,
        output=output.astype(np.float32, copy=False),
        transform_first=False,
    )


def sage_backward_reduce(self, state, layer, weights):
    g = state.grad_rows[layer]
    g_cat = self.grad_cat(state, layer)
    # Self path + transposed mean aggregation path.
    dh = g @ weights[self_weight_name(layer - 1)].T + (
        self.a_transposed[state.worker_id] @ g_cat
    ) @ weights[weight_name(layer - 1)].T
    # ``g`` (which the destination may alias) is consumed by now.
    state.grad_rows[layer - 1] = np.multiply(
        dh,
        self.ctx.params.activation.derivative(
            state.caches[layer - 1].pre_activation
        ),
        out=self.grad_out(state, layer - 1),
    )


# -- GATBackend ----------------------------------------------------------
def gat_layer_kernel(self, state, h_cat, params, layer, is_last, out=None):
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
    bias = params.get(bias_name(layer - 1))
    if bias is not None:
        z += bias
    output = z if is_last else self.ctx.params.activation(z, out=out)
    return _GATCache(
        aggregated=None,
        h_cat=h_cat,
        pre_activation=z,
        output=output.astype(np.float32, copy=False),
        transform_first=False,
        u_cat=u_heads,
        logits=logit_heads,
        alpha=alpha_heads,
    )


def gat_backward_reduce(self, state, layer, weights):
    del weights
    dh_total = (
        self._dh_buffer(state, layer)[:state.num_local]
        + self._pushed_buffer(state, layer)
    )
    state.grad_rows[layer - 1] = np.multiply(
        dh_total,
        self.ctx.params.activation.derivative(
            state.caches[layer - 1].pre_activation
        ),
        out=self.grad_out(state, layer - 1),
    )


# Backend name -> the methods to bind over the current ones.
METHODS = {
    "gcn": {"forward_layer": gcn_forward_layer,
            "backward_reduce": gcn_backward_reduce},
    "sage": {"layer_kernel": sage_layer_kernel,
             "backward_reduce": sage_backward_reduce},
    "gat": {"layer_kernel": gat_layer_kernel,
            "backward_reduce": gat_backward_reduce},
}
