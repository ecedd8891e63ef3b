"""The layer kernels before persistent layer workspaces: every result
was a fresh array (``z + bias``, ``.astype(np.float32)`` copies,
``np.concatenate``)."""

import numpy as np


class _ReferenceKernels:
    """``core/gcn_math.py`` and the SAGE / GAT backend kernels as they
    were before persistent layer workspaces."""

    @staticmethod
    def layer_forward(a_local, h_cat, weight, bias, activation, is_last,
                      transform_first=None):
        """Returns ``(aggregated, pre_activation, output)``."""
        d_in, d_out = weight.shape
        if transform_first is None:
            transform_first = d_in > d_out
        if transform_first:
            z = a_local @ (h_cat @ weight)
            aggregated = None
        else:
            aggregated = a_local @ h_cat
            z = aggregated @ weight
        if bias is not None:
            z = z + bias
        z = z.astype(np.float32)
        h = z if is_last else activation(z).astype(np.float32)
        return aggregated, z, h

    @staticmethod
    def layer_backward_inputs(a_local, g_cat, weight, pre_activation_prev,
                              activation):
        dh = (a_local @ g_cat) @ weight.T
        return (
            dh * activation.derivative(pre_activation_prev)
        ).astype(np.float32)

    @staticmethod
    def weight_gradient(aggregated, h_cat, a_local, g_local):
        if aggregated is None:
            aggregated = a_local @ h_cat
        return (aggregated.T @ g_local).astype(np.float32)

    @staticmethod
    def sage_layer_forward(a_local, num_local, h_cat, w_self, w_neigh, bias,
                           activation, is_last):
        """Returns ``(aggregated, z, output)``."""
        h_local = h_cat[:num_local]
        aggregated = a_local @ h_cat
        z = (h_local @ w_self + aggregated @ w_neigh).astype(np.float32)
        if bias is not None:
            z = z + bias
        output = z if is_last else activation(z).astype(np.float32)
        return aggregated, z, output

    @staticmethod
    def sage_backward_reduce(a_transposed, g, halo, w_self, w_neigh, z_prev,
                             activation):
        g_cat = np.concatenate([g, halo], axis=0)
        dh = g @ w_self.T + (a_transposed @ g_cat) @ w_neigh.T
        return (dh * activation.derivative(z_prev)).astype(np.float32)

    @staticmethod
    def gat_layer_forward(backend, worker, h_cat, params, layer, is_last):
        """Returns ``(z, output)`` of ``GATBackend.layer_kernel``."""
        from repro.core.models import bias_name
        from repro.engine.backends import _leaky

        edges = backend.edges[worker]
        z = None
        for head in range(backend.num_heads):
            weight, a_src, a_dst = backend._head_params(params, layer, head)
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
        z = (z / backend.num_heads).astype(np.float32)
        bias = params.get(bias_name(layer - 1))
        if bias is not None:
            z = z + bias
        output = (
            z if is_last
            else backend.ctx.params.activation(z).astype(np.float32)
        )
        return z, output

    @staticmethod
    def gat_backward_reduce(dh_local, pushed, z_prev, activation):
        dh_total = dh_local + pushed
        return (dh_total * activation.derivative(z_prev)).astype(np.float32)
