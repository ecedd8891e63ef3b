"""The GCN forward/backward linear algebra (paper Eqs. 2-6).

These are the *local* kernels each worker runs between communication
steps. ``A_local`` is the worker's slice of the normalized adjacency: a
``(num_local, num_local + num_halo)`` sparse matrix whose columns follow
the worker's compact vertex order (local vertices first, then the halo).

Forward (Eq. 2-3), with the DGL-style ordering optimization the paper
adopts (compute ``X W`` first when the input dimension is larger):

    M^l = A_local @ H_cat          (aggregate)        [aggregate-first]
    Z^l = M^l @ W + b
  or
    Z^l = A_local @ (H_cat @ W) + b                   [transform-first]

Backward (Eq. 4-6), using that the graphs here are symmetric so
``A^T = A``:

    G^L = dL/dZ^L                           (from the loss)
    dH^{l-1}_local = A_local @ G_cat^l  ... then  @ W^T, Hadamard sigma'
    Y^{l-1} = (M^l)^T G^l   where  M^l = A H^{l-1}    (weight gradient)
    grad_b  = sum_rows(G^l)

Every hidden layer is ReLU (the paper's ``sigma``) after a learned bias.
It keeps what ``sigma'(Z^l)`` reads, the one-byte mask ``Z^l > 0``, and
activates ``Z^l`` in place (:func:`apply_relu`); the last layer's output
is its logits ``Z^L``.

Kernels take optional destination buffers (the engine's persistent
layer workspaces); without them results are allocated. Either way the
arithmetic is the same IEEE operations in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
# scipy's spmm kernel: ``a @ x`` is this call on a fresh np.zeros result.
from scipy.sparse._sparsetools import csr_matvecs

__all__ = ["LayerForwardCache", "apply_relu", "relu_backward",
           "layer_forward", "layer_backward_inputs", "weight_gradient",
           "bias_gradient", "spmm"]


def spmm(
    a: csr_matrix, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ x``, into ``out`` if scipy would have made that very array
    (dtypes, shape, C order); use the return value, not ``out``."""
    if (
        out is None
        or not out.flags.c_contiguous
        or out.shape != (a.shape[0], x.shape[1])
        or not a.dtype == x.dtype == out.dtype
    ):
        return a @ x
    out.fill(0.0)
    csr_matvecs(
        a.shape[0], a.shape[1], x.shape[1], a.indptr, a.indices, a.data,
        x.ravel(), out.ravel(),
    )
    return out


@dataclass
class LayerForwardCache:
    """Per-layer forward state a worker keeps for the backward pass.

    Arrays may be workspace views the next iteration overwrites.

    Attributes:
        aggregated: ``M^l = A_local @ H_cat`` — stored when the
            aggregate-first ordering ran or the caller supplied it;
            otherwise ``None`` under transform-first (the weight
            gradient then recomputes it from ``h_cat``).
        h_cat: The concatenated input ``H_cat^{l-1}`` (local + halo rows);
            None when only the supplied aggregate was read.
        output: ``H^l`` for the local vertices (on the last layer, the
            logits ``Z^L``).
        transform_first: Which ordering produced this cache.
        positive: The bool mask ``Z^l > 0`` a hidden layer keeps for
            ``sigma'`` (:func:`relu_backward`); None on the last layer.
    """

    aggregated: np.ndarray | None
    h_cat: np.ndarray | None
    output: np.ndarray
    transform_first: bool
    positive: np.ndarray | None


def apply_relu(
    z: np.ndarray,
    is_last: bool,
    out: np.ndarray | None = None,
    positive_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``H = relu(Z)`` and the mask ``sigma'`` will read, as
    ``(output, positive)`` for a :class:`LayerForwardCache`.

    The last layer's logits are ``Z`` itself. A hidden layer records the
    mask ``Z > 0`` (into ``positive_out`` when given) and activates into
    ``out`` — which may be ``Z`` itself — or over ``Z`` when ``out`` is
    None: ``Z`` is not kept.
    """
    if is_last:
        return z, None
    positive = np.greater(z, 0.0, out=positive_out)
    return np.maximum(z, 0.0, out=z if out is None else out), positive


def relu_backward(
    dh: np.ndarray, positive: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``dh * relu'(Z)`` into ``out`` (``dh`` itself when None), read off
    the mask ``positive = Z > 0`` the forward kept."""
    return np.multiply(dh, positive, out=dh if out is None else out)


def layer_forward(
    a_local: csr_matrix,
    h_cat: np.ndarray | None,
    weight: np.ndarray,
    bias: np.ndarray,
    is_last: bool,
    transform_first: bool | None = None,
    *,
    aggregated: np.ndarray | None = None,
    aggregate_out: np.ndarray | None = None,
    z_out: np.ndarray | None = None,
    out: np.ndarray | None = None,
    positive_out: np.ndarray | None = None,
) -> LayerForwardCache:
    """Run one GCN layer on a worker's local vertices.

    Args:
        a_local: ``(n_local, n_local + n_halo)`` normalized adjacency rows.
        h_cat: ``(n_local + n_halo, d_in)`` concatenated embeddings;
            may be None under aggregate-first when ``aggregated`` is given.
        weight: ``(d_in, d_out)``.
        bias: ``(d_out,)``.
        is_last: The last layer skips the ReLU: its logits go straight
            into softmax cross-entropy.
        transform_first: Force an ordering; ``None`` picks the cheaper one
            (``d_in > d_out`` => transform first), mirroring DGL.
        aggregated: A precomputed ``A_local @ h_cat`` (the first layer's
            is constant while its inputs are); saves the aggregate-first
            spmm and the transform-first weight-gradient recompute.
        aggregate_out / z_out / out: Correctly shaped float32
            destinations for ``M^l``, ``Z^l`` and ``H^l`` (float32
            operands only); ``out`` is ignored on the last layer, whose
            output *is* ``Z^l``. A hidden layer given ``out`` writes
            ``Z^l`` straight into it and activates it there: ``z_out``
            is not used.
        positive_out: Bool destination for that layer's mask ``Z^l > 0``.
    """
    d_in, d_out = weight.shape
    if h_cat is not None and h_cat.shape[1] != d_in:
        raise ValueError(
            f"h_cat dim {h_cat.shape[1]} does not match weight in-dim {d_in}"
        )
    if transform_first is None:
        transform_first = d_in > d_out
    if out is not None and not is_last:
        # The input is consumed before Z is written: Z^l goes into the
        # output head and is activated there.
        z_out = out

    if transform_first:
        z = spmm(a_local, h_cat @ weight, z_out)
    else:
        if aggregated is None:
            aggregated = spmm(a_local, h_cat, aggregate_out)
        z = np.matmul(aggregated, weight, out=z_out)
    z += bias
    z = z.astype(np.float32, copy=False)
    h, positive = apply_relu(z, is_last, out, positive_out)
    return LayerForwardCache(
        aggregated=aggregated,
        h_cat=h_cat,
        output=h,
        transform_first=transform_first,
        positive=positive,
    )


def layer_backward_inputs(
    a_local: csr_matrix,
    g_cat: np.ndarray,
    weight: np.ndarray,
    positive: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Propagate ``G^l`` one layer down: Eq. 5 for the local vertices.

    Args:
        a_local: Local adjacency rows (symmetric graph, so it also plays
            the role of ``A^T`` rows).
        g_cat: ``(n_local + n_halo, d_out)`` concatenated ``G^l`` rows —
            local rows first, then halo rows fetched from the owners.
        weight: ``W^{l-1}`` mapping ``d_in -> d_out``.
        positive: The mask ``Z^{l-1} > 0`` layer ``l - 1`` kept for
            the local vertices (``LayerForwardCache.positive``).
        out: Float32 destination for ``G^{l-1}``. It may be the local
            rows of ``g_cat`` itself: ``g_cat`` is fully consumed by the
            spmm before anything is written.

    Returns:
        ``G^{l-1}`` rows for the local vertices.
    """
    aggregated = a_local @ g_cat
    dh = np.matmul(aggregated, weight.T, out=out)
    relu_backward(dh, positive)
    return dh.astype(np.float32, copy=False)


def weight_gradient(
    cache: LayerForwardCache,
    a_local: csr_matrix,
    g_local: np.ndarray,
) -> np.ndarray:
    """Worker-local share of ``Y^{l-1} = (A H^{l-1})^T G^l`` (Eq. 6).

    Under aggregate-first the forward cached ``M^l = A_local H_cat``
    directly; under transform-first it is recomputed sparsely here. The
    full gradient is the sum of these shares across workers, which the
    parameter servers perform.
    """
    aggregated = cache.aggregated
    if aggregated is None:
        aggregated = a_local @ cache.h_cat
    return (aggregated.T @ g_local).astype(np.float32)


def bias_gradient(g_local: np.ndarray) -> np.ndarray:
    """Worker-local share of the bias gradient: column sums of ``G^l``."""
    return g_local.sum(axis=0).astype(np.float32)
