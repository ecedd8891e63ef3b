"""Shared fixtures: small deterministic graphs and cluster specs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.graph.attributed import AttributedGraph
from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.generators import GraphSpec, generate_graph


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def tiny_csr() -> CSRGraph:
    """A 5-vertex directed graph with a known edge list.

    Edges: 0->1, 0->2, 1->2, 2->0, 3->4, 4->3 (vertex order preserved).
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (4, 3)]
    return from_edge_list(edges, num_vertices=5)


@pytest.fixture
def ring_graph() -> CSRGraph:
    """A symmetric 8-cycle (both arcs stored)."""
    n = 8
    edges = []
    for v in range(n):
        edges.append((v, (v + 1) % n))
        edges.append(((v + 1) % n, v))
    return from_edge_list(edges, num_vertices=n, deduplicate=True)


@pytest.fixture
def small_graph() -> AttributedGraph:
    """A 96-vertex planted-partition graph that GCN learns quickly."""
    spec = GraphSpec(
        name="unit-small",
        num_vertices=96,
        avg_degree=6.0,
        feature_dim=12,
        num_classes=3,
        homophily=0.9,
        feature_noise=0.8,
        train=40,
        val=16,
        test=32,
        seed=7,
    )
    return generate_graph(spec)


@pytest.fixture
def medium_graph() -> AttributedGraph:
    """A 256-vertex, higher-degree graph for integration tests."""
    spec = GraphSpec(
        name="unit-medium",
        num_vertices=256,
        avg_degree=14.0,
        feature_dim=16,
        num_classes=4,
        homophily=0.88,
        feature_noise=1.0,
        power_law=2.0,
        train=100,
        val=40,
        test=80,
        seed=11,
    )
    return generate_graph(spec)


@pytest.fixture
def cluster3() -> ClusterSpec:
    return ClusterSpec(num_workers=3, num_servers=1)


@pytest.fixture
def cluster2() -> ClusterSpec:
    return ClusterSpec(num_workers=2, num_servers=2)


# ----------------------------------------------------------------------
# Pre-rewrite codec arithmetic, kept verbatim as differential references
# for the narrow-id quantizer (packing references live in
# ``repro.bench.reference``).
# ----------------------------------------------------------------------
def _reference_encode_ids(bits, matrix, lo=None, hi=None):
    """Verbatim copy of ``BucketQuantizer.encode_ids`` before the
    narrow-dtype rewrite: float32 -> int64 -> integer clip -> uint32."""
    data = np.asarray(matrix, dtype=np.float32)
    buckets = 1 << bits
    if data.size == 0:
        return np.zeros(0, dtype=np.uint32)
    domain_lo = float(data.min()) if lo is None else float(lo)
    domain_hi = float(data.max()) if hi is None else float(hi)
    span = domain_hi - domain_lo
    if span <= 0.0:
        return np.zeros(data.size, dtype=np.uint32)
    width = span / buckets
    scaled = (data.ravel() - domain_lo) / width
    return np.clip(scaled.astype(np.int64), 0, buckets - 1).astype(np.uint32)


def _reference_decode(quantized):
    """Verbatim copy of ``QuantizedMatrix.decode`` before the rewrite,
    over the original bit-matrix unpack."""
    from repro.bench.reference import unpack_bits_reference

    ids = unpack_bits_reference(
        quantized.packed, quantized.bits, quantized.num_elements
    )
    return quantized.bucket_values[ids].reshape(quantized.shape).astype(
        np.float32
    )


@pytest.fixture
def reference_encode_ids():
    return _reference_encode_ids


@pytest.fixture
def reference_decode():
    return _reference_decode


# ----------------------------------------------------------------------
# Pre-workspace layer kernels, kept verbatim as differential references
# for the ``out=`` / in-place rewrite: every result was a fresh array
# (``z + bias``, ``.astype(np.float32)`` copies, ``np.concatenate``).
# ----------------------------------------------------------------------
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
        """Returns ``(z, output)`` of ``GATBackend.gat_layer_forward``."""
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


@pytest.fixture
def reference_kernels():
    return _ReferenceKernels
