"""Shared fixtures: small deterministic graphs and cluster specs, and
the verbatim-parent oracles of ``tests/oracles/``."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import codec, csr, kernels, partitioners, reqec, subgraph
from repro.cluster.topology import ClusterSpec
from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.store.base import GraphStoreBundle
from repro.graph.streaming import stream_graph


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
def small_graph() -> GraphStoreBundle:
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
    return stream_graph(spec)


@pytest.fixture
def medium_graph() -> GraphStoreBundle:
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
    return stream_graph(spec)


@pytest.fixture
def cluster3() -> ClusterSpec:
    return ClusterSpec(num_workers=3, num_servers=1)


@pytest.fixture
def cluster2() -> ClusterSpec:
    return ClusterSpec(num_workers=2, num_servers=2)


# ----------------------------------------------------------------------
# Verbatim-parent oracles (tests/oracles/) as fixtures.
# ----------------------------------------------------------------------
@pytest.fixture
def reference_pack_bits():
    return codec._reference_pack_bits


@pytest.fixture
def reference_unpack_bits():
    return codec._reference_unpack_bits


@pytest.fixture
def reference_encode_ids():
    return codec._reference_encode_ids


@pytest.fixture
def reference_decode():
    return codec._reference_decode


@pytest.fixture
def reference_kernels():
    return kernels._ReferenceKernels


class _ReferenceSetup:
    """The parent commit's set-up path."""

    MetisLikePartitioner = partitioners._ReferenceMetisLikePartitioner
    induced_subgraph = staticmethod(subgraph._reference_induced_subgraph)
    build_worker_states = staticmethod(subgraph._reference_build_worker_states)
    with_self_loops = staticmethod(csr._reference_with_self_loops)


@pytest.fixture(scope="session")
def reference_setup():
    return _ReferenceSetup


@pytest.fixture(scope="session")
def reference_reqec_policy():
    """The pre-change ReqEC-FP policy class (ships ``M_cr``)."""
    return reqec.ReferenceReqECPolicy


@pytest.fixture(scope="session")
def per_channel_reqec_policy():
    """The ReqEC-FP policy with per-channel trend state (verbatim parent)."""
    return reqec.PerChannelReqECPolicy
