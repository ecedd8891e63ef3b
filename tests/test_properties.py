"""Cross-cutting hypothesis property tests.

These verify structural invariants that every subsystem relies on, over
randomly generated graphs and matrices rather than hand-picked cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles._graph import to_scipy

from repro.compression.quantization import SUPPORTED_BITS
from repro.core.bit_tuner import BitTuner
from repro.graph.csr import from_edge_list
from repro.graph.normalize import normalized_adjacency
from repro.graph.store.memory import MemoryGraphStore
from repro.graph.subgraph import induced_subgraph
from repro.partition.hashing import HashPartitioner
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.stats import partition_stats


@st.composite
def random_graph(draw, max_vertices=40, max_edges=120):
    """A random directed graph as (num_vertices, edge array)."""
    n = draw(st.integers(2, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


@st.composite
def symmetric_graph(draw, max_vertices=30, max_edges=80):
    """A random symmetric graph (both arcs stored, deduplicated)."""
    n, edges = draw(random_graph(max_vertices, max_edges))
    if edges.size:
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
    else:
        both = edges
    return n, both


class TestCSRProperties:
    @given(data=random_graph())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_preserved(self, data):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        unique = {(int(a), int(b)) for a, b in edges}
        assert graph.num_edges == len(unique)
        assert set(zip(graph.sources().tolist(), graph.indices.tolist())) == unique

    @given(data=random_graph())
    @settings(max_examples=60, deadline=None)
    def test_degrees_sum_to_edges(self, data):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        assert int(np.sum(graph.degree())) == graph.num_edges


def _dense_normalized(graph, scheme="gcn"):
    store = normalized_adjacency(MemoryGraphStore(graph), scheme)
    return to_scipy(store.to_csr()).toarray()


class TestNormalizationProperties:
    @given(data=symmetric_graph())
    @settings(max_examples=40, deadline=None)
    def test_gcn_spectral_radius_bounded_by_one(self, data):
        # Row sums of D^{-1/2}(A+I)D^{-1/2} can exceed 1 on irregular
        # graphs (hubs with leaf neighbours); the invariant that makes
        # stacked GCN layers stable is the spectral radius <= 1.
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        dense = _dense_normalized(graph)
        eigenvalues = np.linalg.eigvalsh((dense + dense.T) / 2)
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-4
        assert (dense >= 0).all()

    @given(data=symmetric_graph())
    @settings(max_examples=40, deadline=None)
    def test_gcn_preserves_symmetry(self, data):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        dense = _dense_normalized(graph)
        np.testing.assert_allclose(dense, dense.T, atol=1e-5)

    @given(data=random_graph())
    @settings(max_examples=40, deadline=None)
    def test_row_normalize_stochastic(self, data):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        sums = _dense_normalized(graph, "row").sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-5)


class TestPartitionProperties:
    @given(
        data=symmetric_graph(),
        parts=st.integers(1, 5),
        method=st.sampled_from(["hash", "metis"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_is_total_function(self, data, parts, method):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        partitioner = {
            "hash": HashPartitioner(),
            "metis": MetisLikePartitioner(seed=0, coarsen_until=8),
        }[method]
        partition = partitioner.partition(MemoryGraphStore(graph), parts)
        assert partition.num_vertices == n
        covered = np.concatenate(
            [partition.part_vertices(p) for p in range(parts)]
        )
        assert len(covered) == n
        assert len(np.unique(covered)) == n

    @given(data=symmetric_graph(), parts=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_edge_cut_bounds(self, data, parts):
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        store = MemoryGraphStore(graph)
        stats = partition_stats(store, HashPartitioner().partition(store, parts))
        assert 0 <= stats.edge_cut <= graph.num_edges
        assert 0.0 <= stats.edge_cut_ratio <= 1.0


class TestSubgraphProperties:
    @given(data=symmetric_graph(), parts=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_halo_union_covers_cut_edges(self, data, parts):
        """Every cut-edge target appears in exactly the right halo."""
        n, edges = data
        graph = from_edge_list(edges, n, deduplicate=True)
        store = MemoryGraphStore(graph)
        partition = HashPartitioner().partition(store, parts)
        for part in range(parts):
            local = partition.part_vertices(part)
            sub = induced_subgraph(store, local)
            expected_remote = set()
            local_set = set(local.tolist())
            for v in local:
                for u in graph.neighbors(int(v)):
                    if int(u) not in local_set:
                        expected_remote.add(int(u))
            assert set(sub.remote_vertices.tolist()) == expected_remote
            assert sub.num_edges == sum(
                graph.degree(int(v)) for v in local
            )


class TestBitTunerProperties:
    @given(
        proportions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        start=st.sampled_from(SUPPORTED_BITS),
    )
    @settings(max_examples=60, deadline=None)
    def test_widths_stay_on_ladder(self, proportions, start):
        tuner = BitTuner(initial_bits=start)
        pair = (0, 1)
        for p in proportions:
            width = tuner.update(pair, p)
            assert width in SUPPORTED_BITS

    @given(proportions=st.lists(st.floats(0.0, 0.39), min_size=10,
                                max_size=10))
    @settings(max_examples=20, deadline=None)
    def test_sustained_low_proportion_reaches_floor(self, proportions):
        tuner = BitTuner(initial_bits=16)
        pair = (0, 1)
        for p in proportions:
            tuner.update(pair, p)
        assert tuner.bits(pair) == 1
