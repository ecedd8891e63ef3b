"""Unit tests for subgraph extraction (graph-centered and ML-centered views)."""

import numpy as np
import pytest

from repro.baselines.ml_centered import capped_khop_subgraph
from repro.graph.csr import from_edge_list
from repro.graph.store import MemoryGraphStore
from repro.graph.subgraph import induced_subgraph


@pytest.fixture
def path_graph():
    """0 - 1 - 2 - 3 - 4 (symmetric path)."""
    edges = []
    for v in range(4):
        edges.append((v, v + 1))
        edges.append((v + 1, v))
    return MemoryGraphStore(from_edge_list(edges, 5))


class TestInducedSubgraph:
    def test_local_and_remote_split(self, path_graph):
        sub = induced_subgraph(path_graph, np.array([0, 1]))
        np.testing.assert_array_equal(sub.local_vertices, [0, 1])
        np.testing.assert_array_equal(sub.remote_vertices, [2])
        assert sub.num_local == 2 and sub.num_remote == 1

    def test_compact_ids_local_first(self, path_graph):
        sub = induced_subgraph(path_graph, np.array([1, 2]))
        assert sub.global_to_compact[1] == 0
        assert sub.global_to_compact[2] == 1
        # Remote vertices 0 and 3, sorted, take compact ids 2 and 3.
        assert sub.global_to_compact[0] == 2
        assert sub.global_to_compact[3] == 3

    def test_all_local_edges_kept(self, path_graph):
        sub = induced_subgraph(path_graph, np.array([1, 2]))
        # Vertex 1's row: neighbours 0 (remote) and 2 (local).
        row1 = sub.indices[sub.indptr[0]:sub.indptr[1]]
        assert set(row1.tolist()) == {sub.global_to_compact[0],
                                      sub.global_to_compact[2]}

    def test_whole_graph_has_no_remote(self, path_graph):
        sub = induced_subgraph(path_graph, np.arange(5))
        assert sub.num_remote == 0
        assert sub.num_edges == path_graph.num_edges

    def test_duplicate_locals_rejected(self, path_graph):
        with pytest.raises(ValueError, match="duplicates"):
            induced_subgraph(path_graph, np.array([0, 0]))

    def test_weights_follow_edges(self, path_graph):
        from repro.graph.normalize import normalized_adjacency

        normalized = normalized_adjacency(path_graph)
        sub = induced_subgraph(normalized, np.array([1, 2]))
        assert sub.weights is not None
        assert sub.weights.shape == sub.indices.shape
        # Weight of edge 1->2 in the subgraph equals the global weight.
        dense = normalized.to_csr().to_scipy().toarray()
        row1 = slice(sub.indptr[0], sub.indptr[1])
        for col, w in zip(sub.indices[row1], sub.weights[row1]):
            global_col = (
                sub.local_vertices[col]
                if col < sub.num_local
                else sub.remote_vertices[col - sub.num_local]
            )
            assert w == pytest.approx(dense[1, global_col], abs=1e-6)

    def test_compact_ids_helper(self, path_graph):
        sub = induced_subgraph(path_graph, np.array([0, 1]))
        np.testing.assert_array_equal(
            sub.compact_ids(np.array([1, 2])), [1, 2]
        )


class TestKHopGrowth:
    def test_growth_matches_table2_direction(self, medium_graph):
        """More hops -> strictly more cached vertices (the g^L blowup)."""
        adjacency = medium_graph.adjacency.to_csr()
        targets = np.array([0, 1, 2])
        uncapped = medium_graph.num_vertices
        sizes = [
            capped_khop_subgraph(
                adjacency, targets, [uncapped] * hops,
                np.random.default_rng(0),
            )[0].size
            for hops in (1, 2, 3)
        ]
        assert sizes[0] < sizes[1] <= sizes[2]
