"""Unit tests for GCN/row adjacency normalization."""

import numpy as np
import pytest

from oracles import assert_same_as_parent
from oracles._graph import to_scipy
from oracles.normalize import gcn_normalize, row_normalize
from repro.graph.csr import from_edge_list
from repro.graph.normalize import normalized_adjacency
from repro.graph.store.memory import MemoryGraphStore
from repro.graph.store.normalized import NormalizedGraphStore


def _normalized(graph, scheme="gcn"):
    return normalized_adjacency(MemoryGraphStore(graph), scheme).to_csr()


def _dense(graph):
    return to_scipy(graph).toarray()


class TestGCNNormalize:
    def test_matches_dense_formula(self, ring_graph):
        normalized = _normalized(ring_graph)
        a = _dense(ring_graph.with_self_loops())
        d = a.sum(axis=1)
        expected = a / np.sqrt(np.outer(d, d))
        np.testing.assert_allclose(_dense(normalized), expected, atol=1e-6)

    def test_symmetric_input_gives_symmetric_output(self, ring_graph):
        dense = _dense(_normalized(ring_graph))
        np.testing.assert_allclose(dense, dense.T, atol=1e-6)

    def test_isolated_vertex_keeps_unit_self_loop(self):
        g = from_edge_list([(0, 1), (1, 0)], num_vertices=3)
        dense = _dense(_normalized(g))
        assert dense[2, 2] == pytest.approx(1.0)

    def test_row_sums_at_most_one(self, ring_graph):
        dense = _dense(_normalized(ring_graph))
        assert dense.sum(axis=1).max() <= 1.0 + 1e-6

    def test_existing_self_loop_is_not_doubled(self):
        g = from_edge_list([(0, 0), (0, 1), (1, 0)], num_vertices=2)
        normalized = _normalized(g)
        assert normalized.num_edges == 4
        assert _dense(normalized)[0, 0] == pytest.approx(1.0 / 2.0)

    def test_spectral_radius_at_most_one(self, ring_graph):
        dense = _dense(_normalized(ring_graph))
        eigenvalues = np.linalg.eigvalsh(dense)
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-6


class TestRowNormalize:
    def test_rows_sum_to_one(self, ring_graph):
        dense = _dense(_normalized(ring_graph, "row"))
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_degree_row_keeps_unit_self_loop(self):
        g = from_edge_list([(0, 1)], num_vertices=3)
        dense = _dense(_normalized(g, "row"))
        assert dense[2].tolist() == [0.0, 0.0, 1.0]

    def test_self_loops_included(self, ring_graph):
        assert np.diag(_dense(_normalized(ring_graph, "row"))).min() > 0


class TestRegistry:
    @pytest.mark.parametrize("scheme, eager", [
        ("gcn", gcn_normalize), ("row", row_normalize),
    ])
    def test_bit_identical_to_the_eager_oracle(self, ring_graph, scheme, eager):
        assert_same_as_parent(
            _normalized(ring_graph, scheme),
            eager(ring_graph, add_self_loops=True),
        )

    def test_returns_a_lazy_store_view(self, ring_graph):
        store = MemoryGraphStore(ring_graph)
        assert isinstance(normalized_adjacency(store), NormalizedGraphStore)

    def test_row_scheme_includes_loops(self, ring_graph):
        dense = _dense(_normalized(ring_graph, "row"))
        np.testing.assert_allclose(dense.sum(axis=1), 1.0, atol=1e-6)
        assert np.diag(dense).min() > 0

    def test_unknown_scheme(self, ring_graph):
        with pytest.raises(KeyError, match="gcn"):
            normalized_adjacency(MemoryGraphStore(ring_graph), "laplacian")
