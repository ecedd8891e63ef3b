"""Unit tests for the CSR graph structure."""

import numpy as np
import pytest

from repro.graph.csr import CSRGraph, from_edge_list


def _edges(graph: CSRGraph) -> set[tuple[int, int]]:
    return set(zip(graph.sources().tolist(), graph.indices.tolist()))


class TestConstruction:
    def test_from_edge_list_basic(self, tiny_csr):
        assert tiny_csr.num_vertices == 5
        assert tiny_csr.num_edges == 6
        np.testing.assert_array_equal(tiny_csr.neighbors(0), [1, 2])
        np.testing.assert_array_equal(tiny_csr.neighbors(3), [4])

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=3)
        assert g.num_edges == 0
        assert g.degree(0) == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 5)], num_vertices=3)

    def test_deduplicate(self):
        g = from_edge_list([(0, 1), (0, 1), (1, 0)], 2, deduplicate=True)
        assert g.num_edges == 2

    def test_weights_preserved_through_sorting(self):
        # Edges given out of source order; weights must follow them.
        edges = [(2, 0), (0, 1), (1, 2)]
        weights = [0.3, 0.1, 0.2]
        g = from_edge_list(edges, 3, weights=weights)
        assert g.edge_weights(0)[0] == pytest.approx(0.1)
        assert g.edge_weights(2)[0] == pytest.approx(0.3)

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list([(0, 1)], 2, weights=[0.5, 0.5])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]))


class TestQueries:
    def test_degree_vector(self, tiny_csr):
        np.testing.assert_array_equal(tiny_csr.degree(), [2, 1, 1, 1, 1])

    def test_average_degree(self, tiny_csr):
        assert tiny_csr.average_degree == pytest.approx(6 / 5)

    def test_sources_align_with_indices(self, tiny_csr):
        edges = _edges(tiny_csr)
        assert (0, 1) in edges and (4, 3) in edges and (2, 1) not in edges
        assert len(edges) == 6

    def test_edge_weights_default_ones(self, tiny_csr):
        np.testing.assert_array_equal(tiny_csr.edge_weights(0), [1.0, 1.0])


class TestSelfLoops:
    def test_adds_missing_loops(self, tiny_csr):
        g = tiny_csr.with_self_loops()
        assert g.num_edges == tiny_csr.num_edges + 5
        assert {(v, v) for v in range(5)} <= _edges(g)

    def test_idempotent(self, tiny_csr):
        once = tiny_csr.with_self_loops()
        twice = once.with_self_loops()
        assert twice.num_edges == once.num_edges

    def test_existing_loop_kept_once(self):
        g = from_edge_list([(0, 0), (0, 1)], 2)
        with_loops = g.with_self_loops()
        assert with_loops.num_edges == 3  # adds only vertex 1's loop

    def test_new_loops_weight_one(self):
        g = from_edge_list([(0, 1)], 2, weights=[0.25])
        looped = g.with_self_loops()
        row0 = dict(zip(looped.neighbors(0), looped.edge_weights(0)))
        assert row0[0] == pytest.approx(1.0)
        assert row0[1] == pytest.approx(0.25)
