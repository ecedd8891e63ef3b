"""Unit tests for partition quality statistics."""

import numpy as np
import pytest

from repro.graph.csr import from_edge_list
from repro.graph.store import MemoryGraphStore
from repro.partition.base import Partition
from repro.partition.stats import partition_stats


@pytest.fixture
def square_graph():
    """4-cycle: 0-1-2-3-0 (symmetric)."""
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]
    return MemoryGraphStore(from_edge_list(edges, 4))


class TestStats:
    def test_edge_cut_counts_directed_arcs(self, square_graph):
        partition = Partition(np.array([0, 0, 1, 1]), 2)
        stats = partition_stats(square_graph, partition)
        # Cut undirected edges: (1,2) and (3,0) -> 4 directed arcs.
        assert stats.edge_cut == 4
        assert stats.edge_cut_ratio == pytest.approx(0.5)

    def test_no_cut_when_single_part(self, square_graph):
        partition = Partition(np.zeros(4, dtype=np.int64), 1)
        stats = partition_stats(square_graph, partition)
        assert stats.edge_cut == 0
        assert stats.avg_remote_neighbors == 0.0

    def test_remote_neighbors_avg(self, square_graph):
        partition = Partition(np.array([0, 0, 1, 1]), 2)
        stats = partition_stats(square_graph, partition)
        # Each vertex has exactly one remote neighbour.
        assert stats.avg_remote_neighbors == pytest.approx(1.0)
        assert stats.total_halo == 4

    def test_balance(self, square_graph):
        partition = Partition(np.array([0, 0, 0, 1]), 2)
        stats = partition_stats(square_graph, partition)
        assert stats.balance == pytest.approx(3 / 2)
        assert stats.max_part_size == 3
        assert stats.min_part_size == 1

    def test_mismatched_sizes_rejected(self, square_graph):
        with pytest.raises(ValueError):
            partition_stats(square_graph, Partition(np.zeros(3, dtype=np.int64), 1))

    def test_duplicate_remote_neighbor_counted_once(self):
        # Vertex 0 has two parallel-ish edges to vertex 1 (via dedup off).
        g = MemoryGraphStore(from_edge_list([(0, 1), (0, 1)], 2))
        partition = Partition(np.array([0, 1]), 2)
        stats = partition_stats(g, partition)
        assert stats.avg_remote_neighbors == pytest.approx(0.5)
