"""Unit tests for the two partitioners."""

import numpy as np
import pytest

from repro.graph.csr import from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.store import MemoryGraphStore
from repro.graph.streaming import stream_graph
from repro.partition import (
    HashPartitioner,
    MetisLikePartitioner,
    Partition,
    Partitioner,
    make_partitioner,
    partition_stats,
    partitioner_names,
)


@pytest.fixture
def community_graph():
    """Two dense planted communities: locality-aware partitioners should
    cut far fewer edges than hash."""
    spec = GraphSpec(
        name="two-communities",
        num_vertices=200,
        avg_degree=10.0,
        feature_dim=4,
        num_classes=2,
        homophily=0.97,
        seed=3,
    )
    return stream_graph(spec).adjacency


ALL_PARTITIONERS = [
    HashPartitioner(),
    MetisLikePartitioner(seed=0),
]


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                         ids=lambda p: p.name)
class TestInvariants:
    def test_every_vertex_assigned(self, partitioner, community_graph):
        partition = partitioner.partition(community_graph, 4)
        assert partition.num_vertices == community_graph.num_vertices
        assert (partition.assignment >= 0).all()
        assert (partition.assignment < 4).all()

    def test_parts_cover_disjointly(self, partitioner, community_graph):
        partition = partitioner.partition(community_graph, 3)
        seen = np.concatenate(
            [partition.part_vertices(p) for p in range(3)]
        )
        assert len(seen) == community_graph.num_vertices
        assert len(np.unique(seen)) == community_graph.num_vertices

    def test_reasonable_balance(self, partitioner, community_graph):
        partition = partitioner.partition(community_graph, 4)
        stats = partition_stats(community_graph, partition)
        assert stats.balance < 1.6

    def test_single_part(self, partitioner, community_graph):
        partition = partitioner.partition(community_graph, 1)
        assert (partition.assignment == 0).all()

    def test_records_time(self, partitioner, community_graph):
        partition = partitioner.partition(community_graph, 2)
        assert partition.seconds >= 0.0


@pytest.mark.parametrize("name", ["hash", "metis"])
class TestDegenerateInputs:
    """Every partitioner rejects a non-positive part count the same way,
    before touching the graph, and accepts the degenerate graphs."""

    @pytest.mark.parametrize("num_parts", [0, -1])
    def test_non_positive_part_count_rejected(self, name, num_parts):
        class Untouchable:
            def __getattr__(self, attribute):
                raise AssertionError(f"graph.{attribute} read before the check")

        with pytest.raises(ValueError, match="num_parts must be positive"):
            make_partitioner(name).partition(Untouchable(), num_parts)

    def test_empty_graph(self, name):
        empty = MemoryGraphStore(from_edge_list([], 0))
        partition = make_partitioner(name).partition(empty, 3)
        assert partition.num_vertices == 0
        assert partition.num_parts == 3
        assert partition.part_sizes().tolist() == [0, 0, 0]

    def test_all_isolated_vertices(self, name):
        isolated = MemoryGraphStore(from_edge_list([], 7))
        partition = make_partitioner(name).partition(isolated, 3)
        assert partition.num_vertices == 7
        assert partition.part_sizes().sum() == 7

    def test_more_parts_than_vertices(self, name):
        path = MemoryGraphStore(from_edge_list([(0, 1), (1, 0), (1, 2), (2, 1)], 4))
        partition = make_partitioner(name).partition(path, 9)
        assert partition.num_parts == 9
        assert partition.part_sizes().sum() == 4
        # Nobody shares a part when there are parts to spare.
        assert partition.part_sizes().max() == 1


@pytest.mark.parametrize("partitioner", ALL_PARTITIONERS,
                         ids=lambda p: p.name)
class TestOnePartitionSkeleton:
    """``Partitioner.partition`` validates, times and wraps; a method
    writes only ``_assign``."""

    def test_method_writes_only_the_assignment(self, partitioner):
        assert isinstance(partitioner, Partitioner)
        assert "partition" not in vars(type(partitioner))
        assert "_assign" in vars(type(partitioner))

    def test_result_names_its_method(self, partitioner, community_graph):
        for num_parts in (1, 3):
            partition = partitioner.partition(community_graph, num_parts)
            assert partition.method == partitioner.name
            assert partition.num_parts == num_parts


def test_partitioning_reads_the_clock_in_one_place():
    import ast
    from pathlib import Path

    import repro.partition

    reads = {}
    for path in sorted(Path(repro.partition.__file__).parent.glob("*.py")):
        calls = [
            node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "perf_counter"
        ]
        if calls:
            reads[path.name] = len(calls)
    assert reads == {"base.py": 2}


class TestHash:
    def test_round_robin_without_salt(self, community_graph):
        partition = HashPartitioner().partition(community_graph, 3)
        np.testing.assert_array_equal(
            partition.assignment[:6], [0, 1, 2, 0, 1, 2]
        )

    def test_salt_changes_assignment(self, community_graph):
        a = HashPartitioner(salt=0).partition(community_graph, 3)
        b = HashPartitioner(salt=7).partition(community_graph, 3)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_perfect_balance(self, community_graph):
        partition = HashPartitioner().partition(community_graph, 4)
        sizes = partition.part_sizes()
        assert sizes.max() - sizes.min() <= 1


class TestQuality:
    def test_metis_beats_hash_on_communities(self, community_graph):
        hash_stats = partition_stats(
            community_graph, HashPartitioner().partition(community_graph, 2)
        )
        metis_stats = partition_stats(
            community_graph,
            MetisLikePartitioner(seed=0).partition(community_graph, 2),
        )
        assert metis_stats.edge_cut < hash_stats.edge_cut


class TestPartitionObject:
    def test_out_of_range_part_id_rejected(self):
        with pytest.raises(ValueError):
            Partition(np.array([0, 3]), num_parts=2)

    def test_part_vertices_bounds(self):
        partition = Partition(np.array([0, 1, 0]), num_parts=2)
        with pytest.raises(IndexError):
            partition.part_vertices(5)

    def test_owner(self):
        partition = Partition(np.array([0, 1, 0]), num_parts=2)
        assert partition.owner(1) == 1


class TestFactory:
    @pytest.mark.parametrize("name", ["hash", "metis"])
    def test_make(self, name):
        assert make_partitioner(name).name == name

    def test_unknown(self):
        with pytest.raises(KeyError, match="metis"):
            make_partitioner("random")

    def test_names_list_the_registry(self):
        assert partitioner_names() == ["hash", "metis"]
