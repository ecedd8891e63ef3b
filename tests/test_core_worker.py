"""Unit tests for worker-state construction (request/serve plans)."""

import numpy as np
import pytest
from oracles._graph import to_scipy

from repro.core.worker import build_worker_states
from repro.graph.normalize import normalized_adjacency
from repro.partition.hashing import HashPartitioner


@pytest.fixture
def states(small_graph):
    normalized = normalized_adjacency(small_graph.adjacency)
    partition = HashPartitioner().partition(small_graph.adjacency, 3)
    return (
        build_worker_states(small_graph, normalized, partition),
        partition,
        normalized,
        small_graph,
    )


class TestConstruction:
    def test_locals_cover_graph(self, states):
        workers, partition, _, graph = states
        total = sum(s.num_local for s in workers)
        assert total == graph.num_vertices

    def test_local_slices_match_partition(self, states):
        workers, partition, _, graph = states
        for state in workers:
            expected = partition.part_vertices(state.worker_id)
            np.testing.assert_array_equal(state.sub.local_vertices, expected)
            np.testing.assert_array_equal(
                state.features, graph.feature_store.rows(expected)
            )
            np.testing.assert_array_equal(
                state.labels, graph.labels[expected]
            )

    def test_a_local_shape(self, states):
        workers, *_ = states
        for state in workers:
            rows, cols = state.a_local.shape
            assert rows == state.num_local
            assert cols == state.num_local + state.num_halo

    def test_requests_point_at_owners(self, states):
        workers, partition, *_ = states
        for state in workers:
            for owner, wanted in state.requests.items():
                assert owner != state.worker_id
                assert (partition.assignment[wanted] == owner).all()

    def test_halo_slots_partition_halo(self, states):
        workers, *_ = states
        for state in workers:
            if not state.requests:
                continue
            all_slots = np.concatenate(list(state.halo_slots.values()))
            assert sorted(all_slots.tolist()) == list(range(state.num_halo))

    def test_serve_plans_mirror_requests(self, states):
        workers, *_ = states
        for state in workers:
            for owner, wanted in state.requests.items():
                rows = workers[owner].serves[state.worker_id]
                served_globals = workers[owner].sub.local_vertices[rows]
                np.testing.assert_array_equal(served_globals, wanted)

    def test_mismatched_partition_rejected(self, small_graph):
        from repro.partition.base import Partition

        normalized = normalized_adjacency(small_graph.adjacency)
        bad = Partition(np.zeros(10, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            build_worker_states(small_graph, normalized, bad)


class TestAdjacencyCorrectness:
    def test_local_rows_reproduce_global_aggregation(self, states):
        """A_local applied to the concatenated (local + halo) features must
        equal the global normalized aggregation restricted to the worker's
        rows — the foundation of distributed == standalone equality."""
        workers, partition, normalized, graph = states
        dense_global = to_scipy(normalized.to_csr()).toarray()
        features = graph.feature_store.to_array()
        expected_all = dense_global @ features
        for state in workers:
            halo_features = features[state.sub.remote_vertices]
            h_cat = np.concatenate([state.features, halo_features], axis=0)
            local_result = state.a_local @ h_cat
            np.testing.assert_allclose(
                local_result,
                expected_all[state.sub.local_vertices],
                atol=1e-4,
            )

    def test_reset_iteration_clears_caches(self, states):
        workers, *_ = states
        state = workers[0]
        state.reset_iteration(3)
        assert len(state.caches) == 4
        assert all(c is None for c in state.caches)
        with pytest.raises(RuntimeError):
            state.local_output(1)
