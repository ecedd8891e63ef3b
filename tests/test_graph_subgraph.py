"""Unit tests for subgraph extraction (graph-centered and ML-centered views)."""

from types import SimpleNamespace

import numpy as np
import pytest
from oracles._graph import to_scipy
from scipy.stats import chi2

from repro.baselines.ml_centered import capped_khop_subgraph
from repro.engine import SampledGCNBackend
from repro.graph.csr import from_edge_list
from repro.graph.store import MemoryGraphStore
from repro.graph.subgraph import (
    LocalSubgraph,
    induced_subgraph,
    sample_capped_rows,
)


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
        sub = induced_subgraph(path_graph, np.array([2, 1]))
        # Locals keep the given order (compact 0, 1); remote vertices
        # 0 and 3, sorted, take compact ids 2 and 3.
        np.testing.assert_array_equal(sub.local_vertices, [2, 1])
        np.testing.assert_array_equal(sub.remote_vertices, [0, 3])
        # Vertex 2's row: neighbours 1 (local) and 3 (remote).
        np.testing.assert_array_equal(
            np.sort(sub.indices[sub.indptr[0]:sub.indptr[1]]), [1, 3]
        )

    def test_all_local_edges_kept(self, path_graph):
        sub = induced_subgraph(path_graph, np.array([1, 2]))
        # Vertex 1's row: neighbours 0 (remote, compact 2) and 2 (local,
        # compact 1).
        row1 = sub.indices[sub.indptr[0]:sub.indptr[1]]
        assert set(row1.tolist()) == {2, 1}

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
        dense = to_scipy(normalized.to_csr()).toarray()
        row1 = slice(sub.indptr[0], sub.indptr[1])
        for col, w in zip(sub.indices[row1], sub.weights[row1]):
            global_col = (
                sub.local_vertices[col]
                if col < sub.num_local
                else sub.remote_vertices[col - sub.num_local]
            )
            assert w == pytest.approx(dense[1, global_col], abs=1e-6)


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


# ----------------------------------------------------------------------
# The one capped-row sampler. Its contract, not its random stream, is
# what is pinned: each row keeps a uniform min(degree, fanout) of its
# edges, and the sampled backend's degree / fanout rescale makes the
# row sum unbiased.
# ----------------------------------------------------------------------
DEGREES = np.array([0, 1, 3, 4, 5, 0, 8, 12])
INDPTR = np.concatenate([[0], np.cumsum(DEGREES)])


def _row_subgraph(seed: int = 0) -> LocalSubgraph:
    """Rows of degree DEGREES over 12 compact columns, random weights."""
    rng = np.random.default_rng(seed)
    num_local = DEGREES.size
    indices = np.concatenate([
        np.sort(rng.choice(12, size=d, replace=False)) for d in DEGREES
    ]).astype(np.int64)
    return LocalSubgraph(
        np.arange(num_local), np.arange(num_local, 12), INDPTR.copy(),
        indices, rng.uniform(0.1, 1.0, indices.size).astype(np.float32),
    )


def _sampler(seed: int = 0) -> SampledGCNBackend:
    backend = SampledGCNBackend([4])
    backend.rng = np.random.default_rng(seed)
    return backend


class TestSampleCappedRows:
    @pytest.mark.parametrize("fanout", [1, 2, 4, 7, 20])
    def test_each_row_keeps_min_of_degree_and_fanout_distinct(self, fanout):
        rows = np.array([6, 0, 3, 7, 3, 1])  # any order, repeats allowed
        positions, row_index = sample_capped_rows(
            INDPTR, rows, fanout, np.random.default_rng(fanout)
        )
        assert positions.shape == row_index.shape
        # Rows come back in the given order.
        assert np.all(np.diff(row_index) >= 0)
        counts = np.bincount(row_index, minlength=rows.size)
        np.testing.assert_array_equal(counts, np.minimum(DEGREES[rows], fanout))
        for i, row in enumerate(rows):
            kept = positions[row_index == i]
            assert np.unique(kept).size == kept.size
            assert np.all((kept >= INDPTR[row]) & (kept < INDPTR[row + 1]))

    @pytest.mark.parametrize("fanout", [1, 4, 12])
    def test_rows_within_fanout_keep_every_edge(self, fanout):
        rows = np.arange(DEGREES.size)
        positions, row_index = sample_capped_rows(
            INDPTR, rows, fanout, np.random.default_rng(1)
        )
        for row in np.flatnonzero(DEGREES <= fanout):
            np.testing.assert_array_equal(
                np.sort(positions[row_index == row]),
                np.arange(INDPTR[row], INDPTR[row + 1]),
            )

    @pytest.mark.parametrize("fanout", [1, 5, 12])
    def test_rows_within_fanout_are_scaled_by_exactly_one(self, fanout):
        sub = _row_subgraph()
        sampled, _ = _sampler()._sample_rows(SimpleNamespace(sub=sub), fanout)
        for row in np.flatnonzero(DEGREES <= fanout):
            got = sampled.getrow(row)
            lo, hi = INDPTR[row], INDPTR[row + 1]
            order = np.argsort(got.indices)
            np.testing.assert_array_equal(got.indices[order], sub.indices[lo:hi])
            np.testing.assert_array_equal(got.data[order], sub.weights[lo:hi])

    @pytest.mark.parametrize("fanout", [1, 3, 5])
    def test_inclusion_frequency_is_fanout_over_degree(self, fanout):
        """Pearson chi-square per row over many independent draws, scaled
        for sampling without replacement (each draw's inclusions are
        negatively correlated, so the plain statistic runs small)."""
        draws = 4000
        capped = np.flatnonzero(DEGREES > fanout)
        rows = np.repeat(capped, draws)
        positions, _ = sample_capped_rows(
            INDPTR, rows, fanout, np.random.default_rng(100 + fanout)
        )
        hits = np.bincount(positions, minlength=INDPTR[-1])
        for row in capped:
            degree = DEGREES[row]
            p = fanout / degree
            observed = hits[INDPTR[row]:INDPTR[row + 1]]
            variance = draws * p * (1 - p) * degree / (degree - 1)
            statistic = np.sum((observed - draws * p) ** 2) / variance
            assert chi2.sf(statistic, degree - 1) > 1e-3, (row, observed)

    @pytest.mark.parametrize("fanout", [1, 3, 7])
    def test_sampled_row_sum_is_unbiased(self, fanout):
        sub = _row_subgraph(seed=3)
        full = np.add.reduceat(sub.weights, INDPTR[:-1]) * (DEGREES > 0)
        sampler = _sampler(seed=4)
        draws = np.array([
            np.asarray(sampler._sample_rows(SimpleNamespace(sub=sub), fanout)[0]
                       .sum(axis=1)).ravel()
            for _ in range(3000)
        ], dtype=np.float64)
        capped = DEGREES > fanout
        stderr = draws[:, capped].std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(stderr > 0)
        assert np.all(
            np.abs(draws[:, capped].mean(axis=0) - full[capped]) <= 4 * stderr
        )
        # Rows at or under the cap are exact on every draw.
        np.testing.assert_allclose(
            draws[:, ~capped],
            np.broadcast_to(full[~capped], (3000, int((~capped).sum()))),
            rtol=1e-6,
        )

    def test_empty_rows_and_no_rows(self):
        rng = np.random.default_rng(0)
        for rows in (np.array([0, 5, 5], dtype=np.int64),
                     np.empty(0, dtype=np.int64)):
            positions, row_index = sample_capped_rows(INDPTR, rows, 3, rng)
            assert positions.size == 0 and row_index.size == 0
        empty = LocalSubgraph(np.empty(0, np.int64), np.empty(0, np.int64),
                              np.zeros(1, np.int64), np.empty(0, np.int64),
                              None)
        sampled, used_halo = _sampler()._sample_rows(SimpleNamespace(sub=empty), 3)
        assert sampled.shape == (0, 0) and sampled.nnz == 0
        assert used_halo.size == 0

    def test_capped_khop_runs_through_the_kernel(self, medium_graph):
        """The ML-centered cache draws the same keys as the kernel: hop
        one of the walk is exactly one kernel call on the targets."""
        adjacency = medium_graph.adjacency.to_csr()
        targets = np.array([0, 4, 9])
        _, edges = capped_khop_subgraph(
            adjacency, targets, [3], np.random.default_rng(5)
        )
        positions, row_index = sample_capped_rows(
            adjacency.indptr, targets, 3, np.random.default_rng(5)
        )
        np.testing.assert_array_equal(edges[:, 0], targets[row_index])
        np.testing.assert_array_equal(edges[:, 1], adjacency.indices[positions])
