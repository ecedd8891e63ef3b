"""Unit tests for the R-MAT generator (``RMATSpec`` + ``stream_rmat_graph``)."""

import numpy as np
import pytest

from repro.graph.rmat import RMATSpec
from repro.graph.streaming import stream_rmat_graph


def _graph(spec):
    """The generated graph's topology, resident."""
    return stream_rmat_graph(spec).adjacency.to_csr()


class TestSpec:
    @pytest.mark.parametrize("kwargs", [
        {"scale": 0},
        {"edge_factor": 0},
        {"a": 0.5, "b": 0.4, "c": 0.2},
        {"a": -0.1},
        {"feature_dim": 0},
        {"num_classes": 1},
        {"scale": 1, "num_classes": 4},
        {"scale": 3, "num_classes": 9},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RMATSpec(**kwargs)

    def test_vertex_count(self):
        assert RMATSpec(scale=8).num_vertices == 256


class TestEdges:
    def test_endpoints_in_range(self):
        graph = _graph(RMATSpec(scale=8, edge_factor=4, seed=1))
        assert graph.indices.min() >= 0
        assert graph.indices.max() < 256

    def test_no_self_loops(self):
        graph = _graph(RMATSpec(scale=7, seed=2))
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        assert (src != graph.indices).all()

    def test_skew_produces_hubs(self):
        """Graph500 quadrants concentrate degree: the max degree should
        dwarf the mean (the hub structure that stresses partitioners)."""
        graph = _graph(RMATSpec(scale=10, edge_factor=8, seed=3))
        degrees = graph.degree()
        assert degrees.max() > 8 * degrees.mean()

    def test_uniform_quadrants_not_skewed(self):
        spec = RMATSpec(scale=10, edge_factor=8, a=0.25, b=0.25, c=0.25,
                        seed=3)
        degrees = _graph(spec).degree()
        assert degrees.max() < 6 * degrees.mean()


class TestGraph:
    def test_symmetric(self):
        graph = _graph(RMATSpec(scale=6, seed=4))
        edges = set(zip(graph.sources().tolist(), graph.indices.tolist()))
        assert all((v, u) in edges for u, v in edges)

    def test_deterministic(self):
        a = _graph(RMATSpec(scale=6, seed=5))
        b = _graph(RMATSpec(scale=6, seed=5))
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_trains_end_to_end(self):
        """The adversarial graph must still flow through the trainer."""
        from repro.cluster.topology import ClusterSpec
        from repro.core.config import ECGraphConfig, ModelConfig
        from repro.core.trainer import ECGraphTrainer

        graph = stream_rmat_graph(RMATSpec(scale=7, seed=6))
        trainer = ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=3), ECGraphConfig(),
        )
        run = trainer.train(5)
        assert np.isfinite(run.epochs[-1].loss)
