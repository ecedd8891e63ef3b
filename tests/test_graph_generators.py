"""Unit tests for the planted-partition generator: ``GraphSpec``
validation, the degree law, and the properties of the graphs
``stream_graph`` builds."""

import numpy as np
import pytest

from repro.graph.generators import GraphSpec, power_law_degrees
from repro.graph.streaming import stream_graph


def _spec(**overrides):
    fields = dict(
        name="t",
        num_vertices=300,
        avg_degree=8.0,
        feature_dim=10,
        num_classes=3,
        seed=5,
    )
    fields.update(overrides)
    return GraphSpec(**fields)


def _graph(**overrides):
    return stream_graph(_spec(**overrides))


def _arcs(graph):
    csr = graph.adjacency.to_csr()
    src = np.repeat(np.arange(graph.num_vertices), np.diff(csr.indptr))
    return src, csr.indices


class TestSpecValidation:
    @pytest.mark.parametrize("overrides", [
        {"homophily": 1.5},
        {"num_classes": 1},
        {"label_noise": 1.0},
        {"avg_degree": 0.0},
        {"num_vertices": 3, "num_classes": 4},
        {"feature_dim": 0},
        {"power_law": -1.0},
        {"feature_noise": -0.5},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            _spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"num_vertices": 50, "num_classes": 50},
        {"feature_dim": 1},
        {"power_law": 0.0},
        {"feature_noise": 0.0},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_boundary_values_build(self, overrides):
        graph = _graph(**overrides)
        assert graph.feature_store.shape == (
            graph.num_vertices, _spec(**overrides).feature_dim
        )


class TestPowerLawDegrees:
    def test_mean_close_to_target(self):
        rng = np.random.default_rng(0)
        degrees = power_law_degrees(5000, 20.0, 2.0, rng)
        assert abs(degrees.mean() - 20.0) < 4.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        degrees = power_law_degrees(100, 10.0, 1.5, rng)
        assert degrees.min() >= 1
        assert degrees.max() <= 99

    def test_heavy_tail(self):
        rng = np.random.default_rng(0)
        degrees = power_law_degrees(5000, 20.0, 1.5, rng)
        assert degrees.max() > 5 * degrees.mean()


class TestPlantedPartition:
    def test_homophily_respected(self):
        g = _graph(num_vertices=600, avg_degree=20.0, homophily=0.9)
        src, dst = _arcs(g)
        assert (g.labels[src] == g.labels[dst]).mean() > 0.75

    def test_low_homophily(self):
        g = _graph(num_vertices=600, avg_degree=20.0, homophily=0.1)
        src, dst = _arcs(g)
        assert (g.labels[src] == g.labels[dst]).mean() < 0.6

    def test_no_self_loops_or_duplicates(self):
        g = _graph(num_vertices=100, avg_degree=12.0, num_classes=2)
        src, dst = _arcs(g)
        assert (src != dst).all()
        keys = src * g.num_vertices + dst
        assert len(np.unique(keys)) == len(keys)


class TestClassFeatures:
    def test_same_class_closer_than_cross_class(self):
        g = _graph(num_vertices=200, num_classes=2, feature_dim=32,
                   feature_noise=0.5)
        features = g.feature_store.to_array()
        a = features[g.labels == 0]
        b = features[g.labels == 1]
        within = np.linalg.norm(a - a.mean(0), axis=1).mean()
        centroid_gap = np.linalg.norm(a.mean(0) - b.mean(0))
        assert centroid_gap > within * 0.5

    def test_dtype(self):
        assert _graph().feature_store.dtype == np.float32


class TestStreamGraph:
    def test_symmetric_adjacency(self):
        g = _graph()
        csr = g.adjacency.to_csr()
        edges = set(zip(csr.sources().tolist(), csr.indices.tolist()))
        assert all((v, u) in edges for u, v in edges)

    def test_degree_near_target(self):
        g = _graph(num_vertices=2000, avg_degree=12.0)
        assert abs(g.adjacency.average_degree - 12.0) < 4.0

    def test_deterministic(self):
        a = _graph()
        b = _graph()
        np.testing.assert_array_equal(
            a.adjacency.to_csr().indices, b.adjacency.to_csr().indices
        )
        np.testing.assert_array_equal(
            a.feature_store.to_array(), b.feature_store.to_array()
        )
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_graph(self):
        a = _graph(seed=1)
        b = _graph(seed=2)
        assert not np.array_equal(a.labels, b.labels)

    def test_all_classes_inhabited(self):
        g = _graph(num_classes=5)
        assert len(np.unique(g.labels)) == 5

    def test_masks_disjoint(self):
        g = _graph()
        assert not (g.train_mask & g.val_mask).any()
        assert not (g.train_mask & g.test_mask).any()

    def test_label_noise_flips_some_labels(self):
        clean = _graph(label_noise=0.0)
        noisy = _graph(label_noise=0.4)
        differ = (clean.labels != noisy.labels).mean()
        assert 0.2 < differ < 0.5  # ~0.4 * (1 - 1/3)

    def test_small_graph_split_shrinks(self):
        g = _graph(num_vertices=30, train=20, val=20, test=20, num_classes=2)
        train, val, test = g.split_sizes()
        assert train + val + test <= 30
        assert min(train, val, test) >= 1

    def test_meta_records_generator(self):
        g = _graph(homophily=0.77)
        assert g.meta["homophily"] == 0.77
        assert g.meta["generator"] == "planted_partition"
