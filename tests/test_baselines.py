"""Integration tests for the baseline systems."""

import numpy as np
import pytest

from repro.baselines import (
    MLCenteredTrainer,
    capped_khop_subgraph,
    default_fanouts,
    run_system,
    system_names,
)
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig


class TestRegistry:
    def test_all_paper_systems_present(self):
        names = system_names()
        for system in ("dgl", "pyg", "distgnn", "ecgraph", "distdgl",
                       "agl", "aligraph", "ecgraph_s"):
            assert system in names

    def test_unknown_system(self, small_graph):
        with pytest.raises(KeyError, match="ecgraph"):
            run_system("spark", small_graph)

    def test_default_fanouts_match_paper_shapes(self):
        assert default_fanouts(2) == [10, 5]
        assert default_fanouts(3) == [5, 2, 2]
        assert default_fanouts(4) == [5, 5, 1, 1]
        assert default_fanouts(5) == [5] * 5


@pytest.mark.parametrize("system", system_names())
def test_every_system_trains(system, medium_graph):
    run = run_system(system, medium_graph, num_workers=3, num_epochs=15,
                     hidden_dim=8)
    assert run.num_epochs > 0
    assert run.best_test_accuracy() > 0.3
    assert run.name == system


class TestStandalone:
    def test_no_worker_traffic(self, small_graph):
        run = run_system("dgl", small_graph, num_epochs=5)
        assert run.total_bytes() == 0

    def test_dgl_and_pyg_same_accuracy(self, small_graph):
        dgl = run_system("dgl", small_graph, num_epochs=20)
        pyg = run_system("pyg", small_graph, num_epochs=20)
        assert dgl.epochs[-1].loss == pytest.approx(
            pyg.epochs[-1].loss, rel=1e-3, abs=1e-5
        )


class TestDistGNN:
    def test_less_traffic_than_noncp(self, medium_graph):
        distgnn = run_system("distgnn", medium_graph, num_workers=3,
                             num_epochs=10)
        noncp = run_system("noncp", medium_graph, num_workers=3,
                           num_epochs=10)
        assert distgnn.total_bytes() < noncp.total_bytes()

    def test_converges_slower_than_noncp(self, medium_graph):
        """The paper: DistGNN needs more iterations because aggregates
        are stale. Compare epochs to reach a shared target."""
        distgnn = run_system("distgnn", medium_graph, num_workers=3,
                             num_epochs=60, hidden_dim=8)
        noncp = run_system("noncp", medium_graph, num_workers=3,
                           num_epochs=60, hidden_dim=8)
        target = 0.95 * max(
            distgnn.best_test_accuracy(), noncp.best_test_accuracy()
        )

        def epochs_to(run):
            for result in run.epochs:
                if result.test_accuracy >= target:
                    return result.epoch
            return 10_000

        assert epochs_to(noncp) <= epochs_to(distgnn)


class TestMLCentered:
    def test_capped_subgraph_respects_fanout(self, medium_graph):
        rng = np.random.default_rng(0)
        targets = np.arange(10)
        vertices, edges = capped_khop_subgraph(
            medium_graph.adjacency, targets, [3, 3], rng
        )
        # Each target keeps at most 3 in-edges at hop 1.
        for v in targets:
            assert (edges[:, 0] == v).sum() <= 3
        assert set(targets.tolist()) <= set(vertices.tolist())

    def test_cached_size_grows_with_hops(self, medium_graph):
        rng = np.random.default_rng(0)
        targets = np.arange(10)
        small, _ = capped_khop_subgraph(
            medium_graph.adjacency, targets, [5], rng
        )
        large, _ = capped_khop_subgraph(
            medium_graph.adjacency, targets, [5, 5], rng
        )
        assert large.size >= small.size

    def test_per_epoch_traffic_is_params_only(self, medium_graph):
        run = run_system("aligraph", medium_graph, num_workers=3,
                         num_epochs=5)
        for epoch in run.epochs:
            categories = set(epoch.breakdown.category_bytes)
            assert categories <= {"param_pull", "param_push"}

    def test_preprocessing_charged(self, medium_graph):
        run = run_system("aligraph", medium_graph, num_workers=3,
                         num_epochs=3)
        assert run.preprocessing_seconds > 0

    def test_cached_counts_cover_targets(self, medium_graph):
        trainer = MLCenteredTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), cache_fanouts=[5, 5],
            config=ECGraphConfig(),
        )
        counts = trainer.cached_vertex_counts()
        assert sum(counts) >= medium_graph.num_vertices  # redundancy

    def test_redundancy_grows_with_degree_cap(self, medium_graph):
        small_cap = MLCenteredTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), cache_fanouts=[2, 2],
            config=ECGraphConfig(),
        ).cached_vertex_counts()
        big_cap = MLCenteredTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), cache_fanouts=[20, 20],
            config=ECGraphConfig(),
        ).cached_vertex_counts()
        assert sum(big_cap) > sum(small_cap)

    def test_fanout_length_validated(self, medium_graph):
        with pytest.raises(ValueError):
            MLCenteredTrainer(
                medium_graph, ModelConfig(num_layers=2),
                ClusterSpec(num_workers=2), cache_fanouts=[5],
            )

    @pytest.mark.parametrize("fanouts", [[0, 5], [5, -1]])
    def test_fanout_below_one_rejected(self, medium_graph, fanouts):
        with pytest.raises(ValueError, match="fanouts must be >= 1"):
            MLCenteredTrainer(
                medium_graph, ModelConfig(num_layers=2),
                ClusterSpec(num_workers=2), cache_fanouts=fanouts,
            )

    def test_agl_accuracy_below_full_batch(self, medium_graph):
        """Sampled, truncated caches cost accuracy vs exact training."""
        agl = run_system("agl", medium_graph, num_workers=3,
                         num_epochs=50, fanouts=[3, 2])
        noncp = run_system("noncp", medium_graph, num_workers=3,
                           num_epochs=50)
        assert agl.best_test_accuracy() <= noncp.best_test_accuracy() + 0.02


class TestECGraphVsBaselines:
    def test_ecgraph_less_traffic_than_noncp(self, medium_graph):
        ec = run_system("ecgraph", medium_graph, num_workers=3, num_epochs=15)
        noncp = run_system("noncp", medium_graph, num_workers=3, num_epochs=15)
        assert ec.total_bytes() < noncp.total_bytes()

    def test_ecgraph_s_less_traffic_than_distdgl(self, medium_graph):
        ec_s = run_system("ecgraph_s", medium_graph, num_workers=3,
                          num_epochs=10)
        distdgl = run_system("distdgl", medium_graph, num_workers=3,
                             num_epochs=10)
        assert ec_s.total_bytes() < distdgl.total_bytes()

    def test_ecgraph_matches_noncp_accuracy(self, medium_graph):
        ec = run_system("ecgraph", medium_graph, num_workers=3, num_epochs=50)
        noncp = run_system("noncp", medium_graph, num_workers=3, num_epochs=50)
        assert ec.best_test_accuracy() >= noncp.best_test_accuracy() - 0.05
