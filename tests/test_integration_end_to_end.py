"""End-to-end integration scenarios spanning multiple subsystems.

Each test exercises a realistic user journey through the public API —
the flows the examples demonstrate, asserted.
"""

import json

import numpy as np

from repro import ECGraphConfig, train_ecgraph
from repro.analysis import convergence_target, export_json, summarize
from repro.baselines import run_system
from repro.cluster import ClusterSpec, NetworkModel
from repro.core import ECGraphTrainer, ModelConfig
from repro.core.checkpoint import restore_trainer, save_checkpoint
from repro.graph import load_dataset


class TestQuickstartJourney:
    def test_ecgraph_saves_traffic_at_matching_accuracy(self, medium_graph):
        ec = train_ecgraph(medium_graph, num_workers=4, num_epochs=40,
                           hidden_dim=8, name="ec")
        noncp = train_ecgraph(medium_graph, num_workers=4, num_epochs=40,
                              hidden_dim=8,
                              config=ECGraphConfig().as_non_cp(),
                              name="noncp")
        assert ec.total_bytes() < 0.7 * noncp.total_bytes()
        assert ec.final_test_accuracy >= noncp.final_test_accuracy - 0.06

    def test_dataset_to_summary_pipeline(self):
        graph = load_dataset("pubmed", profile="tiny", seed=1)
        runs = [
            run_system(system, graph, num_workers=2, num_epochs=15,
                       hidden_dim=8)
            for system in ("ecgraph", "noncp")
        ]
        target = convergence_target(runs)
        summaries = [summarize(run, target) for run in runs]
        assert all(s.best_test_accuracy > 0.4 for s in summaries)


class TestCheckpointJourney:
    def test_train_checkpoint_resume_export(self, medium_graph, tmp_path):
        trainer = ECGraphTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), ECGraphConfig(seed=4),
        )
        first = trainer.train(10)
        save_checkpoint(trainer, tmp_path / "mid.npz", epoch=10)

        resumed = ECGraphTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), ECGraphConfig(seed=4),
        )
        epoch = restore_trainer(resumed, tmp_path / "mid.npz")
        more = [resumed.run_epoch(t) for t in range(epoch, epoch + 5)]
        assert more[-1].test_accuracy >= first.epochs[0].test_accuracy

        export_json([first], tmp_path / "runs.json")
        assert json.loads((tmp_path / "runs.json").read_text())[0]["epochs"]


class TestNetworkSensitivityJourney:
    def test_slow_network_amplifies_compression_win(self, medium_graph):
        def epoch_time(config, bandwidth):
            spec = ClusterSpec(
                num_workers=3,
                network=NetworkModel(bandwidth_bytes_per_s=bandwidth,
                                     latency_s=1e-4),
            )
            trainer = ECGraphTrainer(
                medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
                spec, config,
            )
            return trainer.train(3).avg_epoch_seconds()

        raw = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        ec = ECGraphConfig()
        slow_ratio = epoch_time(raw, 1e6) / epoch_time(ec, 1e6)
        fast_ratio = epoch_time(raw, 1e10) / epoch_time(ec, 1e10)
        assert slow_ratio > fast_ratio

    def test_traffic_independent_of_network_model(self, medium_graph):
        """Bytes moved depend on the algorithm, not on modelled speeds."""
        totals = []
        for bandwidth in (1e6, 1e10):
            spec = ClusterSpec(
                num_workers=3,
                network=NetworkModel(bandwidth_bytes_per_s=bandwidth),
            )
            trainer = ECGraphTrainer(
                medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
                spec, ECGraphConfig(seed=5),
            )
            totals.append(trainer.train(4).total_bytes())
        assert totals[0] == totals[1]


class TestDeterminism:
    def test_identical_runs_identical_results(self, medium_graph):
        runs = []
        for _ in range(2):
            run = train_ecgraph(medium_graph, num_workers=3, num_epochs=8,
                                hidden_dim=8,
                                config=ECGraphConfig(seed=11))
            runs.append(run)
        a, b = runs
        assert [e.loss for e in a.epochs] == [e.loss for e in b.epochs]
        assert a.total_bytes() == b.total_bytes()
        assert a.final_test_accuracy == b.final_test_accuracy

    def test_different_seeds_different_trajectories(self, medium_graph):
        losses = []
        for seed in (1, 2):
            run = train_ecgraph(medium_graph, num_workers=3, num_epochs=5,
                                hidden_dim=8,
                                config=ECGraphConfig(seed=seed))
            losses.append([e.loss for e in run.epochs])
        assert losses[0] != losses[1]


class TestRMATStress:
    def test_hub_heavy_graph_full_pipeline(self):
        from repro.graph import RMATSpec, stream_rmat_graph

        graph = stream_rmat_graph(
            RMATSpec(scale=8, edge_factor=6, seed=2)
        )
        run = train_ecgraph(graph, num_workers=4, num_epochs=5, hidden_dim=4)
        assert np.isfinite(run.epochs[-1].loss)
        assert run.total_bytes() > 0
