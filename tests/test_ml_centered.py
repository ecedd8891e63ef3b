"""The ML-centered systems (AGL, AliGraph-FG) on the one engine.

``CachedKHopBackend`` trains each worker on the capped L-hop cache of
its targets. It is pinned to the trainer it replaced
(``tests/oracles/ml_centered.py``), and the engine services that trainer
never had — crash recovery, elastic membership, telemetry and
multiprocess execution — are exercised on both rows.
"""

import numpy as np
import pytest

from oracles import assert_same_as_parent
from oracles._graph import resident
from oracles.ml_centered import MLCenteredTrainer
from repro.__main__ import main
from repro.baselines import SYSTEMS, CachedKHopBackend, capped_khop_subgraph, run_system
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults.chaos import run_chaos
from repro.graph.datasets import load_dataset
from repro.graph.store import to_mmap_bundle
from repro.obs import ObsConfig

RAW = ECGraphConfig(fp_mode="raw", bp_mode="raw")
MODEL = ModelConfig(num_layers=2, hidden_dim=8)


def _trainer(graph, fanouts, model=MODEL, workers=3, config=RAW):
    return ECGraphTrainer(
        graph, model, ClusterSpec(num_workers=workers), config,
        backend=CachedKHopBackend(fanouts),
    )


def _cached_counts(trainer):
    trainer.setup()
    return [state.num_local for state in trainer.workers]


class TestCappedKHopSubgraph:
    def test_each_expanded_row_keeps_min_of_degree_and_fanout(self, medium_graph):
        adjacency = medium_graph.adjacency.to_csr()
        targets = np.arange(10)
        vertices, edges = capped_khop_subgraph(
            adjacency, targets, [3, 3], np.random.default_rng(0)
        )
        degrees = np.diff(adjacency.indptr)
        for v in targets:
            assert (edges[:, 0] == v).sum() == min(degrees[v], 3)
        assert np.unique(edges, axis=0).shape == edges.shape
        assert set(edges.ravel().tolist()) <= set(vertices.tolist())
        assert set(targets.tolist()) <= set(vertices.tolist())

    def test_uncapped_hop_is_the_exact_neighbourhood(self, medium_graph):
        adjacency = medium_graph.adjacency.to_csr()
        targets = np.array([0, 5])
        vertices, edges = capped_khop_subgraph(
            adjacency, targets, [adjacency.num_vertices],
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(vertices, np.unique(np.concatenate(
            [targets, adjacency.neighbors(0), adjacency.neighbors(5)]
        )))
        assert edges.shape[0] == adjacency.neighbors(0).size + adjacency.neighbors(5).size


class TestCachedKHopBackend:
    def test_worker_graph_is_the_cache_without_halo(self, medium_graph):
        trainer = _trainer(medium_graph, [5, 5])
        trainer.setup()
        for state in trainer.workers:
            assert state.num_halo == 0
            assert state.requests == state.serves == state.halo_slots == {}
            assert state.a_local.shape == (state.num_local, state.num_local)
        # Loss and accuracy masks cover each worker's targets only.
        for split in ("train_mask", "val_mask", "test_mask"):
            assert sum(int(getattr(s, split).sum()) for s in trainer.workers) == (
                int(getattr(medium_graph, split).sum())
            )

    def test_caches_overlap(self, medium_graph):
        counts = _cached_counts(_trainer(medium_graph, [5, 5]))
        assert sum(counts) >= medium_graph.num_vertices

    def test_redundancy_grows_with_degree_cap(self, medium_graph):
        small_cap = _cached_counts(_trainer(medium_graph, [2, 2]))
        big_cap = _cached_counts(_trainer(medium_graph, [20, 20]))
        assert sum(big_cap) > sum(small_cap)

    def test_fanout_length_validated(self, medium_graph):
        with pytest.raises(ValueError, match="1 fanouts for 2 layers"):
            _trainer(medium_graph, [5]).setup()

    @pytest.mark.parametrize("fanouts", [[0, 5], [5, -1]])
    def test_fanout_below_one_rejected(self, fanouts):
        with pytest.raises(ValueError, match="fanouts must be >= 1"):
            CachedKHopBackend(fanouts)

    def test_per_epoch_traffic_is_params_only(self, medium_graph):
        run = run_system("aligraph", medium_graph, num_workers=3, num_epochs=5)
        for epoch in run.epochs:
            assert set(epoch.breakdown.category_bytes) <= {
                "param_pull", "param_push"
            }

    def test_preprocessing_charges_the_pull(self, medium_graph):
        run = run_system("aligraph", medium_graph, num_workers=3, num_epochs=3)
        assert run.preprocessing_seconds > 0
        trainer = _trainer(medium_graph, [25, 25])
        trainer.setup()
        assert trainer.runtime.meter.snapshot().category_bytes["lhop_pull"] > 0

    @pytest.mark.parametrize("system", ["agl", "aligraph"])
    def test_memory_and_mmap_bundles_train_identically(
        self, system, small_graph, tmp_path
    ):
        """The caches read features and topology through the store API,
        so an out-of-core bundle trains to the same losses."""
        disk = to_mmap_bundle(small_graph, tmp_path / "g", chunk_vertices=29)
        losses = [
            [repr(e.loss) for e in run_system(
                system, graph, num_workers=3, num_epochs=4, patience=None
            ).epochs]
            for graph in (small_graph, disk)
        ]
        assert losses[0] == losses[1]

    def test_agl_accuracy_below_full_batch(self, medium_graph):
        """Sampled, truncated caches cost accuracy vs exact training."""
        agl = run_system("agl", medium_graph, num_workers=3,
                         num_epochs=50, fanouts=[3, 2])
        noncp = run_system("noncp", medium_graph, num_workers=3,
                           num_epochs=50)
        assert agl.best_test_accuracy() <= noncp.best_test_accuracy() + 0.02


@pytest.fixture(scope="module", params=["cora", "reddit"])
def bench_graph(request):
    return load_dataset(request.param, profile="bench")


class TestMatchesParentTrainer:
    """The backend against ``MLCenteredTrainer`` on the same caches."""

    EPOCHS = 20
    SPEC = ClusterSpec(num_workers=6)
    MODEL = ModelConfig(num_layers=2, hidden_dim=16)

    def _pair(self, graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        parent = MLCenteredTrainer(
            resident(graph), self.MODEL, self.SPEC, [10, 5], config=config
        )
        new = _trainer(graph, [10, 5], self.MODEL, 6, config)
        return parent, new

    def test_same_caches_and_storage_pull(self, bench_graph):
        parent, new = self._pair(bench_graph)
        new.setup()
        assert_same_as_parent(
            [s.num_local for s in new.workers], parent.cached_vertex_counts()
        )
        assert_same_as_parent(
            new.runtime.meter.snapshot().category_bytes["lhop_pull"],
            parent.runtime.meter.snapshot().category_bytes["lhop_pull"],
        )

    def test_losses_track_the_parent(self, bench_graph):
        parent, new = self._pair(bench_graph)
        for t in range(self.EPOCHS):
            want, got = parent.run_epoch(t), new.run_epoch(t)
            if t == 0:
                assert_same_as_parent(
                    (got.loss, got.train_accuracy, got.val_accuracy,
                     got.test_accuracy),
                    (want.loss, want.train_accuracy, want.val_accuracy,
                     want.test_accuracy),
                )
            assert got.loss == pytest.approx(want.loss, rel=1e-4), t

    def test_adam_best_accuracy_matches(self, bench_graph):
        parent, new = self._pair(bench_graph)
        want = max(parent.run_epoch(t).test_accuracy for t in range(self.EPOCHS))
        got = max(new.run_epoch(t).test_accuracy for t in range(self.EPOCHS))
        assert abs(got - want) <= 0.02


class TestEngineServices:
    """What the rows gain from running on the engine."""

    @pytest.mark.parametrize("system", ["agl", "aligraph"])
    def test_telemetry_reconciles_with_the_meter(self, system):
        """The storage pull is charged through the runtime, so the
        telemetry mirror holds every metered category to the byte."""
        config = ECGraphConfig(obs=ObsConfig(enabled=True))
        with SYSTEMS[system](
            load_dataset("cora", profile="tiny"), MODEL,
            ClusterSpec(num_workers=3), config, None,
        ) as trainer:
            trainer.train(2)
        meter = trainer.runtime.meter.snapshot()
        snap = trainer.obs.metrics.snapshot()
        assert meter.category_bytes["lhop_pull"] > 0
        for category, nbytes in meter.category_bytes.items():
            assert snap.counter("comm_bytes", category=category) == nbytes
        assert snap.counter_total("comm_bytes") == meter.total_bytes
        assert snap.counter_total("comm_messages") == meter.total_messages

    def test_agl_survives_crashes(self, medium_graph):
        report = run_chaos(medium_graph, "crash", system="agl", num_epochs=12)
        assert report.survived
        assert report.counters.crashes >= 1

    def test_aligraph_survives_worker_loss(self, medium_graph):
        report = run_chaos(
            medium_graph, "worker-loss", system="aligraph", num_epochs=12
        )
        assert report.survived
        kinds = [event["kind"] for event in report.membership_events]
        assert "partition_adopted" in kinds

    def test_adoption_repulls_the_moved_caches(self, medium_graph):
        from repro.faults.scenarios import build_scenario

        config = ECGraphConfig(faults=build_scenario("worker-loss", 12, 4))
        with SYSTEMS["aligraph"](
            medium_graph, MODEL, ClusterSpec(num_workers=4), config, None
        ) as trainer:
            trainer.train(12)
        assert trainer.runtime.meter.snapshot().category_bytes["recovery"] > 0
        assert trainer.workers[trainer.membership_events[0]["worker"]].num_local == 0

    def test_report_runs_on_aligraph(self, tmp_path, capsys):
        assert main([
            "report", "--system", "aligraph", "--smoke", "--out", str(tmp_path)
        ]) == 0
        assert "Stage timeline" in capsys.readouterr().out

    @staticmethod
    def _agl_run(graph, config):
        """Losses, bytes, messages and exact test accuracy of 4 epochs."""
        with SYSTEMS["agl"](
            graph, MODEL, ClusterSpec(num_workers=3), config, None
        ) as trainer:
            losses = [repr(trainer.run_epoch(t).loss) for t in range(4)]
            meter = trainer.runtime.meter
            return (
                losses, int(meter.total_bytes), int(meter.total_messages),
                repr(trainer.evaluate_exact()["test"]),
            )

    def test_agl_multiprocess_is_bit_identical_to_sync(self, small_graph):
        sync = self._agl_run(small_graph, ECGraphConfig())
        forked = self._agl_run(
            small_graph, ECGraphConfig(execution="multiprocess")
        )
        assert forked == sync
