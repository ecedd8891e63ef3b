"""Integration tests for the distributed trainer.

The anchor test: with raw (lossless) exchange, distributed full-batch
training on any number of workers must match single-worker training
*exactly* — the paper's architecture computes the same global GCN, only
partitioned. Everything else (compression effects, traffic ordering,
convergence) builds on that guarantee.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.policies import DelayedPolicy
from repro.core.reqec_fp import ReqECPolicy
from repro.core.trainer import ECGraphTrainer
from repro.graph.datasets import load_dataset
from repro.obs import ObsConfig


def _train(graph, workers, config, epochs=5, model=None):
    trainer = ECGraphTrainer(
        graph,
        model or ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=workers),
        config,
    )
    run = trainer.train(epochs)
    return trainer, run


class TestDistributedEqualsStandalone:
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_losses_identical_with_raw_exchange(self, small_graph, workers):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=3)
        _, single = _train(small_graph, 1, config)
        _, multi = _train(small_graph, workers, config)
        for a, b in zip(single.epochs, multi.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-4, abs=1e-5)
            assert a.train_accuracy == pytest.approx(b.train_accuracy)
            assert a.test_accuracy == pytest.approx(b.test_accuracy)

    def test_parameters_identical_after_training(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=3)
        t1, _ = _train(small_graph, 1, config)
        t3, _ = _train(small_graph, 3, config)
        for name in t1.servers.parameter_names():
            np.testing.assert_allclose(
                t1.servers.get(name), t3.servers.get(name),
                atol=1e-4,
            )

    def test_three_layer_model_matches_too(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=1)
        model = ModelConfig(num_layers=3, hidden_dim=6)
        _, single = _train(small_graph, 1, config, model=model)
        _, multi = _train(small_graph, 3, config, model=model)
        assert single.epochs[-1].loss == pytest.approx(
            multi.epochs[-1].loss, rel=1e-3, abs=1e-5
        )

    def test_no_first_hop_cache_still_matches(self, small_graph):
        config = ECGraphConfig(
            fp_mode="raw", bp_mode="raw", cache_first_hop=False, seed=3
        )
        _, single = _train(small_graph, 1, config)
        _, multi = _train(small_graph, 3, config)
        assert single.epochs[-1].loss == pytest.approx(
            multi.epochs[-1].loss, rel=1e-4, abs=1e-5
        )


class TestTrafficAccounting:
    def test_standalone_has_zero_traffic(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        _, run = _train(small_graph, 1, config)
        assert run.total_bytes() == 0

    def test_distributed_traffic_positive(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        _, run = _train(small_graph, 3, config)
        assert run.total_bytes() > 0

    def test_compression_reduces_traffic(self, small_graph):
        raw_config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        cp_config = ECGraphConfig(
            fp_mode="compress", bp_mode="compress", fp_bits=2, bp_bits=2,
            adaptive_bits=False,
        )
        _, raw_run = _train(small_graph, 3, raw_config)
        _, cp_run = _train(small_graph, 3, cp_config)
        # Small unit graphs have tiny per-message payloads, so framing
        # overhead caps the ratio well below the asymptotic 16x.
        assert cp_run.total_bytes() < raw_run.total_bytes() / 2.5

    def test_categories_present(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        _, run = _train(small_graph, 3, config, epochs=2)
        categories = run.epochs[0].breakdown.category_bytes
        assert "fp_embeddings" in categories
        assert "bp_gradients" in categories
        assert "param_pull" in categories
        assert "param_push" in categories

    def test_more_bits_more_traffic(self, small_graph):
        runs = {}
        for bits in (1, 8):
            config = ECGraphConfig(
                fp_mode="compress", bp_mode="compress",
                fp_bits=bits, bp_bits=bits, adaptive_bits=False,
            )
            _, runs[bits] = _train(small_graph, 3, config)
        assert runs[1].total_bytes() < runs[8].total_bytes()

    def test_first_hop_cache_removes_layer1_traffic(self, small_graph):
        cached = ECGraphConfig(fp_mode="raw", bp_mode="raw",
                               cache_first_hop=True)
        uncached = ECGraphConfig(fp_mode="raw", bp_mode="raw",
                                 cache_first_hop=False)
        _, run_cached = _train(small_graph, 3, cached)
        _, run_uncached = _train(small_graph, 3, uncached)
        assert run_cached.total_bytes() < run_uncached.total_bytes()


class TestECGraphPipeline:
    def test_full_pipeline_converges(self, small_graph):
        config = ECGraphConfig(fp_bits=4, bp_bits=4)
        _, run = _train(small_graph, 3, config, epochs=40)
        assert run.best_test_accuracy() > 0.7

    def test_bit_tuner_engages(self, medium_graph):
        config = ECGraphConfig(fp_bits=4, bp_bits=4, adaptive_bits=True,
                               trend_period=4)
        trainer, _ = _train(medium_graph, 3, config, epochs=25)
        # The tuner must have been consulted; widths stay on the ladder.
        from repro.compression.quantization import SUPPORTED_BITS

        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        assert all(trainer.tuner.bits(p) in SUPPORTED_BITS for p in pairs)

    def test_evaluate_exact_does_not_disturb_state(self, small_graph):
        config = ECGraphConfig(fp_bits=2, bp_bits=2)
        trainer, _ = _train(small_graph, 3, config, epochs=8)
        before = trainer.runtime.meter.total_bytes
        metrics = trainer.evaluate_exact()
        assert trainer.runtime.meter.total_bytes == before
        assert 0.0 <= metrics["test"] <= 1.0

    def test_early_stopping_on_patience(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=2), config,
        )
        run = trainer.train(500, patience=5)
        assert run.num_epochs < 500

    def test_target_accuracy_stops(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=2), config,
        )
        run = trainer.train(300, target_accuracy=0.5)
        assert run.epochs[-1].test_accuracy >= 0.5
        assert run.num_epochs < 300

    def test_partition_mismatch_rejected(self, small_graph):
        from repro.partition.base import Partition

        bad = Partition(
            np.zeros(small_graph.num_vertices, dtype=np.int64), 1
        )
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(), ClusterSpec(num_workers=2),
            ECGraphConfig(), partition=bad,
        )
        with pytest.raises(ValueError, match="parts"):
            trainer.setup()

    @pytest.mark.parametrize("name", ["bfs", "spectral"])
    def test_unknown_partitioner_rejected_at_construction(self, name):
        class Untouchable:
            def __getattr__(self, attribute):
                raise AssertionError(f"graph.{attribute} read before the check")

        with pytest.raises(KeyError, match="known: hash, metis"):
            ECGraphTrainer(
                Untouchable(), ModelConfig(), ClusterSpec(num_workers=2),
                ECGraphConfig(), partitioner=name,
            )

    def test_run_metadata(self, small_graph):
        config = ECGraphConfig()
        _, run = _train(small_graph, 3, config, epochs=2)
        assert run.meta["num_workers"] == 3
        assert run.meta["fp_mode"] == "reqec"
        assert run.preprocessing_seconds > 0

    def test_epoch_breakdown_positive_times(self, small_graph):
        config = ECGraphConfig()
        _, run = _train(small_graph, 3, config, epochs=2)
        for epoch in run.epochs:
            assert epoch.breakdown.compute_seconds > 0
            assert epoch.breakdown.comm_seconds > 0
            assert epoch.breakdown.total_seconds == pytest.approx(
                epoch.breakdown.compute_seconds
                + epoch.breakdown.comm_seconds
            )


class TestInjectedReqECPolicy:
    """An injected ReqEC-FP policy brings its tuner, and that tuner is
    the run's: fed every iteration, whatever ``fp_mode`` says, and
    audited by the health monitor."""

    @pytest.mark.parametrize("fp_mode", ["reqec", "compress"])
    def test_injected_tuner_adapts(self, fp_mode):
        tuner = BitTuner(initial_bits=4)
        trainer = ECGraphTrainer(
            load_dataset("cora", profile="tiny"),
            ModelConfig(num_layers=2, hidden_dim=16),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode=fp_mode, obs=ObsConfig(enabled=True)),
            fp_policy=ReqECPolicy(tuner),
        )
        trainer.train(25)
        assert trainer.tuner is tuner
        assert trainer.engine.ctx.tuner is tuner
        assert tuner.observer == trainer.obs.health.record_bits
        assert tuner.history()
        assert trainer.obs.health._bits_events == tuner.history()


class TestPreprocessingSeconds:
    """Partitioning is counted once: a partition passed in adds its own
    ``seconds``; one computed inside ``setup()`` is already inside the
    set-up wall time and must not be added on top."""

    CLAIMED = 1000.0  # far above any real set-up of the test graph

    def _stamped(self, graph):
        from repro.partition import HashPartitioner

        partition = HashPartitioner().partition(graph.adjacency, 2)
        partition.seconds = self.CLAIMED
        return partition

    def _setup(self, graph, **kwargs):
        trainer = ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=2), ECGraphConfig(seed=0), **kwargs,
        )
        trainer.setup()
        return trainer.preprocessing_seconds

    def test_partition_passed_in_is_added(self, small_graph):
        seconds = self._setup(small_graph, partition=self._stamped(small_graph))
        assert seconds >= self.CLAIMED

    def test_partition_computed_in_setup_is_not_added_twice(
        self, small_graph, monkeypatch
    ):
        import repro.core.trainer as trainer_module

        stamped = self._stamped(small_graph)

        class _StampedPartitioner:
            def partition(self, adjacency, num_parts):
                return stamped

        monkeypatch.setattr(
            trainer_module, "make_partitioner",
            lambda name, seed: _StampedPartitioner(),
        )
        assert 0 < self._setup(small_graph) < self.CLAIMED


class TestDelayedMode:
    def test_distgnn_mode_trains(self, small_graph):
        run = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="delayed", bp_mode="delayed"),
            fp_policy=DelayedPolicy(3), bp_policy=DelayedPolicy(3),
        ).train(40)
        assert run.best_test_accuracy() > 0.6

    def test_delayed_mode_refreshes_one_block_in_five(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="delayed", bp_mode="delayed"),
        )
        trainer.setup()
        assert trainer._fp_policy.name == trainer._bp_policy.name == "delayed5"

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError):
            DelayedPolicy(0)

    def test_delayed_less_traffic_than_raw(self, small_graph):
        raw = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        delayed = ECGraphConfig(fp_mode="delayed", bp_mode="delayed")
        _, raw_run = _train(small_graph, 3, raw, epochs=10)
        _, delayed_run = _train(small_graph, 3, delayed, epochs=10)
        assert delayed_run.total_bytes() < raw_run.total_bytes()


class TestTeardown:
    def test_failing_epoch_runs_shutdown_and_close_is_idempotent(
        self, small_graph, monkeypatch
    ):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), ECGraphConfig(seed=0),
        )
        trainer.close()  # before setup: nothing to release
        trainer.run_epoch(0)
        shutdowns = []
        real_shutdown = trainer.engine.shutdown

        def counted_shutdown():
            shutdowns.append(1)
            real_shutdown()

        monkeypatch.setattr(trainer.engine, "shutdown", counted_shutdown)

        def explode(t):
            raise RuntimeError("injected mid-epoch failure")

        monkeypatch.setattr(trainer.engine.backward, "run", explode)
        with pytest.raises(RuntimeError, match="injected"):
            trainer.run_epoch(1)
        assert shutdowns == [1]
        trainer.close()
        trainer.close()
        assert len(shutdowns) == 3
