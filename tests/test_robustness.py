"""Robustness / edge-case tests across the training stack.

Degenerate inputs a production system must survive: isolated vertices,
disconnected components, workers with empty halos, single-class labels
in a worker's shard, extreme bit widths, graphs smaller than the
cluster — plus the chaos suite: injected message drops, corruption,
delays, stragglers, parameter-server outages and worker crashes with
checkpointed recovery.
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusterRuntime
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.policies import DelayedPolicy
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig, FaultInjector
from repro.faults.chaos import run_chaos
from repro.faults.config import MAX_RETRIES, RECOVERY_SECONDS
from repro.graph.csr import from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.store.memory import memory_bundle
from repro.graph.streaming import stream_graph
from repro.obs import ObsConfig


def _graph_from_edges(edges, n, classes=2, seed=0, train_frac=0.5):
    rng = np.random.default_rng(seed)
    adjacency = from_edge_list(edges, n, deduplicate=True)
    labels = rng.integers(0, classes, n)
    labels[:classes] = np.arange(classes)
    features = rng.standard_normal((n, 6)).astype(np.float32)
    features += labels[:, None] * 0.5
    masks = np.zeros((3, n), dtype=bool)
    order = rng.permutation(n)
    cut1 = max(int(n * train_frac), classes)
    cut2 = cut1 + max(n // 5, 1)
    masks[0, order[:cut1]] = True
    masks[1, order[cut1:cut2]] = True
    masks[2, order[cut2:]] = True
    return memory_bundle(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
        num_classes=classes,
        name="edge-case",
    )


def _train(graph, workers=2, epochs=5, **config_overrides):
    config = ECGraphConfig(**config_overrides)
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=4),
        ClusterSpec(num_workers=workers), config,
    )
    return trainer.train(epochs)


class TestDegenerateGraphs:
    def test_isolated_vertices_survive(self):
        # Vertices 4..7 have no edges at all.
        edges = [(0, 1), (1, 0), (2, 3), (3, 2)]
        graph = _graph_from_edges(edges, 8)
        run = _train(graph)
        assert np.isfinite(run.epochs[-1].loss)

    def test_disconnected_components(self):
        edges = []
        for base in (0, 5):
            for i in range(4):
                edges.append((base + i, base + i + 1))
                edges.append((base + i + 1, base + i))
        graph = _graph_from_edges(edges, 10)
        run = _train(graph, workers=2)
        assert np.isfinite(run.epochs[-1].loss)

    def test_worker_with_no_remote_neighbors(self):
        # Two cliques split exactly along a 2-way round-robin... force
        # the situation by making component {0,1} vs {2,3} and hash
        # partitioning over 2 workers: worker 0 gets {0, 2}, worker 1
        # gets {1, 3}; add a variant where a worker's halo is empty by
        # using self-contained even/odd components.
        edges = [(0, 2), (2, 0), (1, 3), (3, 1)]
        graph = _graph_from_edges(edges, 4)
        run = _train(graph, workers=2)
        assert np.isfinite(run.epochs[-1].loss)

    def test_star_graph_hub(self):
        # One hub connected to everyone: extreme degree imbalance.
        n = 20
        edges = [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
        graph = _graph_from_edges(edges, n)
        run = _train(graph, workers=3)
        assert np.isfinite(run.epochs[-1].loss)

    def test_graph_smaller_than_feature_dim(self):
        spec = GraphSpec(name="t", num_vertices=10, avg_degree=2.0,
                         feature_dim=64, num_classes=2, train=4, val=2,
                         test=2, seed=0)
        run = _train(stream_graph(spec), workers=2)
        assert np.isfinite(run.epochs[-1].loss)


class TestDegenerateLabels:
    def test_worker_shard_with_no_train_vertices(self):
        # All train vertices on even ids -> with 2-way round robin the
        # odd worker trains nothing but must still participate.
        edges = [(i, (i + 1) % 8) for i in range(8)]
        edges += [((i + 1) % 8, i) for i in range(8)]
        graph = _graph_from_edges(edges, 8)
        graph.train_mask[:] = False
        graph.train_mask[[0, 2, 4]] = True
        run = _train(graph, workers=2)
        assert np.isfinite(run.epochs[-1].loss)

    def test_no_train_vertices_anywhere_rejected(self, small_graph):
        small_graph.train_mask[:] = False
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2), ECGraphConfig(),
        )
        with pytest.raises(ValueError, match="training vertices"):
            trainer.setup()


class TestExtremeSettings:
    @pytest.mark.parametrize("bits", [1, 16])
    def test_extreme_bit_widths(self, small_graph, bits):
        run = _train(
            small_graph, workers=3, epochs=8,
            fp_mode="reqec", bp_mode="resec",
            fp_bits=bits, bp_bits=bits, adaptive_bits=False,
        )
        assert np.isfinite(run.epochs[-1].loss)

    def test_trend_period_two(self, small_graph):
        run = _train(
            small_graph, workers=3, epochs=8,
            fp_mode="reqec", trend_period=2,
        )
        assert np.isfinite(run.epochs[-1].loss)

    def test_delay_longer_than_training(self, small_graph):
        run = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="delayed", bp_mode="delayed"),
            fp_policy=DelayedPolicy(50), bp_policy=DelayedPolicy(50),
        ).train(3)
        assert np.isfinite(run.epochs[-1].loss)

    def test_more_servers_than_parameters_rows(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=2),
            ClusterSpec(num_workers=2, num_servers=13),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        result = trainer.run_epoch(0)
        assert np.isfinite(result.loss)

    def test_single_layer_model(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=1, hidden_dim=4),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        run = trainer.train(10)
        assert run.best_test_accuracy() > 0.3

    def test_workers_exceeding_components(self):
        # 6 workers for a 12-vertex graph: some workers get 2 vertices.
        edges = [(i, (i + 1) % 12) for i in range(12)]
        edges += [((i + 1) % 12, i) for i in range(12)]
        graph = _graph_from_edges(edges, 12)
        run = _train(graph, workers=6)
        assert np.isfinite(run.epochs[-1].loss)


# Per-attempt drop probability at which a message spends all
# MAX_RETRIES + 1 attempts, so degrades, with probability 0.25.
EXHAUST_QUARTER = 0.25 ** (1 / (MAX_RETRIES + 1))


def _fault_train(graph, faults, epochs=12, workers=3, **config_overrides):
    """Train with a FaultConfig; returns (trainer, run)."""
    config = ECGraphConfig(faults=faults, **config_overrides)
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=workers), config,
    )
    return trainer, trainer.train(epochs)


class TestFaultConfig:
    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(enabled=True, drop_prob=1.5)
        with pytest.raises(ValueError):
            FaultConfig(enabled=True, drop_prob=0.6, corrupt_prob=0.6)

    def test_injector_requires_enabled_config(self):
        with pytest.raises(ValueError, match="enabled"):
            FaultInjector(FaultConfig())

    def test_json_round_trip(self):
        import dataclasses
        import json

        faults = FaultConfig(
            enabled=True, drop_prob=0.1, straggler_workers=(2,),
            straggler_epochs=(3, 7), server_outages=((4, 0),),
            crash_schedule=((5, 1),),
        )
        revived = FaultConfig.from_dict(
            json.loads(json.dumps(dataclasses.asdict(faults)))
        )
        assert revived == faults


class TestChaosFaultsDisabled:
    def test_disabled_run_bit_identical(self, small_graph):
        """The fault machinery must be invisible when faults are off.

        An enabled-but-all-zero FaultConfig routes every message through
        the injector's fast path; the loss curve AND the traffic meter
        must match the plain default run exactly.
        """
        _, base = _fault_train(small_graph, FaultConfig())
        _, noop = _fault_train(small_graph, FaultConfig(enabled=True))
        assert [e.loss for e in base.epochs] == [e.loss for e in noop.epochs]
        assert base.total_bytes() == noop.total_bytes()
        assert [e.breakdown.comm_seconds for e in base.epochs] == [
            e.breakdown.comm_seconds for e in noop.epochs
        ]

    def test_disabled_trainer_has_no_injector(self, small_graph):
        trainer, _ = _fault_train(small_graph, FaultConfig(), epochs=1)
        assert trainer.fault_counters is None
        assert trainer.transport.injector is None


class TestChaosMessageFaults:
    def test_drops_are_retried_and_survived(self, small_graph):
        trainer, run = _fault_train(
            small_graph, FaultConfig(enabled=True, drop_prob=0.2),
        )
        counters = trainer.fault_counters
        assert counters.drops > 0
        assert counters.retries > 0
        assert counters.retry_bytes > 0
        assert counters.extra_seconds > 0  # backoff stalls were charged
        assert np.isfinite(run.epochs[-1].loss)

    def test_retry_bytes_hit_the_meter(self, small_graph):
        _, clean = _fault_train(small_graph, FaultConfig())
        trainer, faulty = _fault_train(
            small_graph, FaultConfig(enabled=True, drop_prob=0.2),
        )
        assert trainer.fault_counters.retries > 0
        assert faulty.total_bytes() > clean.total_bytes()

    def test_corruption_and_delay(self, small_graph):
        trainer, run = _fault_train(
            small_graph,
            FaultConfig(enabled=True, corrupt_prob=0.15, delay_prob=0.2,
                        delay_seconds=0.01),
        )
        counters = trainer.fault_counters
        assert counters.corruptions > 0
        assert counters.delays > 0
        assert counters.extra_seconds > 0
        assert np.isfinite(run.epochs[-1].loss)

    def test_exhausted_retries_degrade_not_crash(self, small_graph):
        """A message whose every attempt drops degrades gracefully."""
        trainer, run = _fault_train(
            small_graph,
            FaultConfig(enabled=True, drop_prob=EXHAUST_QUARTER),
            epochs=15,
        )
        counters = trainer.fault_counters
        # Each drop is followed by a retry, or, once the retries are
        # spent, by a degradation.
        assert counters.drops == counters.retries + counters.degraded
        assert counters.degraded > 0
        # All three degradation tiers and the ResEC-BP residual fold
        # should fire at this drop rate.
        assert counters.degraded_predicted > 0  # ReqEC trend fallback
        assert counters.degraded_cached > 0     # stale-halo cache
        assert counters.residual_compensations > 0
        assert np.isfinite(run.epochs[-1].loss)

    def test_fault_schedule_is_deterministic(self, small_graph):
        faults = FaultConfig(enabled=True, drop_prob=0.1, delay_prob=0.1)
        t1, r1 = _fault_train(small_graph, faults)
        t2, r2 = _fault_train(small_graph, faults)
        assert t1.fault_counters.as_dict() == t2.fault_counters.as_dict()
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]


class TestChaosStragglersAndOutages:
    def test_straggler_scales_compute(self):
        spec = ClusterSpec(num_workers=2)
        slow = ClusterRuntime(spec)
        slow.fault_injector = FaultInjector(FaultConfig(
            enabled=True, straggler_workers=(0,), straggler_factor=4.0,
        ))
        slow.add_compute(0, 1.0)
        fast = ClusterRuntime(spec)
        fast.add_compute(0, 1.0)
        assert slow.end_epoch().compute_seconds == pytest.approx(
            4.0 * fast.end_epoch().compute_seconds
        )

    def test_straggler_epoch_window(self):
        injector = FaultInjector(FaultConfig(
            enabled=True, straggler_workers=(1,), straggler_factor=3.0,
            straggler_epochs=(2, 4),
        ))
        scales = []
        for epoch in range(6):
            injector.start_epoch(epoch)
            scales.append(injector.compute_scale(1))
        assert scales == [1.0, 1.0, 3.0, 3.0, 1.0, 1.0]
        assert injector.compute_scale(0) == 1.0

    def test_stall_not_scaled_by_straggler(self):
        runtime = ClusterRuntime(ClusterSpec(num_workers=2))
        runtime.fault_injector = FaultInjector(FaultConfig(
            enabled=True, straggler_workers=(0,), straggler_factor=4.0,
        ))
        runtime.add_stall(0, 0.5)
        assert runtime.end_epoch().compute_seconds == pytest.approx(0.5)
        assert runtime.fault_injector.counters.extra_seconds == 0.5

    def test_parameter_server_outage_retries(self, small_graph):
        trainer, run = _fault_train(
            small_graph,
            FaultConfig(enabled=True, server_outages=((2, 0), (3, 0))),
            epochs=6,
        )
        counters = trainer.fault_counters
        assert counters.ps_retries > 0
        assert counters.retry_bytes > 0
        assert np.isfinite(run.epochs[-1].loss)

    def test_outage_slows_but_preserves_math(self, small_graph):
        """An outage only delays: parameter values must be unaffected."""
        _, clean = _fault_train(small_graph, FaultConfig(), epochs=6)
        _, outage = _fault_train(
            small_graph,
            FaultConfig(enabled=True, server_outages=((2, 0),)),
            epochs=6,
        )
        assert [e.loss for e in clean.epochs] == [
            e.loss for e in outage.epochs
        ]
        assert outage.total_bytes() > clean.total_bytes()


class TestChaosCrashRecovery:
    def test_crash_recovers_within_one_epoch(self, small_graph):
        crash_at = 6
        trainer, run = _fault_train(
            small_graph,
            FaultConfig(enabled=True, crash_schedule=((crash_at, 1),),
                        checkpoint_every=1),
        )
        counters = trainer.fault_counters
        assert counters.crashes == 1
        assert counters.params_rolled_back == 1
        losses = [e.loss for e in run.epochs]
        # Rollback restored the end-of-previous-epoch parameters, so the
        # post-crash epoch must resume within one epoch of the pre-crash
        # loss rather than restarting from scratch.
        assert losses[crash_at] <= losses[crash_at - 1] + 1e-3
        assert losses[-1] < losses[0]

    def test_crash_recovery_from_disk_checkpoint(self, small_graph, tmp_path):
        trainer, run = _fault_train(
            small_graph,
            FaultConfig(enabled=True, crash_schedule=((5, 0),),
                        checkpoint_every=1, checkpoint_dir=str(tmp_path)),
        )
        assert (tmp_path / "latest.npz").exists()
        assert trainer.fault_counters.params_rolled_back == 1
        assert np.isfinite(run.epochs[-1].loss)

    def test_crash_charges_recovery_cost(self, small_graph):
        _, clean = _fault_train(small_graph, FaultConfig(), epochs=8)
        trainer, faulty = _fault_train(
            small_graph,
            FaultConfig(enabled=True, crash_schedule=((4, 1),)),
            epochs=8,
        )
        assert trainer.fault_counters.extra_seconds >= RECOVERY_SECONDS
        # The rebuilt worker refetches its halo features.
        assert faulty.total_bytes() > clean.total_bytes()

    def test_crash_consumed_once(self):
        injector = FaultInjector(FaultConfig(
            enabled=True, crash_schedule=((3, 0), (3, 2)),
        ))
        assert injector.take_crashes(3) == [0, 2]
        assert injector.take_crashes(3) == []
        assert injector.take_crashes(4) == []

    def test_crash_rebuilds_halo_feature_cache(self, small_graph):
        """A crash wipes the first-hop cache; recovery refetches it. The
        trained worker had released its cache (the store holds the
        rows), so the refetch is the only resident copy."""
        trainer, _ = _fault_train(
            small_graph,
            FaultConfig(enabled=True, crash_schedule=((4, 1),)),
            epochs=6,
        )
        state = trainer.workers[1]
        assert state.halo_features is None
        before = state.halo_rows()
        bytes_before = trainer.runtime.meter.total_bytes
        trainer.engine.recovery.recover_workers([1])
        # The cache was wiped and refetched: same values, new traffic.
        np.testing.assert_array_equal(state.halo_features, before)
        assert state.halo_features is not before
        assert not state.halo_lost
        assert trainer.runtime.meter.total_bytes > bytes_before


class TestChaosAcceptance:
    def test_mixed_scenario_survives_within_two_points(self, small_graph):
        """ISSUE acceptance: 5% drops + one worker crash must complete
        every epoch with final accuracy within 2 points of fault-free."""
        report = run_chaos(
            small_graph, "mixed", num_workers=3, num_epochs=20, seed=0,
        )
        assert report.survived
        assert report.counters.faults_injected > 0
        assert report.counters.crashes == 1
        assert report.accuracy_gap <= 0.02
        assert report.slowdown >= 1.0


class TestFaultMetricsMirror:
    """Telemetry fault counters must equal the injector's ground truth.

    The metrics registry mirrors every fault event the transport and
    the recovery manager handle; under a seeded chaos schedule the two
    bookkeeping systems must agree exactly, or one of them lied.
    """

    OBS = ObsConfig(enabled=True)

    def _run(self, graph, faults, epochs=12, **overrides):
        return _fault_train(graph, faults, epochs=epochs, obs=self.OBS,
                            **overrides)

    def test_message_fault_mirror(self, small_graph):
        trainer, run = self._run(
            small_graph,
            FaultConfig(enabled=True, seed=3, drop_prob=0.2,
                        corrupt_prob=0.1, delay_prob=0.15,
                        delay_seconds=0.01),
        )
        counters = trainer.fault_counters
        snap = run.telemetry.metrics
        assert snap.counter_total("fault_retries") == counters.retries
        assert snap.counter_total("fault_delays") == counters.delays
        assert snap.counter_total("fault_message_failures") == (
            counters.drops + counters.corruptions
        )
        assert counters.retries > 0 and counters.delays > 0

    def test_degradation_mirror_by_kind(self, small_graph):
        trainer, run = self._run(
            small_graph,
            FaultConfig(enabled=True, seed=7, drop_prob=EXHAUST_QUARTER),
            epochs=15,
        )
        counters = trainer.fault_counters
        snap = run.telemetry.metrics
        degraded = snap.counters_by_label("fault_degraded", "kind")
        assert degraded.get("predicted", 0) == counters.degraded_predicted
        assert degraded.get("cached", 0) == counters.degraded_cached
        assert degraded.get("zero", 0) == counters.degraded_zero
        assert snap.counter_total("fault_residual_compensations") == (
            counters.residual_compensations
        )
        assert counters.degraded > 0

    def test_crash_and_rollback_mirror(self, small_graph):
        trainer, run = self._run(
            small_graph,
            FaultConfig(enabled=True, crash_schedule=((4, 1), (7, 2)),
                        checkpoint_every=1),
        )
        counters = trainer.fault_counters
        snap = run.telemetry.metrics
        assert counters.crashes == 2
        assert snap.counter_total("fault_crashes") == counters.crashes
        assert snap.counter_total("fault_params_rolled_back") == (
            counters.params_rolled_back
        )
        assert counters.params_rolled_back == 2

    def test_corrupt_checkpoint_mirror(self, small_graph, tmp_path):
        trainer, _ = self._run(
            small_graph,
            FaultConfig(enabled=True, checkpoint_every=1,
                        checkpoint_dir=str(tmp_path)),
            epochs=4,
        )
        # Tear the newest checkpoint; restore must skip it (counting
        # the corruption once) and fall back to the rotated previous.
        (tmp_path / "latest.npz").write_bytes(b"not a checkpoint")
        assert trainer.engine.recovery.restore_latest_checkpoint()
        counters = trainer.fault_counters
        snap = trainer.obs.metrics.snapshot()
        assert counters.corrupt_checkpoints == 1
        assert snap.counter_total("fault_checkpoint_corrupt") == 1
        assert snap.counter("fault_checkpoint_corrupt",
                            file="latest.npz") == 1
