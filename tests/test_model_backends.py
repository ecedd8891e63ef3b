"""The ModelBackend skeleton, staged-engine equivalence, and the satellite
behaviours that landed with the engine refactor (configurable Bit-Tuner
thresholds, corrupt-checkpoint fallback)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import (
    DEFAULT_LOWER_THRESHOLD,
    DEFAULT_RAISE_THRESHOLD,
    BitTuner,
)
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import (
    GATBackend,
    GCNBackend,
    ModelBackend,
    SAGEBackend,
    SampledGCNBackend,
)
from repro.faults.config import FaultConfig
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph

SPEC = ClusterSpec(num_workers=3, num_servers=1)


@pytest.fixture(scope="module")
def graph():
    return stream_graph(GraphSpec(
        name="backends", num_vertices=72, avg_degree=5.0, feature_dim=10,
        num_classes=3, homophily=0.85, feature_noise=0.7,
        train=30, val=12, test=24, seed=11,
    ))


def _make_trainer(arch: str, graph, **config_kwargs):
    config = ECGraphConfig(seed=0, **config_kwargs)
    if arch == "gcn":
        return ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=12), SPEC, config
        )
    if arch == "sage":
        return ECGraphTrainer(
            graph,
            ModelConfig(num_layers=2, hidden_dim=12, model="sage"),
            SPEC,
            config,
        )
    if arch == "gat":
        return ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=12), SPEC,
            config, backend=GATBackend(num_heads=2),
        )
    if arch == "sampled":
        return ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=12), SPEC,
            config, backend=SampledGCNBackend([3, 3], online=True),
        )
    raise AssertionError(arch)


class TestModelBackendProtocol:
    def test_backends_satisfy_the_protocol(self):
        for backend in (
            GCNBackend(),
            SAGEBackend(),
            GATBackend(num_heads=2),
            SampledGCNBackend([4, 4], online=False),
        ):
            assert isinstance(backend, ModelBackend)

    def test_gat_backend_validates_heads(self):
        with pytest.raises(ValueError, match="num_heads"):
            GATBackend(num_heads=0)

    @pytest.mark.parametrize("arch,backend_cls", [
        ("gcn", GCNBackend), ("sage", SAGEBackend), ("gat", GATBackend),
    ])
    def test_trainer_selects_matching_backend(self, arch, backend_cls, graph):
        trainer = _make_trainer(arch, graph)
        trainer.setup()
        assert type(trainer.engine.backend) is backend_cls


class TestStagedEngineMatchesRunEpoch:
    """Driving the stages directly produces ``run_epoch``'s exact losses."""

    @pytest.mark.parametrize("arch", ["gcn", "sage", "gat", "sampled"])
    def test_forward_backward_equivalence(self, arch, graph):
        epochs = 3
        fp_mode = "compress" if arch in ("gat", "sampled") else "reqec"

        facade = _make_trainer(arch, graph, fp_mode=fp_mode)
        facade_losses = [facade.run_epoch(t).loss for t in range(epochs)]

        staged = _make_trainer(arch, graph, fp_mode=fp_mode)
        staged.setup()
        engine = staged.engine
        staged_losses = []
        for t in range(epochs):
            engine.halo_plan.run(t)
            loss, _counters = engine.forward.run(t)
            grads = engine.backward.run(t)
            engine.optimize.run(grads)
            staged.runtime.end_epoch()
            staged_losses.append(loss)

        assert staged_losses == facade_losses
        assert (
            staged.evaluate_exact()["test"] == facade.evaluate_exact()["test"]
        )


class TestTunerThresholdConfig:
    def test_defaults_are_shared_constants(self):
        config = ECGraphConfig()
        assert config.tuner_raise == DEFAULT_RAISE_THRESHOLD == 0.6
        assert config.tuner_lower == DEFAULT_LOWER_THRESHOLD == 0.4
        tuner = BitTuner()
        assert tuner.raise_threshold == DEFAULT_RAISE_THRESHOLD
        assert tuner.lower_threshold == DEFAULT_LOWER_THRESHOLD

    def test_config_thresholds_reach_the_tuner(self, graph):
        trainer = _make_trainer(
            "gcn", graph, tuner_raise=0.8, tuner_lower=0.2
        )
        trainer.setup()
        assert trainer.tuner.raise_threshold == 0.8
        assert trainer.tuner.lower_threshold == 0.2
        # A proportion between the custom thresholds changes nothing even
        # though it would have crossed the default 0.6 boundary.
        assert trainer.tuner.update((0, 1), 0.7) == trainer.config.fp_bits

    def test_invalid_thresholds_rejected_at_construction(self):
        with pytest.raises(ValueError, match="tuner_lower"):
            ECGraphConfig(tuner_raise=0.3, tuner_lower=0.5)
        with pytest.raises(ValueError):
            BitTuner(raise_threshold=0.3, lower_threshold=0.5)


class TestCorruptCheckpointFallback:
    def _crashy_trainer(self, graph, tmp_path):
        return _make_trainer(
            "gcn",
            graph,
            faults=FaultConfig(
                enabled=True,
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
            ),
        )

    def test_checkpoints_rotate(self, graph, tmp_path):
        trainer = self._crashy_trainer(graph, tmp_path)
        trainer.run_epoch(0)
        assert (tmp_path / "latest.npz").exists()
        assert not (tmp_path / "previous.npz").exists()
        trainer.run_epoch(1)
        assert (tmp_path / "previous.npz").exists()

    def test_corrupt_latest_falls_back_to_previous(self, graph, tmp_path):
        from repro.core.checkpoint import load_checkpoint

        trainer = self._crashy_trainer(graph, tmp_path)
        trainer.run_epoch(0)
        trainer.run_epoch(1)
        # Torn write: the newest checkpoint lands unreadable on disk.
        (tmp_path / "latest.npz").write_bytes(b"not a checkpoint")

        assert trainer.engine.recovery.restore_latest_checkpoint() is True
        assert trainer.fault_counters.corrupt_checkpoints == 1

        previous = load_checkpoint(tmp_path / "previous.npz")
        for name, value in previous["params"].items():
            np.testing.assert_array_equal(trainer.servers.get(name), value)

    def test_both_corrupt_falls_back_to_snapshot(self, graph, tmp_path):
        trainer = self._crashy_trainer(graph, tmp_path)
        trainer.run_epoch(0)
        trainer.run_epoch(1)
        snapshot_epoch, snapshot = trainer.engine.recovery.param_snapshot
        assert snapshot_epoch == 2
        (tmp_path / "latest.npz").write_bytes(b"garbage")
        (tmp_path / "previous.npz").write_bytes(b"garbage")

        assert trainer.engine.recovery.restore_latest_checkpoint() is True
        assert trainer.fault_counters.corrupt_checkpoints == 2
        for name, value in snapshot.items():
            np.testing.assert_array_equal(trainer.servers.get(name), value)

    def test_corruption_emits_warning_metric(self, graph, tmp_path):
        from repro.obs.config import ObsConfig

        trainer = _make_trainer(
            "gcn",
            graph,
            obs=ObsConfig(enabled=True),
            faults=FaultConfig(
                enabled=True,
                checkpoint_every=1,
                checkpoint_dir=str(tmp_path),
            ),
        )
        trainer.run_epoch(0)
        (tmp_path / "latest.npz").write_bytes(b"garbage")
        assert trainer.engine.recovery.restore_latest_checkpoint() is True
        snapshot = trainer.obs.metrics.snapshot()
        assert snapshot.counter_total("fault_checkpoint_corrupt") == 1

    def test_counter_round_trips_as_dict(self):
        from repro.faults.injector import FaultCounters

        counters = FaultCounters(corrupt_checkpoints=3)
        assert counters.as_dict()["corrupt_checkpoints"] == 3
