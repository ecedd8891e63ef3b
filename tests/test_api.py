"""Tests for the high-level API and the system registry plumbing."""

import pytest

from repro import ECGraphConfig, train_ecgraph
from repro.baselines import run_system
from repro.cluster import ClusterSpec, NetworkModel
from repro.core.config import ECGraphConfig as CoreConfig
from repro.core.config import ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend


class TestTrainECGraph:
    def test_defaults_run(self, small_graph):
        run = train_ecgraph(small_graph, num_workers=2, num_epochs=3,
                            hidden_dim=4)
        assert run.num_epochs == 3
        assert run.final_test_accuracy is not None

    def test_custom_cluster_overrides_workers(self, small_graph):
        cluster = ClusterSpec(
            num_workers=3,
            network=NetworkModel(bandwidth_bytes_per_s=1e6, latency_s=0),
        )
        run = train_ecgraph(small_graph, num_workers=99, num_epochs=2,
                            hidden_dim=4, cluster=cluster)
        assert run.meta["num_workers"] == 3

    def test_named_run(self, small_graph):
        run = train_ecgraph(small_graph, num_workers=2, num_epochs=2,
                            hidden_dim=4, name="my-run")
        assert run.name == "my-run"

    def test_partitioner_choice(self, small_graph):
        run = train_ecgraph(small_graph, num_workers=2, num_epochs=2,
                            hidden_dim=4, partitioner="metis")
        assert run.num_epochs == 2

    def test_config_passthrough(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        run = train_ecgraph(small_graph, num_workers=2, num_epochs=2,
                            hidden_dim=4, config=config)
        assert run.meta["fp_mode"] == "raw"


class TestRunSystemPlumbing:
    def test_explicit_cluster(self, small_graph):
        cluster = ClusterSpec(num_workers=2, num_servers=2)
        run = run_system("ecgraph", small_graph, num_epochs=2,
                         hidden_dim=4, cluster=cluster)
        assert run.meta["num_workers"] == 2

    def test_explicit_fanouts(self, medium_graph):
        run = run_system("ecgraph_s", medium_graph, num_workers=2,
                         num_epochs=3, hidden_dim=4, fanouts=[3, 3])
        assert run.num_epochs == 3

    def test_base_config_bits_inherited(self, small_graph):
        config = CoreConfig(fp_bits=8, bp_bits=8)
        run = run_system("cponly", small_graph, num_workers=2,
                         num_epochs=2, hidden_dim=4, config=config)
        assert run.meta["fp_bits"] == 8


class TestSamplingGuards:
    def test_delayed_rejected_in_sampling_mode(self, small_graph):
        with pytest.raises(ValueError, match="delayed"):
            ECGraphTrainer(
                small_graph, ModelConfig(num_layers=2),
                ClusterSpec(num_workers=2),
                CoreConfig(fp_mode="delayed", bp_mode="raw"),
                backend=SampledGCNBackend([3, 3]),
            ).setup()
