"""Tests for distributed GraphSAGE (``ModelConfig(model="sage")``)."""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.models import bias_name, weight_name
from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend, GCNBackend, SAGEBackend
from repro.engine.backends import self_weight_name


def _trainer(graph, workers, config=None, layers=2, hidden=6):
    return ECGraphTrainer(
        graph,
        ModelConfig(num_layers=layers, hidden_dim=hidden, model="sage"),
        ClusterSpec(num_workers=workers),
        config or ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=9),
    )


class TestValidation:
    def test_sage_backend_requires_sage_model(self, small_graph):
        with pytest.raises(ValueError, match="sage"):
            ECGraphTrainer(
                small_graph, ModelConfig(num_layers=2, model="gcn"),
                ClusterSpec(num_workers=2), ECGraphConfig(),
                backend=SAGEBackend(),
            )

    @pytest.mark.parametrize("backend", [GCNBackend(), GATBackend()])
    def test_sage_model_rejects_other_backends(self, small_graph, backend):
        with pytest.raises(ValueError, match="sage"):
            ECGraphTrainer(
                small_graph, ModelConfig(num_layers=2, model="sage"),
                ClusterSpec(num_workers=2), ECGraphConfig(),
                backend=backend,
            )

    def test_model_sage_selects_the_sage_backend(self, small_graph):
        # Used to train a row-normalised GCN (no W_self) unless the
        # caller also picked the SAGE trainer subclass.
        trainer = _trainer(small_graph, 2)
        trainer.setup()
        assert type(trainer.engine.backend) is SAGEBackend

    def test_self_weights_registered(self, small_graph):
        trainer = _trainer(small_graph, 2, layers=3)
        trainer.setup()
        names = trainer.servers.parameter_names()
        for layer in range(3):
            assert self_weight_name(layer) in names


class TestGradients:
    def test_pushed_gradients_match_finite_differences(self, small_graph):
        trainer = _trainer(small_graph, workers=1)
        trainer.setup()

        captured = {}
        original_push = trainer.servers.push

        def spy_push(worker, grads):
            for name, grad in grads.items():
                captured[name] = captured.get(name, 0) + grad.astype(np.float64)
            original_push(worker, grads)

        trainer.servers.push = spy_push
        trainer.engine.forward.run(0)
        trainer.servers.apply_updates = lambda: None
        trainer.engine.optimize.run(trainer.engine.backward.run(0))

        rng = np.random.default_rng(0)
        eps = 1e-3
        for name in (weight_name(0), self_weight_name(0),
                     weight_name(1), self_weight_name(1), bias_name(0)):
            theta = trainer.servers.get(name).copy()
            grad = captured[name]
            flat_indices = rng.choice(theta.size,
                                      size=min(6, theta.size), replace=False)
            for flat in flat_indices:
                idx = np.unravel_index(flat, theta.shape)
                original = theta[idx]
                theta[idx] = original + eps
                trainer.servers.set(name, theta)
                up = trainer.engine.forward.run(0)[0]
                theta[idx] = original - eps
                trainer.servers.set(name, theta)
                down = trainer.engine.forward.run(0)[0]
                theta[idx] = original
                trainer.servers.set(name, theta)
                numeric = (up - down) / (2 * eps)
                tolerance = 5e-3 + 0.05 * abs(numeric)
                assert grad[idx] == pytest.approx(numeric, abs=tolerance), (
                    name, idx,
                )


class TestDistributedEquivalence:
    def test_losses_match_standalone(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=9)
        single = _trainer(small_graph, 1, config)
        multi = _trainer(small_graph, 3, config)
        run1 = single.train(6)
        run3 = multi.train(6)
        for a, b in zip(run1.epochs, run3.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-3, abs=1e-5)

    def test_parameters_match_after_training(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=9)
        single = _trainer(small_graph, 1, config)
        multi = _trainer(small_graph, 2, config)
        single.train(5)
        multi.train(5)
        for name in single.servers.parameter_names():
            np.testing.assert_allclose(
                single.servers.get(name), multi.servers.get(name),
                atol=2e-4,
            )


class TestSAGETraining:
    def test_learns(self, small_graph):
        run = _trainer(small_graph, 2).train(60)
        assert run.best_test_accuracy() > 0.7

    def test_compressed_sage_trains(self, small_graph):
        config = ECGraphConfig(fp_mode="reqec", bp_mode="resec",
                               fp_bits=4, bp_bits=4, seed=9)
        run = _trainer(small_graph, 3, config).train(40)
        assert run.best_test_accuracy() > 0.6

    def test_compression_reduces_sage_traffic(self, small_graph):
        raw = _trainer(
            small_graph, 3,
            ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=9),
        ).train(5)
        compressed = _trainer(
            small_graph, 3,
            ECGraphConfig(fp_mode="compress", bp_mode="compress",
                          fp_bits=2, bp_bits=2, adaptive_bits=False,
                          seed=9),
        ).train(5)
        assert compressed.total_bytes() < raw.total_bytes()

    def test_evaluate_exact(self, small_graph):
        trainer = _trainer(small_graph, 2)
        trainer.train(10)
        metrics = trainer.evaluate_exact()
        assert 0.0 <= metrics["test"] <= 1.0
