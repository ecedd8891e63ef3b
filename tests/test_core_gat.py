"""Tests for distributed GAT (``backend=GATBackend(...)``).

Gradient correctness is established two ways: (1) the distributed
backward pass against finite differences of a dense single-worker
forward, and (2) distributed == standalone exact equivalence with raw
exchange — the same anchor the GCN trainer has.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend
from repro.engine.backends import (
    attn_dst_name,
    attn_src_name,
    head_weight_name,
)


def _trainer(graph, workers, config=None, layers=2, hidden=6):
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=layers, hidden_dim=hidden),
        ClusterSpec(num_workers=workers),
        config or ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5),
        backend=GATBackend(),
    )


class TestGradientsAgainstFiniteDifferences:
    def _loss_for(self, trainer, graph):
        """Standalone loss from current server parameters (exact FP)."""
        # Recompute the loss via one exact forward on worker states.
        from repro.nn.losses import softmax_cross_entropy

        num_layers = trainer.params.num_layers
        outputs = [
            graph.feature_store.rows(s.sub.local_vertices)
            for s in trainer.workers
        ]
        for layer in range(1, num_layers + 1):
            params = {
                name: trainer.servers.get(name)
                for name in trainer.engine.backend.layer_param_names(layer)
            }
            halos = [
                graph.feature_store.rows(s.sub.remote_vertices)
                if layer == 1
                else outputs_prev_halo[s.worker_id]
                for s in trainer.workers
            ]
            new_outputs = []
            outputs_prev_halo = []
            for state in trainer.workers:
                h_cat = np.concatenate(
                    [outputs[state.worker_id], halos[state.worker_id]],
                    axis=0,
                )
                new_outputs.append(trainer.engine.backend.eval_layer(
                    state, h_cat, params, layer,
                    is_last=(layer == num_layers),
                ))
            outputs = new_outputs
            # Prepare halos for the next layer from the owners' outputs.
            outputs_prev_halo = []
            for state in trainer.workers:
                halo = np.zeros(
                    (state.num_halo, outputs[0].shape[1]), dtype=np.float32
                )
                for owner, slots in state.halo_slots.items():
                    rows = trainer.workers[owner].serves[state.worker_id]
                    halo[slots] = outputs[owner][rows]
                outputs_prev_halo.append(halo)

        total = 0.0
        global_train = int(graph.train_mask.sum())
        for state in trainer.workers:
            result = softmax_cross_entropy(
                outputs[state.worker_id], state.labels, state.train_mask
            )
            local = int(state.train_mask.sum())
            total += result.loss * (local / global_train if local else 0.0)
        return total

    @pytest.mark.parametrize("param_kind", ["W0", "asrc0", "adst1", "b0"])
    def test_pushed_gradients_match_finite_differences(
        self, small_graph, param_kind
    ):
        trainer = _trainer(small_graph, workers=1)
        trainer.setup()

        # Capture the summed gradient pushed by intercepting apply.
        captured = {}
        original_push = trainer.servers.push

        def spy_push(worker, grads):
            for name, grad in grads.items():
                captured[name] = captured.get(name, 0) + grad.astype(np.float64)
            original_push(worker, grads)

        trainer.servers.push = spy_push
        trainer.engine.halo_plan.run(0)
        trainer.engine.forward.run(0)
        # Run backward but skip the optimizer update so parameters stay
        # at their initial values for the finite-difference probe.
        original_apply = trainer.servers.apply_updates
        trainer.servers.apply_updates = lambda: None
        trainer.engine.optimize.run(trainer.engine.backward.run(0))
        trainer.servers.apply_updates = original_apply

        name = param_kind
        grad = captured[name]
        theta = trainer.servers.get(name).copy()
        rng = np.random.default_rng(0)
        eps = 1e-3
        flat_indices = rng.choice(theta.size, size=min(8, theta.size),
                                  replace=False)
        for flat in flat_indices:
            idx = np.unravel_index(flat, theta.shape)
            original = theta[idx]
            theta[idx] = original + eps
            trainer.servers.set(name, theta)
            up = self._loss_for(trainer, small_graph)
            theta[idx] = original - eps
            trainer.servers.set(name, theta)
            down = self._loss_for(trainer, small_graph)
            theta[idx] = original
            trainer.servers.set(name, theta)
            numeric = (up - down) / (2 * eps)
            # float32 forward passes put ~1e-5 noise on each probed loss,
            # i.e. ~5e-3 absolute on the difference quotient.
            tolerance = 5e-3 + 0.05 * abs(numeric)
            assert grad[idx] == pytest.approx(numeric, abs=tolerance), (
                name, idx,
            )


class TestDistributedEquivalence:
    def test_losses_match_standalone(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5)
        single = _trainer(small_graph, 1, config)
        multi = _trainer(small_graph, 3, config)
        run1 = single.train(6)
        run3 = multi.train(6)
        for a, b in zip(run1.epochs, run3.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-3, abs=1e-5)

    def test_parameters_match_after_training(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5)
        single = _trainer(small_graph, 1, config)
        multi = _trainer(small_graph, 2, config)
        single.train(5)
        multi.train(5)
        for name in single.servers.parameter_names():
            np.testing.assert_allclose(
                single.servers.get(name), multi.servers.get(name),
                atol=2e-4,
            )


class TestGATTraining:
    def test_learns_on_homophilous_graph(self, small_graph):
        trainer = _trainer(small_graph, 2)
        run = trainer.train(60)
        assert run.best_test_accuracy() > 0.7

    def test_attention_params_registered(self, small_graph):
        trainer = _trainer(small_graph, 2, layers=3)
        trainer.setup()
        names = trainer.servers.parameter_names()
        for layer in range(3):
            assert attn_src_name(layer) in names
            assert attn_dst_name(layer) in names

    def test_compressed_gat_trains(self, small_graph):
        config = ECGraphConfig(
            fp_mode="reqec", bp_mode="resec", fp_bits=4, bp_bits=4,
            seed=5,
        )
        trainer = _trainer(small_graph, 3, config)
        run = trainer.train(40)
        assert run.best_test_accuracy() > 0.6

    def test_compression_reduces_gat_traffic(self, small_graph):
        raw = _trainer(
            small_graph, 3,
            ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5),
        ).train(5)
        compressed = _trainer(
            small_graph, 3,
            ECGraphConfig(fp_mode="compress", bp_mode="compress",
                          fp_bits=2, bp_bits=2, adaptive_bits=False,
                          seed=5),
        ).train(5)
        assert compressed.total_bytes() < raw.total_bytes()

    def test_evaluate_exact_returns_all_splits(self, small_graph):
        trainer = _trainer(small_graph, 2)
        trainer.train(5)
        metrics = trainer.evaluate_exact()
        assert set(metrics) == {"train", "val", "test"}

    def test_edge_arrays_are_the_csr_not_int64_twins(self, small_graph):
        """Each edge is spelled once, by the worker's CSR: ``col`` is a
        view of its indices and ``src`` is built at their width."""
        trainer = _trainer(small_graph, 2)
        trainer.train(1)
        for state, edges in zip(trainer.workers, trainer.engine.backend.edges):
            indices = state.a_local.indices
            assert np.shares_memory(edges.col, indices)
            assert edges.src.dtype == indices.dtype
            assert edges.src.size == indices.size


class TestMultiHead:
    def _mh_trainer(self, graph, workers, heads, config=None):
        return ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=6),
            ClusterSpec(num_workers=workers),
            config or ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5),
            backend=GATBackend(num_heads=heads),
        )

    def test_invalid_heads_rejected(self, small_graph):
        with pytest.raises(ValueError, match="num_heads"):
            self._mh_trainer(small_graph, 2, heads=0)

    def test_per_head_params_registered(self, small_graph):
        trainer = self._mh_trainer(small_graph, 2, heads=3)
        trainer.setup()
        names = trainer.servers.parameter_names()
        for layer in range(2):
            for head in range(3):
                assert head_weight_name(layer, head) in names
                assert attn_src_name(layer, head) in names
                assert attn_dst_name(layer, head) in names

    def test_multihead_distributed_equals_standalone(self, small_graph):
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=5)
        single = self._mh_trainer(small_graph, 1, heads=2, config=config)
        multi = self._mh_trainer(small_graph, 3, heads=2, config=config)
        run1 = single.train(5)
        run3 = multi.train(5)
        for a, b in zip(run1.epochs, run3.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-3, abs=1e-5)

    def test_multihead_gradients_match_finite_differences(self, small_graph):
        trainer = self._mh_trainer(small_graph, 1, heads=2)
        trainer.setup()
        captured = {}
        original_push = trainer.servers.push

        def spy_push(worker, grads):
            for name, grad in grads.items():
                captured[name] = captured.get(name, 0) + grad.astype(
                    np.float64
                )
            original_push(worker, grads)

        trainer.servers.push = spy_push
        trainer.engine.forward.run(0)
        trainer.servers.apply_updates = lambda: None
        trainer.engine.optimize.run(trainer.engine.backward.run(0))

        fd = TestGradientsAgainstFiniteDifferences()
        rng = np.random.default_rng(0)
        eps = 1e-3
        for name in (head_weight_name(0, 1), attn_src_name(1, 1),
                     attn_dst_name(0, 1)):
            theta = trainer.servers.get(name).copy()
            grad = captured[name]
            for flat in rng.choice(theta.size, size=min(5, theta.size),
                                   replace=False):
                idx = np.unravel_index(flat, theta.shape)
                original = theta[idx]
                theta[idx] = original + eps
                trainer.servers.set(name, theta)
                up = fd._loss_for(trainer, small_graph)
                theta[idx] = original - eps
                trainer.servers.set(name, theta)
                down = fd._loss_for(trainer, small_graph)
                theta[idx] = original
                trainer.servers.set(name, theta)
                numeric = (up - down) / (2 * eps)
                tolerance = 5e-3 + 0.05 * abs(numeric)
                assert grad[idx] == pytest.approx(numeric, abs=tolerance), (
                    name, idx,
                )

    def test_multihead_trains(self, small_graph):
        run = self._mh_trainer(small_graph, 2, heads=4).train(50)
        assert run.best_test_accuracy() > 0.7

    def test_multihead_with_compression(self, small_graph):
        config = ECGraphConfig(fp_mode="compress", bp_mode="resec",
                               fp_bits=4, bp_bits=4, adaptive_bits=False,
                               seed=5)
        run = self._mh_trainer(small_graph, 3, heads=2,
                               config=config).train(30)
        assert run.best_test_accuracy() > 0.6
