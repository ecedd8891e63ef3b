"""Regression tests for execution-resource teardown.

The original bug: :class:`~repro.engine.transport.HaloTransport` lazily
creates a ``ThreadPoolExecutor`` for the ``exchange_threads`` fan-out,
but an exception escaping mid-epoch (fault abort, diverged watchdog)
left the pool running — every failed run stranded four ``nac`` threads.
``TrainerCore.run_epoch`` now owns teardown via try/finally semantics
(:meth:`~repro.engine.core.TrainerCore.shutdown` on any
``BaseException``), and the trainer facade exposes ``close()`` /
context-manager support on top of it.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer, _reset_thread_warning
from repro.graph.generators import GraphSpec, generate_graph


@pytest.fixture(scope="module")
def graph():
    return generate_graph(GraphSpec(
        name="shutdown", num_vertices=72, avg_degree=5.0, feature_dim=8,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=30, val=12, test=24, seed=13,
    ))


def _nac_threads() -> list[threading.Thread]:
    return [
        t for t in threading.enumerate()
        if t.name.startswith("nac") and t.is_alive()
    ]


def _threaded_trainer(graph):
    _reset_thread_warning()
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=16),
        ClusterSpec(num_workers=3, num_servers=1),
        ECGraphConfig(seed=0, exchange_threads=4),
    )
    with pytest.warns(RuntimeWarning, match="GIL"):
        trainer.setup()
    return trainer


class TestFailingEpochStrandsNoThreads:
    def test_exception_mid_epoch_tears_down_the_pool(self, graph):
        assert _nac_threads() == []
        trainer = _threaded_trainer(graph)
        trainer.run_epoch(0)
        assert _nac_threads(), "fan-out pool should be live mid-training"

        boom = RuntimeError("injected mid-epoch failure")

        def explode(*args, **kwargs):
            raise boom

        trainer.engine.backward.run = explode
        with pytest.raises(RuntimeError, match="injected"):
            trainer.run_epoch(1)
        assert _nac_threads() == []

    def test_clean_close_tears_down_the_pool(self, graph):
        trainer = _threaded_trainer(graph)
        trainer.run_epoch(0)
        assert _nac_threads()
        trainer.close()
        assert _nac_threads() == []
        trainer.close()  # idempotent

    def test_pool_recreates_after_mid_training_shutdown(self, graph):
        # shutdown() mid-training is legal on the sync path: the pool
        # re-creates lazily on the next exchange.
        trainer = _threaded_trainer(graph)
        first = trainer.run_epoch(0).loss
        trainer.engine.shutdown()
        assert _nac_threads() == []
        second = trainer.run_epoch(1).loss
        assert first == first and second == second  # not NaN
        assert _nac_threads()
        trainer.close()
        assert _nac_threads() == []
