"""High-level one-call API.

Most users want "train this GNN on this graph on a k-machine cluster with
EC-Graph"; this module provides exactly that without touching the trainer
internals.
"""

from __future__ import annotations

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.results import ConvergenceRun
from repro.core.trainer import ECGraphTrainer
from repro.graph.store.base import GraphStoreBundle

__all__ = ["train_ecgraph"]


def train_ecgraph(
    graph: GraphStoreBundle,
    num_workers: int = 6,
    num_layers: int = 2,
    hidden_dim: int = 16,
    num_epochs: int = 100,
    config: ECGraphConfig | None = None,
    cluster: ClusterSpec | None = None,
    partitioner: str = "hash",
    patience: int | None = None,
    name: str | None = None,
) -> ConvergenceRun:
    """Train a GCN on ``graph`` with the EC-Graph pipeline.

    Args:
        graph: Attributed input graph (see :mod:`repro.graph.datasets`).
        num_workers: Cluster size (ignored when ``cluster`` is given).
        num_layers / hidden_dim: GCN architecture (paper defaults).
        num_epochs: Maximum training iterations.
        config: Full pipeline configuration; defaults to the paper's
            EC-Graph setting (ReqEC-FP + Bit-Tuner forward, ResEC-BP
            backward, ``T_tr = 10``).
        cluster: Explicit cluster topology; defaults to one worker per
            machine over Gigabit Ethernet.
        partitioner: ``hash`` (paper default) or ``metis``.
        patience: Early-stopping patience on validation accuracy.
        name: Label attached to the returned run.

    Returns:
        A :class:`ConvergenceRun` with per-epoch accuracy, loss, modelled
        epoch time and traffic, plus the exact-communication final test
        accuracy.
    """
    spec = cluster or ClusterSpec(num_workers=num_workers)
    trainer = ECGraphTrainer(
        graph,
        ModelConfig(num_layers=num_layers, hidden_dim=hidden_dim),
        spec,
        config or ECGraphConfig(),
        partitioner=partitioner,
    )
    return trainer.train(num_epochs, patience=patience, name=name)
