"""One-call constructors for every system in the paper's evaluation.

All systems run on the same simulated substrate (compute measured, traffic
byte-accurate, network modelled), so differences between them come only
from their algorithms — the same methodology the paper follows when it
reimplements AGL and DistGNN. The registry powers the Table IV/V and
Fig. 8/9 benchmarks.

Systems:

* ``dgl`` / ``pyg`` — single-machine full-batch GCN. DGL applies the
  matmul-ordering optimization, PyG does not (the paper's gap between
  the two on high-dimensional inputs).
* ``distgnn`` — graph-centered full-batch with delayed remote partial
  aggregation (round ``r = 5`` per the DistGNN paper).
* ``ecgraph`` — the full EC-Graph pipeline (ReqEC-FP + Bit-Tuner +
  ResEC-BP).
* ``noncp`` / ``cponly`` — EC-Graph's ablation arms.
* ``distdgl`` — graph-centered mini-batch with *online* sampling.
* ``agl`` — ML-centered with offline GraphFlat sampling.
* ``aligraph`` — ML-centered full-graph mode with a capped neighbour
  cache. Both run the GCN engine on each worker's capped L-hop cache
  (:class:`~repro.baselines.ml_centered.CachedKHopBackend`).
* ``ecgraph_s`` — EC-Graph's sampling mode (offline sampling +
  compressed forward + ResEC-BP backward).
"""

from __future__ import annotations

from dataclasses import replace

from repro.baselines.ml_centered import CachedKHopBackend
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.results import ConvergenceRun
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend
from repro.graph.store.base import GraphStoreBundle

__all__ = ["SYSTEMS", "system_names", "run_system", "default_fanouts"]


def default_fanouts(num_layers: int) -> list[int]:
    """Sampling ratios matching the paper's Table IV conventions."""
    presets = {2: [10, 5], 3: [5, 2, 2], 4: [5, 5, 1, 1]}
    return presets.get(num_layers, [5] * num_layers)


def _standalone(graph, model, cluster, config, fanouts, transform_first):
    del cluster, fanouts
    config = replace(
        config,
        fp_mode="raw",
        bp_mode="raw",
        transform_first=transform_first,
        cache_first_hop=False,
    )
    return ECGraphTrainer(
        graph, model, ClusterSpec(num_workers=1, num_servers=1), config
    )


def _make_dgl(graph, model, cluster, config, fanouts):
    return _standalone(graph, model, cluster, config, fanouts, True)


def _make_pyg(graph, model, cluster, config, fanouts):
    return _standalone(graph, model, cluster, config, fanouts, False)


def _make_distgnn(graph, model, cluster, config, fanouts):
    del fanouts
    config = replace(config, fp_mode="delayed", bp_mode="delayed")
    return ECGraphTrainer(graph, model, cluster, config)


def _make_ecgraph(graph, model, cluster, config, fanouts):
    del fanouts
    config = replace(config, fp_mode="reqec", bp_mode="resec")
    return ECGraphTrainer(graph, model, cluster, config)


def _make_noncp(graph, model, cluster, config, fanouts):
    del fanouts
    return ECGraphTrainer(graph, model, cluster, config.as_non_cp())


def _make_cponly(graph, model, cluster, config, fanouts):
    del fanouts
    return ECGraphTrainer(graph, model, cluster, config.as_cp_only())


def _sampled(graph, model, cluster, config, fanouts, online):
    backend = SampledGCNBackend(
        fanouts or default_fanouts(model.num_layers), online=online
    )
    return ECGraphTrainer(graph, model, cluster, config, backend=backend)


def _make_distdgl(graph, model, cluster, config, fanouts):
    config = replace(config, fp_mode="raw", bp_mode="raw")
    return _sampled(graph, model, cluster, config, fanouts, online=True)


def _make_ecgraph_s(graph, model, cluster, config, fanouts):
    config = replace(config, fp_mode="compress", bp_mode="resec")
    return _sampled(graph, model, cluster, config, fanouts, online=False)


def _ml_centered(graph, model, cluster, config, cache_fanouts):
    # No halo exchange: the policies would serve no channel.
    config = replace(config, fp_mode="raw", bp_mode="raw")
    return ECGraphTrainer(
        graph, model, cluster, config,
        backend=CachedKHopBackend(cache_fanouts),
    )


def _make_agl(graph, model, cluster, config, fanouts):
    return _ml_centered(
        graph, model, cluster, config,
        fanouts or default_fanouts(model.num_layers),
    )


def _make_aligraph(graph, model, cluster, config, fanouts):
    del fanouts
    # Full-graph mode: the cache keeps up to this many neighbours per
    # vertex per hop (a storage cap, not a sampling ratio).
    return _ml_centered(graph, model, cluster, config, [25] * model.num_layers)


SYSTEMS = {
    "dgl": _make_dgl,
    "pyg": _make_pyg,
    "distgnn": _make_distgnn,
    "ecgraph": _make_ecgraph,
    "noncp": _make_noncp,
    "cponly": _make_cponly,
    "distdgl": _make_distdgl,
    "ecgraph_s": _make_ecgraph_s,
    "agl": _make_agl,
    "aligraph": _make_aligraph,
}


def system_names() -> list[str]:
    return list(SYSTEMS)


def run_system(
    system: str,
    graph: GraphStoreBundle,
    num_layers: int = 2,
    hidden_dim: int = 16,
    num_workers: int = 6,
    num_epochs: int = 100,
    config: ECGraphConfig | None = None,
    cluster: ClusterSpec | None = None,
    fanouts: list[int] | None = None,
    patience: int | None = None,
) -> ConvergenceRun:
    """Build and train one named system; returns its convergence run.

    Args:
        system: Registry name (see :data:`SYSTEMS`).
        graph: Input graph.
        num_layers / hidden_dim: GNN architecture.
        num_workers: Cluster size (single-machine systems ignore it).
        num_epochs: Training iterations.
        config: Base configuration; each system overrides its exchange
            modes but inherits optimizer/seed/bits from here.
        cluster: Explicit topology overriding ``num_workers``.
        fanouts: Sampling ratios for the sampling-based systems.
        patience: Early-stopping patience on validation accuracy.
    """
    try:
        factory = SYSTEMS[system]
    except KeyError:
        known = ", ".join(sorted(SYSTEMS))
        raise KeyError(f"unknown system {system!r}; known: {known}") from None
    model = ModelConfig(num_layers=num_layers, hidden_dim=hidden_dim)
    spec = cluster or ClusterSpec(num_workers=num_workers)
    base = config or ECGraphConfig()
    with factory(graph, model, spec, base, fanouts) as trainer:
        return trainer.train(num_epochs, patience=patience, name=system)
