"""Table II — algorithm costs: ML-centered framework vs EC-Graph.

Prints the analytical model for each dataset's parameters and validates
it empirically: measured cached-vertex counts for the ML-centered trainer
(memory ~ g^L) and measured wire bytes for EC-Graph (communication
~ T * L * g_rmt * d / (32/B)).
"""

from __future__ import annotations

from _helpers import bench_graph, dataset_header, fmt_bytes, run_once

from repro.analysis.costs import CostParameters, ecgraph_costs, ml_centered_costs
from repro.analysis.reporting import format_table
from repro.baselines import CachedKHopBackend
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.partition import HashPartitioner, partition_stats


def _analytic_rows():
    rows = []
    for name in ("cora", "reddit", "ogbn-products"):
        graph = bench_graph(name)
        partition = HashPartitioner().partition(graph.adjacency, 6)
        stats = partition_stats(graph.adjacency, partition)
        params = CostParameters(
            avg_degree=graph.adjacency.average_degree,
            avg_dim=32.0,
            input_dim=float(graph.feature_dim),
            num_layers=2,
            num_iterations=100,
            avg_remote_neighbors=stats.avg_remote_neighbors,
            bits=2,
        )
        ml = ml_centered_costs(params)
        ec = ecgraph_costs(params)
        rows.append([
            name,
            f"{ml.memory:.0f}",
            f"{ec.memory:.0f}",
            f"{ml.computation:.0f}",
            f"{ec.computation:.0f}",
            f"{ml.communication:.0f}",
            f"{ec.communication:.0f}",
        ])
    return rows


def test_table2_analytic_and_empirical(benchmark):
    rows = run_once(benchmark, _analytic_rows)
    print()
    print(format_table(
        ["dataset", "ML mem", "EC mem", "ML comp", "EC comp",
         "ML comm", "EC comm"],
        rows,
        title="Table II (analytical, per target vertex, abstract units)",
    ))

    # Empirical check on one dataset: ML-centered caches >> graph size;
    # EC-Graph per-epoch bytes shrink with B.
    graph = bench_graph("reddit")
    print(dataset_header("reddit"))
    ml = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=16),
        ClusterSpec(num_workers=6), ECGraphConfig(),
        backend=CachedKHopBackend([25, 25]),
    )
    ml.setup()
    cached = sum(state.num_local for state in ml.workers)
    redundancy = cached / graph.num_vertices
    print(f"ML-centered cached vertices: {cached:,} "
          f"({redundancy:.2f}x the graph — Table II's g^L memory blowup)")
    assert redundancy > 1.5

    measured = {}
    for bits in (2, 8):
        trainer = ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=16),
            ClusterSpec(num_workers=6),
            ECGraphConfig(fp_mode="compress", bp_mode="compress",
                          fp_bits=bits, bp_bits=bits, adaptive_bits=False),
        )
        trainer.run_epoch(0)
        measured[bits] = trainer.runtime.epoch_history[0].bytes_sent
    print(f"EC-Graph epoch bytes: B=2 -> {fmt_bytes(measured[2])}, "
          f"B=8 -> {fmt_bytes(measured[8])} "
          f"(ratio {measured[8] / measured[2]:.2f}, model predicts ~4)")
    assert 2.0 < measured[8] / measured[2] < 6.0
