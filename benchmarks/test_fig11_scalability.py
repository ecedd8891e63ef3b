"""Fig. 11 — scalability with the number of machines, Hash vs METIS.

Sweeps the cluster size for EC-Graph and EC-Graph-S under both
partitioning strategies and prints epoch time per configuration plus
edge-cut statistics.

Expected shape (paper section V-E): epoch time falls as machines are
added (compute shrinks faster than communication grows); METIS runs
faster than Hash thanks to its lower edge cut, but costs far more
partitioning time — the reason the paper defaults to Hash.
"""

from __future__ import annotations

from _helpers import HIDDEN, bench_graph, dataset_header, run_once

from repro.analysis.reporting import format_table
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend
from repro.partition import make_partitioner, partition_stats

DATASET = "reddit"
MACHINES = (2, 4, 6, 8)
EPOCHS = 4
# The paper's machines are 4-core Xeons working on graphs ~100x larger
# than our stand-ins, so their epochs are compute-dominated. Slowing the
# simulated machines relative to this host restores that regime (see
# DESIGN.md section 2); communication still differentiates Hash vs METIS.
COMPUTE_SPEED = 0.1


def _experiment():
    graph = bench_graph(DATASET)
    results = {}
    cut_ratios = {}
    partition_seconds = {}
    for method in ("hash", "metis"):
        for machines in MACHINES:
            partitioner = make_partitioner(method, seed=0)
            partition = partitioner.partition(graph.adjacency, machines)
            stats = partition_stats(graph.adjacency, partition)
            cut_ratios[(method, machines)] = stats.edge_cut_ratio
            partition_seconds[(method, machines)] = partition.seconds

            trainer = ECGraphTrainer(
                graph, ModelConfig(num_layers=2, hidden_dim=HIDDEN[DATASET]),
                ClusterSpec(num_workers=machines, compute_speed=COMPUTE_SPEED),
                ECGraphConfig(), partition=partition,
            )
            run = trainer.train(EPOCHS, name=f"ecgraph/{method}/{machines}")
            results[("ecgraph", method, machines)] = run.avg_epoch_seconds()
            results[("ecgraph-compute", method, machines)] = (
                sum(e.breakdown.compute_seconds for e in run.epochs)
                / run.num_epochs
            )
            results[("ecgraph-comm", method, machines)] = (
                sum(e.breakdown.comm_seconds for e in run.epochs)
                / run.num_epochs
            )

            sampled = ECGraphTrainer(
                graph, ModelConfig(num_layers=2, hidden_dim=HIDDEN[DATASET]),
                ClusterSpec(num_workers=machines, compute_speed=COMPUTE_SPEED),
                ECGraphConfig(fp_mode="compress", bp_mode="resec"),
                partition=partition,
                backend=SampledGCNBackend([10, 5]),
            )
            run_s = sampled.train(EPOCHS, name=f"ecgraph_s/{method}/{machines}")
            results[("ecgraph_s", method, machines)] = run_s.avg_epoch_seconds()
    return results, cut_ratios, partition_seconds


def test_fig11_scalability(benchmark):
    results, cut_ratios, partition_seconds = run_once(benchmark, _experiment)
    print()
    print(dataset_header(DATASET))
    headers = ["system/partitioner"] + [f"{m} machines" for m in MACHINES]
    rows = []
    for system in ("ecgraph", "ecgraph_s"):
        for method in ("hash", "metis"):
            rows.append(
                [f"{system}+{method}"]
                + [f"{results[(system, method, m)]:.4f}" for m in MACHINES]
            )
    print(format_table(headers, rows,
                       title="Fig. 11: epoch time (s) vs cluster size"))
    cut_rows = [
        [method]
        + [f"{cut_ratios[(method, m)]:.3f}" for m in MACHINES]
        + [f"{partition_seconds[(method, MACHINES[-1])]:.3f}s"]
        for method in ("hash", "metis")
    ]
    print(format_table(
        ["partitioner"] + [f"cut@{m}" for m in MACHINES] + ["partition time"],
        cut_rows,
    ))

    # Shape assertions:
    # 1. METIS cuts fewer edges than Hash at every cluster size.
    for machines in MACHINES:
        assert cut_ratios[("metis", machines)] < cut_ratios[("hash", machines)]
    # 2. METIS moves fewer bytes, so its communication time (a
    #    deterministic function of the exact wire bytes) beats Hash at
    #    the largest cluster; the epoch total is only loosely bounded
    #    because measured compute carries single-host timing noise.
    assert results[("ecgraph-comm", "metis", 8)] < (
        results[("ecgraph-comm", "hash", 8)]
    )
    assert results[("ecgraph", "metis", 8)] <= (
        1.5 * results[("ecgraph", "hash", 8)]
    )
    # 3. METIS partitioning costs much more than Hash (why the paper
    #    defaults to Hash on big graphs).
    assert partition_seconds[("metis", 8)] > 10 * partition_seconds[("hash", 8)]
    # 4. Scaling: adding machines shrinks the bottleneck worker's
    #    compute (the parallelism behind the paper's Fig. 11 downward
    #    slope). The compute component is asserted rather than the epoch
    #    total because single-host timing noise on the communication-
    #    latency side can mask the trend at these scaled-down sizes.
    assert results[("ecgraph-compute", "hash", 8)] < (
        0.9 * results[("ecgraph-compute", "hash", 2)]
    )
