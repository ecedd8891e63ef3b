"""EC-Graph-S: the sampling training mode on a large-graph stand-in.

Full-batch training touches every edge every epoch; the sampling mode
(paper section V, EC-Graph-S) caps each vertex's aggregation at a
per-layer fanout, shrinking both compute and the remote halo. This
example contrasts, on the OGBN-Papers stand-in:

* full-batch EC-Graph,
* EC-Graph-S with offline sampling (sampled once, in preprocessing),
* a DistDGL-style configuration with online re-sampling every epoch.

    python examples/sampling_mode.py
"""

from __future__ import annotations

from repro import ECGraphConfig
from repro.analysis.reporting import format_table
from repro.cluster import ClusterSpec
from repro.core import ECGraphTrainer, ModelConfig
from repro.engine import SampledGCNBackend
from repro.graph import load_dataset

EPOCHS = 60
WORKERS = 6
FANOUTS = [10, 10, 10]  # the paper's OGBN-Papers sampling ratios


def main() -> None:
    graph = load_dataset("ogbn-papers", profile="bench", seed=0)
    print(graph.summary())
    print(f"(paper graph: {graph.meta['paper_vertices']:,} vertices; "
          f"scale 1/{graph.meta['scale_factor']:.0f})")
    print()

    model = ModelConfig(num_layers=3, hidden_dim=32)
    spec = ClusterSpec(num_workers=WORKERS)

    full = ECGraphTrainer(graph, model, spec, ECGraphConfig())
    full_run = full.train(EPOCHS, name="EC-Graph (full batch)")

    offline = ECGraphTrainer(
        graph, model, spec,
        ECGraphConfig(fp_mode="compress", bp_mode="resec"),
        backend=SampledGCNBackend(FANOUTS, online=False),
    )
    offline_run = offline.train(EPOCHS, name="EC-Graph-S (offline)")

    online = ECGraphTrainer(
        graph, model, spec,
        ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        backend=SampledGCNBackend(FANOUTS, online=True),
    )
    online_run = online.train(EPOCHS, name="DistDGL-style (online)")

    rows = []
    for run in (full_run, offline_run, online_run):
        rows.append([
            run.name,
            f"{run.avg_epoch_seconds() * 1e3:.2f}ms",
            run.best_test_accuracy(),
            f"{run.total_bytes() / 1e6:.1f}MB",
            f"{run.preprocessing_seconds:.2f}s",
        ])
    print(format_table(
        ["mode", "epoch time", "best acc", "traffic", "preprocess"],
        rows,
        title=f"Sampling modes on {graph.name}, 3-layer GCN",
    ))
    print(
        "\nOffline sampling pays once in preprocessing; online sampling"
        "\npays every epoch — the cost the paper identifies as dominating"
        "\nDistDGL on bandwidth-constrained clusters."
    )


if __name__ == "__main__":
    main()
