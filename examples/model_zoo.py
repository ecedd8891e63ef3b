"""Train GCN, GraphSAGE and GAT on the same cluster and compare.

Demonstrates the paper's generality claim (section III-B): the EC-Graph
pipeline is model-agnostic as long as the model exchanges embeddings in
the forward pass and embedding gradients in the backward pass. Each
model here runs with the full error-compensated pipeline through the
one ``ECGraphTrainer`` — ``ModelConfig.model`` picks GCN or GraphSAGE,
``backend=GATBackend()`` plugs in attention — then results are exported
to ``runs_model_zoo.json`` for downstream analysis.

    python examples/model_zoo.py
"""

from __future__ import annotations

from repro import ECGraphConfig
from repro.analysis.export import export_json
from repro.analysis.reporting import format_table
from repro.cluster import ClusterSpec
from repro.core import ECGraphTrainer, ModelConfig
from repro.engine import GATBackend
from repro.graph import load_dataset

EPOCHS = 80
WORKERS = 4


def main() -> None:
    graph = load_dataset("pubmed", profile="bench", seed=0)
    print(graph.summary())
    print()

    config = ECGraphConfig()  # the full paper pipeline
    spec = ClusterSpec(num_workers=WORKERS)

    trainers = {
        "GCN": ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=16), spec, config,
        ),
        "GraphSAGE": ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=16, model="sage"),
            spec, config,
        ),
        "GAT": ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=16), spec, config,
            backend=GATBackend(),
        ),
    }

    runs = []
    rows = []
    for name, trainer in trainers.items():
        run = trainer.train(EPOCHS, name=name, patience=30)
        runs.append(run)
        rows.append([
            name,
            run.num_epochs,
            run.best_test_accuracy(),
            run.final_test_accuracy,
            f"{run.total_bytes() / 1e6:.1f}MB",
            f"{run.avg_epoch_seconds() * 1e3:.2f}ms",
        ])
    print(format_table(
        ["model", "epochs", "best acc", "final acc", "traffic",
         "epoch time"],
        rows,
        title=f"Model zoo on {graph.name} with the full EC-Graph pipeline",
    ))

    export_json(runs, "runs_model_zoo.json")
    print("\nPer-epoch records exported to runs_model_zoo.json")


if __name__ == "__main__":
    main()
