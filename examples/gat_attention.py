"""Train a Graph Attention Network with EC-Graph's compression pipeline.

The paper argues EC-Graph generalizes beyond GCN to any GNN exchanging
embeddings forward and embedding gradients backward, naming GAT
explicitly (section III-B). This example trains a distributed GAT
(single attention head; ``GATBackend(num_heads=...)`` for more) under
three exchange configurations and shows that the compression +
compensation machinery transfers unchanged:

    python examples/gat_attention.py
"""

from __future__ import annotations

from repro import ECGraphConfig
from repro.analysis.reporting import format_table
from repro.cluster import ClusterSpec
from repro.core import ECGraphTrainer, ModelConfig
from repro.engine import GATBackend
from repro.graph import load_dataset

EPOCHS = 60
WORKERS = 4


def main() -> None:
    graph = load_dataset("cora", profile="bench", seed=0)
    print(graph.summary())
    print()

    configs = [
        ("GAT raw", ECGraphConfig(fp_mode="raw", bp_mode="raw")),
        ("GAT Cp-2", ECGraphConfig(fp_mode="compress", bp_mode="compress",
                                   fp_bits=2, bp_bits=2,
                                   adaptive_bits=False)),
        ("GAT EC-2", ECGraphConfig(fp_mode="reqec", bp_mode="resec",
                                   fp_bits=2, bp_bits=2,
                                   adaptive_bits=False)),
    ]
    rows = []
    for name, config in configs:
        trainer = ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=16),
            ClusterSpec(num_workers=WORKERS), config,
            backend=GATBackend(),
        )
        run = trainer.train(EPOCHS, name=name)
        rows.append([
            name,
            run.best_test_accuracy(),
            run.final_test_accuracy,
            f"{run.total_bytes() / 1e6:.2f}MB",
        ])
    print(format_table(
        ["configuration", "best acc", "final acc", "traffic"],
        rows,
        title=f"Distributed GAT on {graph.name} ({WORKERS} workers)",
    ))
    print(
        "\nForward attention inputs ride the same halo exchange as GCN"
        "\nembeddings (ReqEC-FP applies); backward partial gradients use"
        "\nthe transport's reverse exchange (ResEC-BP applies)."
    )


if __name__ == "__main__":
    main()
