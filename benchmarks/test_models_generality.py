"""Extension — model generality: GCN vs GraphSAGE vs GAT under EC-Graph.

The paper claims its optimizations transfer to other GNNs exchanging the
same message types, evaluating GraphSAGE ("similar performance
improvements", section V-A) and describing GAT's integration (section
III-B). This bench runs all three models with raw vs error-compensated
exchange and reports the traffic reduction and accuracy retention per
model — the paper's generality claim, quantified.
"""

from __future__ import annotations

from _helpers import HIDDEN, bench_graph, dataset_header, fmt_bytes, run_once

from repro.analysis.reporting import format_table
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend

DATASET = "cora"
EPOCHS = 60
WORKERS = 4

RAW = ECGraphConfig(fp_mode="raw", bp_mode="raw")
EC = ECGraphConfig(fp_mode="reqec", bp_mode="resec", fp_bits=2, bp_bits=2,
                   adaptive_bits=False)


def _build(model_name, config):
    graph = bench_graph(DATASET)
    spec = ClusterSpec(num_workers=WORKERS)
    model = ModelConfig(
        num_layers=2, hidden_dim=HIDDEN[DATASET],
        model="sage" if model_name == "sage" else "gcn",
    )
    backend = GATBackend() if model_name == "gat" else None
    return ECGraphTrainer(graph, model, spec, config, backend=backend)


def _experiment():
    results = {}
    for model_name in ("gcn", "sage", "gat"):
        for label, config in (("raw", RAW), ("ec", EC)):
            run = _build(model_name, config).train(
                EPOCHS, name=f"{model_name}-{label}"
            )
            results[(model_name, label)] = run
    return results


def test_models_generality(benchmark):
    results = run_once(benchmark, _experiment)
    print()
    print(dataset_header(DATASET))
    rows = []
    for model_name in ("gcn", "sage", "gat"):
        raw = results[(model_name, "raw")]
        ec = results[(model_name, "ec")]
        rows.append([
            model_name,
            raw.best_test_accuracy(),
            ec.best_test_accuracy(),
            fmt_bytes(raw.total_bytes()),
            fmt_bytes(ec.total_bytes()),
            f"{raw.total_bytes() / max(ec.total_bytes(), 1):.2f}x",
        ])
    print(format_table(
        ["model", "raw acc", "EC acc", "raw traffic", "EC traffic",
         "traffic reduction"],
        rows,
        title="EC-Graph generality across GNN models (B=2)",
    ))

    # Shape: for every model, EC keeps accuracy within noise of raw and
    # reduces traffic by a real factor.
    for model_name in ("gcn", "sage", "gat"):
        raw = results[(model_name, "raw")]
        ec = results[(model_name, "ec")]
        assert ec.best_test_accuracy() >= raw.best_test_accuracy() - 0.05
        assert ec.total_bytes() < 0.6 * raw.total_bytes()
