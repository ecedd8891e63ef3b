"""Ablation — bucket quantization vs the compression baselines.

The paper positions bucket quantization against the classic ML
compressors it cites: top-k sparsification [32], 1-bit quantization [31]
(and float16 as the trivial option). This bench runs each codec as the
*forward* halo policy (backward stays raw so codecs are isolated)
and reports accuracy/traffic — evidence for why a value-domain bucket
scheme suits embeddings, whose information is dense across coordinates,
better than sparsification.
"""

from __future__ import annotations

from _helpers import HIDDEN, bench_graph, dataset_header, fmt_bytes, run_once

from repro.analysis.reporting import format_table
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.policies import Float16Policy, OneBitPolicy, TopKPolicy
from repro.core.trainer import ECGraphTrainer

DATASET = "reddit"
EPOCHS = 50
WORKERS = 6


def _run(name, fp_policy=None, config=None):
    graph = bench_graph(DATASET)
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=HIDDEN[DATASET]),
        ClusterSpec(num_workers=WORKERS),
        config or ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        fp_policy=fp_policy,
    )
    return trainer.train(EPOCHS, name=name)


def _experiment():
    return [
        _run("raw"),
        _run("bucket-2", config=ECGraphConfig(
            fp_mode="compress", bp_mode="raw", fp_bits=2,
            adaptive_bits=False,
        )),
        _run("bucket-2+EC", config=ECGraphConfig(
            fp_mode="reqec", bp_mode="raw", fp_bits=2,
            adaptive_bits=False,
        )),
        _run("float16", fp_policy=Float16Policy()),
        # k=2 of the 16 hidden dims ~= 1 byte/dim: the same
        # budget class as 8-bit buckets, far above 2-bit buckets.
        _run("topk-2", fp_policy=TopKPolicy(k=2)),
        _run("onebit", fp_policy=OneBitPolicy()),
    ]


def test_ablation_codecs(benchmark):
    runs = run_once(benchmark, _experiment)
    print()
    print(dataset_header(DATASET))
    rows = [
        [run.name, run.best_test_accuracy(), fmt_bytes(run.total_bytes())]
        for run in runs
    ]
    print(format_table(
        ["forward codec", "best acc", "traffic"],
        rows,
        title="Forward-compression codecs compared (backward raw)",
    ))

    by_name = {run.name: run for run in runs}
    raw_acc = by_name["raw"].best_test_accuracy()
    # float16 is effectively lossless for embeddings.
    assert by_name["float16"].best_test_accuracy() >= raw_acc - 0.02
    # Compensated 2-bit buckets beat 1-bit sign quantization on accuracy
    # while remaining in the same traffic class.
    assert (
        by_name["bucket-2+EC"].best_test_accuracy()
        >= by_name["onebit"].best_test_accuracy() - 0.02
    )
    # Dense embeddings punish sparsification: top-k with a comparable
    # budget loses accuracy relative to compensated buckets.
    assert (
        by_name["bucket-2+EC"].best_test_accuracy()
        >= by_name["topk-2"].best_test_accuracy() - 0.02
    )
