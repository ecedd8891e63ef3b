"""Shared infrastructure for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures on the
simulated substrate and prints the same rows/series the paper reports.
Graphs come from the ``bench`` profile of the dataset registry (scaled-down
stand-ins; see DESIGN.md section 2); scale factors are printed so the
output is honest about the substitution.

Set ``REPRO_BENCH_PROFILE=tiny`` for a fast smoke pass or ``full`` for the
largest sizes the simulator handles.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.core.results import ConvergenceRun
from repro.graph.datasets import load_dataset, scale_factor
from repro.graph.store.base import GraphStoreBundle

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "bench")

# Model sizes per dataset, following the paper (hidden 16 for the citation
# graphs, 256 for OGBN — scaled to 32 here to keep bench time sane).
HIDDEN = {
    "cora": 16,
    "pubmed": 16,
    "reddit": 16,
    "ogbn-products": 32,
    "ogbn-papers": 32,
}

# Default layer count per dataset (paper section V-A: 2/2/2/3/3).
LAYERS = {
    "cora": 2,
    "pubmed": 2,
    "reddit": 2,
    "ogbn-products": 3,
    "ogbn-papers": 3,
}


@lru_cache(maxsize=None)
def bench_graph(name: str, seed: int = 0) -> GraphStoreBundle:
    """Load (and cache) one bench-profile dataset."""
    return load_dataset(name, profile=PROFILE, seed=seed)


def dataset_header(name: str) -> str:
    """One line stating the substitution applied to a paper dataset."""
    graph = bench_graph(name)
    factor = scale_factor(name, PROFILE)
    return (
        f"{name}: simulated stand-in, {graph.num_vertices:,} vertices "
        f"(paper: {graph.meta['paper_vertices']:,}; scale 1/{factor:.0f}), "
        f"avg degree {graph.adjacency.average_degree:.1f}"
    )


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    The experiments are end-to-end training runs; repeating them for
    statistical timing would multiply bench time without adding signal,
    so every table/figure bench uses a single round.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def fmt_bytes(num_bytes: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(num_bytes) < 1024:
            return f"{num_bytes:.1f}{unit}"
        num_bytes /= 1024
    return f"{num_bytes:.1f}TB"


def seconds_or_dash(value: float | None) -> str:
    return f"{value:.3f}" if value is not None else "-"


def epochs_or_dash(run: ConvergenceRun, target: float) -> str:
    for result in run.epochs:
        if result.test_accuracy >= target:
            return str(result.epoch + 1)
    return "-"
