"""Graph substrate: CSR storage, the one graph type (a store bundle;
``memory_bundle`` builds a resident one), normalization, the streaming
generators behind the paper-matched datasets, subgraph extraction and the
on-disk ECGSTORE directory (``to_mmap_bundle`` writes one,
``open_bundle`` validates and reopens it).
"""

from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.datasets import (
    PAPER_STATS,
    DatasetStats,
    dataset_names,
    dataset_spec,
    load_dataset,
    scale_factor,
)
from repro.graph.generators import GraphSpec
from repro.graph.normalize import normalized_adjacency
from repro.graph.rmat import RMATSpec
from repro.graph.store import (
    GraphStoreBundle,
    memory_bundle,
    open_bundle,
    to_mmap_bundle,
)
from repro.graph.streaming import stream_graph, stream_rmat_graph
from repro.graph.subgraph import (
    LocalSubgraph,
    induced_subgraph,
    induced_subgraphs,
)

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "PAPER_STATS",
    "DatasetStats",
    "dataset_names",
    "dataset_spec",
    "load_dataset",
    "scale_factor",
    "GraphSpec",
    "RMATSpec",
    "stream_graph",
    "stream_rmat_graph",
    "GraphStoreBundle",
    "memory_bundle",
    "open_bundle",
    "to_mmap_bundle",
    "normalized_adjacency",
    "LocalSubgraph",
    "induced_subgraph",
    "induced_subgraphs",
]
