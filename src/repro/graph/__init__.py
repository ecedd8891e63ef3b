"""Graph substrate: CSR storage, attributed graphs, normalization,
synthetic generators matched to the paper's datasets, subgraph extraction
and (de)serialization.
"""

from repro.graph.attributed import AttributedGraph, make_split_masks
from repro.graph.csr import CSRGraph, from_edge_list, from_scipy
from repro.graph.datasets import (
    PAPER_STATS,
    DatasetStats,
    dataset_names,
    dataset_spec,
    load_dataset,
    scale_factor,
)
from repro.graph.generators import GraphSpec, generate_graph
from repro.graph.io import load_graph, save_graph
from repro.graph.normalize import gcn_normalize, normalized_adjacency, row_normalize
from repro.graph.rmat import RMATSpec, generate_rmat_graph
from repro.graph.subgraph import (
    LocalSubgraph,
    induced_subgraph,
    induced_subgraphs,
    khop_neighborhood,
    khop_sampled_neighborhood,
)

__all__ = [
    "AttributedGraph",
    "make_split_masks",
    "CSRGraph",
    "from_edge_list",
    "from_scipy",
    "PAPER_STATS",
    "DatasetStats",
    "dataset_names",
    "dataset_spec",
    "load_dataset",
    "scale_factor",
    "GraphSpec",
    "generate_graph",
    "load_graph",
    "save_graph",
    "RMATSpec",
    "generate_rmat_graph",
    "gcn_normalize",
    "normalized_adjacency",
    "row_normalize",
    "LocalSubgraph",
    "induced_subgraph",
    "induced_subgraphs",
    "khop_neighborhood",
    "khop_sampled_neighborhood",
]
