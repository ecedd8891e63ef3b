"""The retired resident-graph API the oracles were written against.

``src/`` has one graph type, :class:`~repro.graph.store.GraphStoreBundle`.
The parent-commit oracles predate that and read a resident record with a
``.features`` matrix and a :class:`CSRGraph` adjacency, or coerce their
inputs with ``as_topology`` / ``as_bundle``. This module keeps those
three names for them (their one edit is to import from here),
:func:`resident`, which turns a bundle into the record, and
:func:`to_scipy`, the scipy view the dense reference checks build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore, GraphStoreBundle
from repro.graph.store.memory import MemoryGraphStore, memory_bundle

__all__ = ["AttributedGraph", "as_bundle", "as_topology", "resident", "to_scipy"]


@dataclass
class AttributedGraph:
    """A fully resident attributed graph (the oracles' input record)."""

    adjacency: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int
    name: str = "unnamed"
    meta: dict = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def resident(bundle: GraphStoreBundle) -> AttributedGraph:
    """Every array of ``bundle`` in RAM (zero-copy on a memory bundle)."""
    return AttributedGraph(
        adjacency=bundle.adjacency.to_csr(),
        features=bundle.feature_store.to_array(),
        labels=bundle.labels,
        train_mask=bundle.train_mask,
        val_mask=bundle.val_mask,
        test_mask=bundle.test_mask,
        num_classes=bundle.num_classes,
        name=bundle.name,
        meta=dict(bundle.meta),
    )


def as_topology(graph: CSRGraph | GraphStore) -> GraphStore:
    """Coerce a :class:`CSRGraph` or :class:`GraphStore` to a store."""
    if isinstance(graph, GraphStore):
        return graph
    return MemoryGraphStore(graph)


def as_bundle(graph: AttributedGraph | GraphStoreBundle) -> GraphStoreBundle:
    """Coerce an :class:`AttributedGraph` or bundle to a bundle."""
    if isinstance(graph, GraphStoreBundle):
        return graph
    return memory_bundle(
        graph.adjacency, graph.features, graph.labels, graph.train_mask,
        graph.val_mask, graph.test_mask, graph.num_classes, graph.name,
        graph.meta,
    )


def to_scipy(graph: CSRGraph) -> csr_matrix:
    """``graph`` as a :class:`scipy.sparse.csr_matrix` (unit weights when
    it has none)."""
    data = (
        np.ones(graph.num_edges, dtype=np.float32)
        if graph.weights is None
        else graph.weights
    )
    n = graph.num_vertices
    return csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))
