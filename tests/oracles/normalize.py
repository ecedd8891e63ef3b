"""The eager GCN / row normalization ``src/`` shipped before the lazy
:class:`~repro.graph.store.normalized.NormalizedGraphStore` became the
only normalizer, verbatim. ``NormalizedGraphStore(store, scheme).to_csr()``
is pinned against it bit for bit; it is called with
``add_self_loops=True``, as ``normalized_adjacency`` called it."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["gcn_normalize", "row_normalize"]


def gcn_normalize(graph: CSRGraph, add_self_loops: bool = True) -> CSRGraph:
    """Symmetric GCN normalization ``D^{-1/2} (A + I) D^{-1/2}``.

    The degree used is the degree of the (self-loop augmented) graph, i.e.
    row sums of ``A + I``. Isolated vertices receive a normalized self-loop
    of weight 1 so their embedding is preserved through aggregation.
    """
    base = graph.with_self_loops() if add_self_loops else graph
    n = base.num_vertices
    # Degree of A (+I): in the GCN convention degrees come from row sums.
    degree = np.diff(base.indptr).astype(np.float64)
    inv_sqrt = np.zeros(n, dtype=np.float64)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(base.indptr))
    base_weights = (
        np.ones(base.num_edges, dtype=np.float64)
        if base.weights is None
        else base.weights.astype(np.float64)
    )
    weights = base_weights * inv_sqrt[src] * inv_sqrt[base.indices]
    return CSRGraph(base.indptr.copy(), base.indices.copy(),
                    weights.astype(np.float32))


def row_normalize(graph: CSRGraph, add_self_loops: bool = False) -> CSRGraph:
    """Row normalization ``D^{-1} A`` (GraphSAGE-mean aggregation)."""
    base = graph.with_self_loops() if add_self_loops else graph
    n = base.num_vertices
    degree = np.diff(base.indptr).astype(np.float64)
    inv = np.zeros(n, dtype=np.float64)
    nonzero = degree > 0
    inv[nonzero] = 1.0 / degree[nonzero]
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(base.indptr))
    base_weights = (
        np.ones(base.num_edges, dtype=np.float64)
        if base.weights is None
        else base.weights.astype(np.float64)
    )
    weights = base_weights * inv[src]
    return CSRGraph(base.indptr.copy(), base.indices.copy(),
                    weights.astype(np.float32))

