"""Adjacency normalization for GCN-style aggregation.

The paper's Eq. 2 uses the symmetric GCN normalization
``A_hat = D^{-1/2} (A + I) D^{-1/2}`` where ``D`` is the degree matrix of
``A + I``. GraphSAGE-mean corresponds to row normalization
``D^{-1} (A + I)``.
"""

from __future__ import annotations

from repro.graph.store.base import GraphStore
from repro.graph.store.normalized import NormalizedGraphStore

__all__ = ["normalized_adjacency"]


def normalized_adjacency(
    store: GraphStore, scheme: str = "gcn"
) -> NormalizedGraphStore:
    """Normalize ``store`` with the named scheme (``gcn`` or ``row``).

    Returns a lazy :class:`NormalizedGraphStore` view that assembles the
    self-loop augmented, degree-weighted rows block by block, so an
    out-of-core topology is never materialized.
    """
    return NormalizedGraphStore(store, scheme)
