"""Compressed sparse row (CSR) adjacency storage.

Every subsystem in this repository — partitioners, the cluster engine, the
GNN math and the baselines — shares this one adjacency representation. The
graph is directed; an undirected graph stores both arcs. ``indptr`` and
``indices`` follow the scipy convention: the in/out-neighbours of vertex
``v`` are ``indices[indptr[v]:indptr[v + 1]]``.

:class:`CSRGraph` keeps optional per-edge weights: the GCN aggregation in
the paper (Eq. 2) runs over the normalized adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["CSRGraph", "from_edge_list"]


@dataclass
class CSRGraph:
    """A directed graph in CSR form.

    Attributes:
        indptr: ``(n + 1,)`` int64 row pointers.
        indices: ``(m,)`` int32/int64 column ids (edge targets per row).
        weights: Optional ``(m,)`` float32 edge weights aligned with
            ``indices``; ``None`` means all edges weigh 1.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"{self.indices.shape[0]} stored edges"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValueError("edge target out of range")
        if self.weights is not None:
            self.weights = np.ascontiguousarray(self.weights, dtype=np.float32)
            if self.weights.shape != self.indices.shape:
                raise ValueError("weights must align with indices")

    # ------------------------------------------------------------------
    # Basic shape queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0]

    @property
    def average_degree(self) -> float:
        n = self.num_vertices
        return self.num_edges / n if n else 0.0

    def degree(self, vertex: int | None = None) -> np.ndarray | int:
        """Out-degree of one vertex, or the full degree vector."""
        if vertex is None:
            return np.diff(self.indptr)
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """View of the neighbour ids of ``vertex`` (do not mutate)."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def edge_weights(self, vertex: int) -> np.ndarray:
        """Weights of the edges leaving ``vertex`` (ones if unweighted)."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        if self.weights is None:
            return np.ones(hi - lo, dtype=np.float32)
        return self.weights[lo:hi]

    def sources(self) -> np.ndarray:
        """``(m,)`` source vertex of every stored arc, aligned with ``indices``."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), np.diff(self.indptr)
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_self_loops(self) -> "CSRGraph":
        """Return a copy with a self-loop added to every vertex.

        Vertices that already have a self-loop are left as-is so repeated
        application is idempotent. Existing weights are kept; new loops get
        weight 1.
        """
        src = self.sources()
        needs_loop = np.ones(self.num_vertices, dtype=bool)
        needs_loop[src[src == self.indices]] = False
        missing = np.flatnonzero(needs_loop)
        # An appended loop takes the last slot of its row, i.e. it goes
        # in front of the next row's first entry.
        at = self.indptr[missing + 1]
        indptr = self.indptr.copy()
        indptr[1:] += np.cumsum(needs_loop)
        return CSRGraph(
            indptr,
            np.insert(self.indices, at, missing),
            None if self.weights is None else np.insert(self.weights, at, 1.0),
        )


def from_edge_list(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    num_vertices: int,
    weights: Sequence[float] | np.ndarray | None = None,
    deduplicate: bool = False,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an edge list.

    Args:
        edges: Iterable of ``(src, dst)`` pairs or an ``(m, 2)`` array.
        num_vertices: Total number of vertices ``n``; every endpoint must be
            in ``[0, n)``.
        weights: Optional per-edge weights aligned with ``edges``.
        deduplicate: Drop duplicate arcs, keeping the first occurrence.
    """
    edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
    if edge_array.size == 0:
        edge_array = np.empty((0, 2), dtype=np.int64)
    edge_array = edge_array.astype(np.int64, copy=False)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got {edge_array.shape}")
    if edge_array.size and (
        edge_array.min() < 0 or edge_array.max() >= num_vertices
    ):
        raise ValueError("edge endpoint out of range")

    weight_array = None
    if weights is not None:
        weight_array = np.asarray(weights, dtype=np.float32)
        if weight_array.shape != (edge_array.shape[0],):
            raise ValueError("weights must align with edges")

    if deduplicate and edge_array.shape[0]:
        keys = edge_array[:, 0].astype(np.int64) * num_vertices + edge_array[:, 1]
        _, keep = np.unique(keys, return_index=True)
        keep.sort()
        edge_array = edge_array[keep]
        if weight_array is not None:
            weight_array = weight_array[keep]

    order = np.argsort(edge_array[:, 0], kind="stable")
    edge_array = edge_array[order]
    if weight_array is not None:
        weight_array = weight_array[order]

    counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, edge_array[:, 1].astype(np.int64), weight_array)
