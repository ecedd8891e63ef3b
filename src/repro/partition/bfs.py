"""Streaming BFS/LDG partitioning.

A middle ground between Hash and the METIS-like partitioner: vertices are
visited in BFS order and each is placed greedily where it has the most
already-placed neighbours, penalized by part fullness (the classic Linear
Deterministic Greedy rule). The paper defers streaming partitioners to
future work; we include one both as a baseline for Fig. 11-style sweeps
and because it needs nothing but the adjacency columns: a store-backed
graph is read once through the block API (8 B/edge resident, features
never touched), which is the cheapest locality-aware option for graphs
whose attributes do not fit in memory.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore
from repro.partition.base import Partitioner

__all__ = ["BFSPartitioner"]


class BFSPartitioner(Partitioner):
    """Linear Deterministic Greedy placement over a BFS vertex stream."""

    name = "bfs"

    def __init__(self, seed: int = 0, slack: float = 1.05):
        """Args:
        seed: Seed for BFS root selection.
        slack: Maximum allowed part size as a multiple of the ideal
            ``n / num_parts``; parts at capacity are skipped.
        """
        if slack < 1.0:
            raise ValueError("slack must be >= 1")
        self.seed = seed
        self.slack = slack

    def _assign(
        self, store: GraphStore, num_parts: int
    ) -> np.ndarray:
        # The traversal is random-access by nature, so the columns are
        # read once, block by block, into a resident array instead of
        # faulting a storage chunk per frontier hop.
        graph = store.to_csr()
        n = graph.num_vertices
        capacity = int(np.ceil(self.slack * n / num_parts))
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = [0] * num_parts
        rng = np.random.default_rng(self.seed)

        starts = graph.indptr.tolist()
        for v in self._bfs_order(graph, rng).tolist():
            parts = assignment[graph.indices[starts[v]:starts[v + 1]]]
            neighbour_counts = np.bincount(
                parts[parts >= 0], minlength=num_parts
            ).tolist()
            # LDG score: neighbours already in the part, scaled by the
            # remaining capacity fraction, so full parts become
            # unattractive; parts at capacity are skipped, ties go to the
            # lowest part id.
            best, best_score = -1, -np.inf
            for part, (count, size) in enumerate(zip(neighbour_counts, sizes)):
                if size < capacity:
                    score = count * (1.0 - size / capacity)
                    if score > best_score:
                        best, best_score = part, score
            if best < 0:
                best = sizes.index(min(sizes))
            assignment[v] = best
            sizes[best] += 1
        return assignment

    @staticmethod
    def _bfs_order(graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
        """Full BFS traversal order, restarting at random unvisited roots."""
        n = graph.num_vertices
        starts = graph.indptr.tolist()
        columns = graph.indices
        visited = [False] * n
        order: list[int] = []  # discovery order; doubles as the FIFO queue
        for root in rng.permutation(n).tolist():
            if visited[root]:
                continue
            visited[root] = True
            head = len(order)
            order.append(root)
            while head < len(order):
                v = order[head]
                head += 1
                for u in columns[starts[v]:starts[v + 1]].tolist():
                    if not visited[u]:
                        visited[u] = True
                        order.append(u)
        return np.array(order, dtype=np.int64)
