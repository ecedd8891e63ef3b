"""The pre-rewrite partitioners: the multilevel coarsening and the
list-walking BFS/LDG partitioner, with their per-vertex Python loops
over ``graph.neighbors(v)`` / ``graph.edge_weights(v)``. Its one edit:
``as_topology`` is imported from ``oracles._graph`` since ``src/``
retired it."""

import time
from collections import deque

import numpy as np

from oracles._graph import as_topology
from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.store.base import GraphStore
from repro.partition.base import Partition


class _ReferenceMetisLikePartitioner:
    """The coarsening of the pre-rewrite multilevel partitioner. Its
    greedy growth and per-vertex refinement went when the partitioner's
    objective did (``tests/test_partition_quality.py`` holds the new
    contract); the heavy-edge matching and contraction stay pinned."""

    def _coarsen(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
        """Contract a heavy-edge matching; returns (coarse, mapping, weight).

        ``mapping[v]`` is the coarse vertex containing fine vertex ``v``.
        """
        n = graph.num_vertices
        match = np.full(n, -1, dtype=np.int64)
        visit_order = rng.permutation(n)
        for v in visit_order:
            if match[v] != -1:
                continue
            best_u = -1
            best_w = -1.0
            nbrs = graph.neighbors(int(v))
            weights = graph.edge_weights(int(v))
            for u, w in zip(nbrs, weights):
                u = int(u)
                if u != v and match[u] == -1 and w > best_w:
                    best_w = float(w)
                    best_u = u
            if best_u >= 0:
                match[v] = best_u
                match[best_u] = v
            else:
                match[v] = v

        mapping = np.full(n, -1, dtype=np.int64)
        next_id = 0
        for v in range(n):
            if mapping[v] != -1:
                continue
            mapping[v] = next_id
            partner = match[v]
            if partner != v and mapping[partner] == -1:
                mapping[partner] = next_id
            next_id += 1

        coarse_weight = np.zeros(next_id, dtype=np.int64)
        np.add.at(coarse_weight, mapping, vertex_weight)

        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        csrc = mapping[src]
        cdst = mapping[graph.indices]
        ew = (
            np.ones(graph.num_edges, dtype=np.float64)
            if graph.weights is None
            else graph.weights.astype(np.float64)
        )
        keep = csrc != cdst  # drop collapsed self-edges
        csrc, cdst, ew = csrc[keep], cdst[keep], ew[keep]
        # Merge parallel edges by accumulating weights.
        keys = csrc * next_id + cdst
        order = np.argsort(keys, kind="stable")
        keys, csrc, cdst, ew = keys[order], csrc[order], cdst[order], ew[order]
        unique_keys, starts = np.unique(keys, return_index=True)
        merged_w = np.add.reduceat(ew, starts) if keys.size else ew
        merged_src = csrc[starts] if keys.size else csrc
        merged_dst = cdst[starts] if keys.size else cdst
        edges = np.stack([merged_src, merged_dst], axis=1)
        coarse = from_edge_list(edges, next_id, weights=merged_w)
        return coarse, mapping, coarse_weight


class _ReferenceBFSPartitioner:
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

    def partition(
        self, graph: CSRGraph | GraphStore, num_parts: int
    ) -> Partition:
        start = time.perf_counter()
        # The traversal is random-access by nature; going through the
        # store keeps out-of-core inputs workable (the LRU residency
        # bounds memory), at the cost of chunk faults when the BFS
        # frontier hops across chunk boundaries.
        graph = as_topology(graph)
        n = graph.num_vertices
        capacity = int(np.ceil(self.slack * n / num_parts))
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(num_parts, dtype=np.int64)
        rng = np.random.default_rng(self.seed)

        order = self._bfs_order(graph, rng)
        for v in order:
            neighbour_counts = np.zeros(num_parts, dtype=np.float64)
            for u in graph.neighbors(int(v)):
                part = assignment[u]
                if part >= 0:
                    neighbour_counts[part] += 1.0
            # LDG score: neighbours already in the part, scaled by the
            # remaining capacity fraction, so full parts become unattractive.
            score = neighbour_counts * (1.0 - sizes / capacity)
            score[sizes >= capacity] = -np.inf
            best = int(np.argmax(score))
            if score[best] == -np.inf:
                best = int(np.argmin(sizes))
            assignment[v] = best
            sizes[best] += 1

        return Partition(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _bfs_order(graph: GraphStore, rng: np.random.Generator) -> np.ndarray:
        """Full BFS traversal order, restarting at random unvisited roots."""
        n = graph.num_vertices
        visited = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=np.int64)
        cursor = 0
        for root in rng.permutation(n):
            if visited[root]:
                continue
            queue = deque([int(root)])
            visited[root] = True
            while queue:
                v = queue.popleft()
                order[cursor] = v
                cursor += 1
                for u in graph.neighbors(v):
                    if not visited[u]:
                        visited[u] = True
                        queue.append(int(u))
        return order
