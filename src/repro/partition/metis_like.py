"""METIS-like multilevel edge-cut partitioner.

The paper uses METIS as its quality-partitioning option (Fig. 11). We
reimplement the multilevel scheme it popularized:

1. **Coarsen** — repeatedly contract a heavy-edge matching until the graph
   is small;
2. **Initial partition** — greedy growth on the coarsest graph;
3. **Uncoarsen + refine** — project the assignment back and run
   boundary-vertex Kernighan-Lin/Fiduccia-Mattheyses style moves with a
   balance constraint at every level.

This is deliberately a faithful *algorithmic* reproduction rather than a
binding to the METIS C library: the experiments only rely on the relative
edge-cut gap between Hash and a locality-aware method.

**Exactness contract.** The implementation is the per-vertex textbook
loop ("visit every vertex in a random order; tally its neighbours'
weights per part; move it if that pays") restated so that the Python
interpreter only touches the vertices that matter — and it returns the
*same assignment bit for bit* (``tests/test_partition_exact.py`` keeps
the loop form as the oracle). Three things make that hold:

* **same permutation stream** — one ``rng.permutation`` per matching
  and per refinement pass actually run, drawn in the same order, with
  the same early exit after a pass that moves nothing;
* **same accumulation order** — every per-part gain is the float64 sum
  of a row's arc weights in CSR edge order (``np.bincount`` adds left
  to right), contraction sums merged arcs after the same stable key
  sort, and a gain row that a move invalidates is re-summed from its
  arcs rather than patched, unless every weight is an integer (then
  float64 sums are exact and patching *is* re-summing);
* **same tie-break** — heaviest free neighbour first-in-row on ties,
  best feasible part lowest-index on ties, strictly positive gain only.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore
from repro.graph.subgraph import ragged_positions
from repro.partition.base import Partition

__all__ = ["MetisLikePartitioner"]


def _float64_weights(graph: CSRGraph) -> np.ndarray:
    """Per-arc weights as float64 (ones for an unweighted graph)."""
    if graph.weights is None:
        return np.ones(graph.num_edges, dtype=np.float64)
    return graph.weights.astype(np.float64)


class MetisLikePartitioner:
    """Multilevel heavy-edge-matching partitioner with KL refinement."""

    name = "metis"

    def __init__(
        self,
        seed: int = 0,
        coarsen_until: int = 256,
        refine_passes: int = 4,
        imbalance: float = 1.1,
    ):
        """Args:
        seed: Seed for matching and growth tie-breaking.
        coarsen_until: Stop coarsening when at most this many vertices
            remain (or no matching progress is made).
        refine_passes: Refinement sweeps per level.
        imbalance: Bound on refinement *moves* only: a vertex never
            moves into a part that would then exceed ``imbalance`` times
            the ideal weight. It is not a bound on the result — greedy
            growth of the initial partition can overshoot it and
            refinement does not repair that (``imbalance=1.0`` on a
            600-ring in 7 parts ends with an 88-vertex part against an
            ideal of 86).
        """
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1")
        self.seed = seed
        self.coarsen_until = max(coarsen_until, 8)
        self.refine_passes = refine_passes
        self.imbalance = imbalance

    # ------------------------------------------------------------------
    def partition(
        self, graph: CSRGraph | GraphStore, num_parts: int
    ) -> Partition:
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        start = time.perf_counter()
        if isinstance(graph, GraphStore):
            # Multilevel coarsening is a whole-graph in-memory algorithm;
            # out-of-core inputs are materialized up front. Scale-bound
            # deployments should partition with hash or bfs instead.
            graph = graph.to_csr()
        rng = np.random.default_rng(self.seed)
        if num_parts == 1:
            assignment = np.zeros(graph.num_vertices, dtype=np.int64)
            return Partition(assignment, 1, self.name,
                             time.perf_counter() - start)

        levels: list[tuple[CSRGraph, np.ndarray, np.ndarray]] = []
        current = graph
        vertex_weight = np.ones(graph.num_vertices, dtype=np.int64)
        while current.num_vertices > self.coarsen_until:
            coarse, mapping, coarse_weight = self._coarsen(
                current, vertex_weight, rng
            )
            if coarse.num_vertices >= current.num_vertices:
                break  # matching made no progress (e.g. all isolated)
            levels.append((current, mapping, vertex_weight))
            current, vertex_weight = coarse, coarse_weight

        assignment = self._initial_partition(
            current, vertex_weight, num_parts, rng
        )
        assignment = self._refine(
            current, vertex_weight, assignment, num_parts, rng
        )

        for fine_graph, mapping, fine_weight in reversed(levels):
            assignment = assignment[mapping]
            assignment = self._refine(
                fine_graph, fine_weight, assignment, num_parts, rng
            )

        return Partition(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
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
        # Heavy-edge matching over plain lists (no numpy-scalar traffic):
        # each unmatched vertex takes its heaviest free neighbour, the
        # first one in row order on ties (unweighted: the first free one).
        starts = graph.indptr.tolist()
        columns = graph.indices
        heaviness = (
            np.ones(graph.num_edges, dtype=np.float32)
            if graph.weights is None
            else graph.weights
        )
        match = [-1] * n
        for v in rng.permutation(n).tolist():
            if match[v] != -1:
                continue
            match[v] = v  # also keeps self-loops out of the candidates
            lo, hi = starts[v], starts[v + 1]
            best_u = -1
            best_w = -1.0
            for u, w in zip(
                columns[lo:hi].tolist(), heaviness[lo:hi].tolist()
            ):
                if w > best_w and match[u] == -1:
                    best_w = w
                    best_u = u
            if best_u >= 0:
                match[v] = best_u
                match[best_u] = v

        # A pair is numbered by its smaller endpoint, in ascending order.
        representative = np.minimum(np.arange(n, dtype=np.int64), match)
        coarse_ids, mapping = np.unique(representative, return_inverse=True)
        num_coarse = coarse_ids.size
        coarse_weight = np.bincount(
            mapping, weights=vertex_weight, minlength=num_coarse
        ).astype(np.int64)

        csrc = np.repeat(mapping, np.diff(graph.indptr))
        cdst = mapping[graph.indices]
        kept = np.flatnonzero(csrc != cdst)  # drop collapsed self-edges
        keys = (csrc * num_coarse + cdst)[kept]
        ew = _float64_weights(graph)[kept]
        # Merge parallel edges by accumulating weights: the stable key
        # sort fixes the float64 summation order inside every run.
        order = np.argsort(keys, kind="stable")
        keys, ew = keys[order], ew[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]][:keys.size])
        keys = keys[first]
        row_base = np.arange(num_coarse + 1, dtype=np.int64) * num_coarse
        indptr = np.searchsorted(keys, row_base)
        merged_dst = keys - np.repeat(row_base[:-1], np.diff(indptr))
        coarse = CSRGraph(indptr, merged_dst, np.add.reduceat(ew, first))
        return coarse, mapping, coarse_weight

    # ------------------------------------------------------------------
    def _initial_partition(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        num_parts: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Greedy region growth on the coarsest graph."""
        n = graph.num_vertices
        total = int(vertex_weight.sum())
        target = total / num_parts
        assignment = np.full(n, -1, dtype=np.int64)
        load = np.zeros(num_parts, dtype=np.int64)
        order = rng.permutation(n)
        cursor = 0
        for part in range(num_parts):
            # Find an unassigned seed.
            while cursor < n and assignment[order[cursor]] != -1:
                cursor += 1
            if cursor >= n:
                break
            frontier = [int(order[cursor])]
            while frontier and load[part] < target:
                v = frontier.pop()
                if assignment[v] != -1:
                    continue
                assignment[v] = part
                load[part] += int(vertex_weight[v])
                for u in graph.neighbors(v):
                    if assignment[u] == -1:
                        frontier.append(int(u))
        # Scatter leftovers to the lightest parts.
        for v in np.flatnonzero(assignment == -1):
            part = int(np.argmin(load))
            assignment[v] = part
            load[part] += int(vertex_weight[v])
        return assignment

    # ------------------------------------------------------------------
    def _refine(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        assignment: np.ndarray,
        num_parts: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boundary-vertex greedy refinement with a balance constraint.

        Event-driven form of "visit every vertex in permutation order and
        move it to its best feasible part": a pass only evaluates the
        vertices that *can* move — those with more edge weight towards
        some other part than towards their own — popped in permutation
        order from a heap; a move refreshes the gain rows of the mover's
        in-neighbours and queues the ones still ahead in the permutation.
        """
        assignment = assignment.copy()
        n = graph.num_vertices
        total = int(vertex_weight.sum())
        max_load = int(np.ceil(self.imbalance * total / num_parts))
        load = np.bincount(
            assignment, weights=vertex_weight, minlength=num_parts
        ).astype(np.int64).tolist()
        weight_of = vertex_weight.tolist()

        indptr, indices = graph.indptr, graph.indices
        ew = _float64_weights(graph)
        rows = np.arange(n, dtype=np.int64)
        # gain[v, p]: weight of v's arcs into part p, accumulated in CSR
        # edge order (bincount adds left to right, like a per-row loop).
        flat_gain = np.bincount(
            graph.sources() * num_parts + assignment[indices],
            weights=ew,
            minlength=n * num_parts,
        )
        gain = flat_gain.reshape(n, num_parts)
        # Row v of the transpose lists the rows that hold an arc to v,
        # once per stored arc (parallel arcs and self-loops included).
        incoming = graph.transpose()
        in_ptr, in_src = incoming.indptr.tolist(), incoming.indices
        in_w = _float64_weights(incoming)
        # Sums of integer-valued weights are exact in float64, so patching
        # a gain row equals recomputing it; any other weights recompute.
        patchable = bool(
            np.all(ew == np.rint(ew)) and np.abs(ew).sum() < 2.0 ** 53
        )

        for _ in range(self.refine_passes):
            order = rng.permutation(n)
            position = np.empty(n, dtype=np.int64)
            position[order] = rows
            order = order.tolist()
            movable = gain.max(axis=1) > gain[rows, assignment]
            heap = np.sort(position[movable]).tolist()  # sorted == heap
            moved = 0
            last = -1
            while heap:
                at = heapq.heappop(heap)
                if at == last:
                    continue  # queued twice
                last = at
                v = order[at]
                here = int(assignment[v])
                gains = gain[v].tolist()
                stay = gains[here]
                w_v = weight_of[v]
                best, best_gain = here, 0.0
                for part, towards in enumerate(gains):
                    # Strict '>' keeps the lowest-index part on ties;
                    # ``here`` itself has gain 0 and never wins.
                    if (
                        towards - stay > best_gain
                        and load[part] + w_v <= max_load
                    ):
                        best, best_gain = part, towards - stay
                if best == here:
                    continue
                assignment[v] = best
                load[here] -= w_v
                load[best] += w_v
                moved += 1

                lo, hi = in_ptr[v], in_ptr[v + 1]
                seen_by = in_src[lo:hi]
                if patchable:
                    base = seen_by * num_parts
                    np.subtract.at(flat_gain, base + here, in_w[lo:hi])
                    np.add.at(flat_gain, base + best, in_w[lo:hi])
                    fresh = gain[seen_by]
                else:
                    # The same left-to-right sums a fresh visit would form.
                    lens = indptr[seen_by + 1] - indptr[seen_by]
                    arcs = ragged_positions(indptr[seen_by], lens)
                    base = np.arange(seen_by.size) * num_parts
                    fresh = np.bincount(
                        np.repeat(base, lens) + assignment[indices[arcs]],
                        weights=ew[arcs],
                        minlength=seen_by.size * num_parts,
                    ).reshape(-1, num_parts)
                    gain[seen_by] = fresh
                ahead = position[seen_by]
                wake = (ahead > at) & (
                    fresh.max(axis=1)
                    > fresh[np.arange(seen_by.size), assignment[seen_by]]
                )
                for later in ahead[wake].tolist():
                    heapq.heappush(heap, later)
            if moved == 0:
                break
        return assignment
