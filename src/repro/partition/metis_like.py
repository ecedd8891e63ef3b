"""METIS-like multilevel edge-cut partitioner.

The paper uses METIS as its quality-partitioning option (Fig. 11). We
reimplement the multilevel scheme it popularized:

1. **Coarsen** — repeatedly contract a heavy-edge matching until the graph
   is small;
2. **Initial partition** — several seeded region growths on the coarsest
   graph, each refined, the best one kept;
3. **Uncoarsen + refine** — project the assignment back and run a
   balanced k-way refinement at every level: all vertices at once, one
   sparse product per round.

This is deliberately a faithful *algorithmic* reproduction rather than a
binding to the METIS C library. The objective is edge-cut weight, what
METIS and the paper minimise; what the wire carries is halo rows, so
communication volume (``PartitionStats.total_halo`` /
``max_part_halo``) is what gets reported and tested.

**What is pinned bit for bit: the coarsening.** ``_coarsen`` is the
per-vertex textbook loop restated over plain lists, and
``tests/test_partition_exact.py`` keeps the loop form as its oracle:
one ``rng.permutation`` per matching, heaviest free neighbour
first-in-row on ties, and contraction sums merged arcs after a stable
key sort so every float64 sum adds in the same order.

**What the rest promises** (``tests/test_partition_quality.py``):

* *seeded determinism* — same seed, same graph, same assignment, from
  a CSR or a store, at any BLAS thread count: one ``default_rng(seed)``
  stream drawn in a fixed order, every tie broken towards the lower
  index, and sums that are sequential (exact outright when the arc
  weights are integers, as on every coarse level of an unweighted
  graph);
* *balance is a bound on the result* — no part of the returned
  partition is heavier than ``imbalance`` times the ideal (rounded
  down, but never below a perfect split): a part over the cap sheds
  its least attached vertices until it is not;
* *never worse than a feasible start* — at every level refinement
  returns the best assignment it saw, so its cut is at most that of
  the projected assignment whenever the projection met the cap.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy.sparse import csr_matrix

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore
from repro.partition.base import Partitioner

__all__ = ["MetisLikePartitioner"]

# Region growths tried on the coarsest graph; the best refined one is kept.
_INITIAL_TRIALS = 8


def _float64_weights(graph: CSRGraph) -> np.ndarray:
    """Per-arc weights as float64 (ones for an unweighted graph)."""
    if graph.weights is None:
        return np.ones(graph.num_edges, dtype=np.float64)
    return graph.weights.astype(np.float64)


def _part_loads(
    assignment: np.ndarray, vertex_weight: np.ndarray, num_parts: int
) -> np.ndarray:
    """Total vertex weight per part (int64)."""
    return np.bincount(
        assignment, weights=vertex_weight, minlength=num_parts
    ).astype(np.int64)


class MetisLikePartitioner(Partitioner):
    """Multilevel heavy-edge-matching partitioner with balanced k-way
    refinement."""

    name = "metis"

    def __init__(
        self,
        seed: int = 0,
        coarsen_until: int = 256,
        refine_passes: int = 8,
        imbalance: float = 1.03,
    ):
        """Args:
        seed: Seed for matching order, region growth and the refinement
            coin.
        coarsen_until: Stop coarsening when at most this many vertices
            remain (or no matching progress is made).
        refine_passes: Cap on the refinement rounds per level. A round
            moves a random half of the vertices that gain, so eight
            rounds are about four sweeps. Rounds that lower the weight
            above the cap are not counted: the repair always finishes.
        imbalance: Bound on the *result*: the heaviest part weighs at
            most ``imbalance`` times the ideal ``n / num_parts``
            (rounded down; a perfect split, rounded up, when that is
            larger — ``imbalance=1.0`` on a 600-ring in 7 parts gives
            parts of at most 86). 1.03 is METIS's own default.
        """
        if imbalance < 1.0:
            raise ValueError("imbalance must be >= 1")
        self.seed = seed
        self.coarsen_until = max(coarsen_until, 8)
        self.refine_passes = refine_passes
        self.imbalance = imbalance

    # ------------------------------------------------------------------
    def _assign(
        self, store: GraphStore, num_parts: int
    ) -> np.ndarray:
        # Multilevel coarsening is a whole-graph in-memory algorithm: the
        # topology is read whole up front (zero-copy on a memory store).
        # Scale-bound deployments should partition with hash.
        graph = store.to_csr()
        rng = np.random.default_rng(self.seed)
        if num_parts == 1:
            return np.zeros(graph.num_vertices, dtype=np.int64)

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

        for fine_graph, mapping, fine_weight in reversed(levels):
            assignment = assignment[mapping]
            assignment = self._refine(
                fine_graph, fine_weight, assignment, num_parts, rng
            )
        return assignment

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
        """Best of ``_INITIAL_TRIALS`` refined region growths.

        One growth lands in whatever optimum its seeds sit next to; on
        the coarsest graph a trial costs a millisecond, so several are
        grown and refined and the best :meth:`_score` wins (the first
        one on ties).
        """
        trials = [
            self._refine(
                graph, vertex_weight,
                self._grow_regions(graph, vertex_weight, num_parts, rng),
                num_parts, rng,
            )
            for _ in range(_INITIAL_TRIALS)
        ]
        return min(
            trials,
            key=lambda trial: self._score(
                graph, vertex_weight, trial, num_parts
            ),
        )

    @staticmethod
    def _grow_regions(
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        num_parts: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Grow all parts at once, breadth first, lightest part next.

        The lightest part takes the oldest unassigned vertex on its
        frontier, or — not seeded yet, or fenced in by the others — the
        next unassigned vertex of a random permutation. Every step feeds
        the lightest part, so the parts end within one vertex weight of
        each other.
        """
        n = graph.num_vertices
        starts, columns = graph.indptr.tolist(), graph.indices.tolist()
        weight_of = vertex_weight.tolist()
        unseeded = iter(rng.permutation(n).tolist())
        assignment = [-1] * n
        load = [0] * num_parts
        frontiers = [deque() for _ in range(num_parts)]
        for _ in range(n):
            part = load.index(min(load))
            frontier = frontiers[part]
            v = -1
            while v < 0 or assignment[v] != -1:
                v = frontier.popleft() if frontier else next(unseeded)
            assignment[v] = part
            load[part] += weight_of[v]
            frontier.extend(columns[starts[v]:starts[v + 1]])
        return np.array(assignment, dtype=np.int64)

    # ------------------------------------------------------------------
    def _cap(self, vertex_weight: np.ndarray, num_parts: int) -> int:
        """Heaviest part this level may have.

        ``imbalance`` times the ideal, rounded down but never below a
        perfect split — plus, on a coarse level, room for two of its
        heaviest vertices: with none, contracted vertices as heavy as
        the whole slack cannot trade places, and the split communities
        that gridlock freezes in survive to the finest level (one run
        in twelve on a 4096-vertex SBM; none in 300 with it). Unit
        weights add nothing, so the finest level enforces the bound
        itself and sheds what the coarser ones let through.
        """
        total = int(vertex_weight.sum())
        heaviest = int(vertex_weight.max(initial=1))
        return max(
            int(self.imbalance * total / num_parts), -(-total // num_parts)
        ) + 2 * (heaviest - 1)

    def _score(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        assignment: np.ndarray,
        num_parts: int,
    ) -> tuple[int, float]:
        """``(weight above the cap, cut weight)``: lower is better, and
        any assignment that meets the cap beats any that does not."""
        load = _part_loads(assignment, vertex_weight, num_parts)
        cap = self._cap(vertex_weight, num_parts)
        cut = assignment[graph.sources()] != assignment[graph.indices]
        return (
            int(np.maximum(load - cap, 0).sum()),
            float(_float64_weights(graph)[cut].sum()),
        )

    def _refine(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        assignment: np.ndarray,
        num_parts: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Balanced k-way refinement, every vertex at once.

        Each round one sparse product gives ``connectivity[v, p]``, the
        weight of ``v``'s arcs into part ``p``. A vertex *wants* the
        part with room for it that it is most connected to; its gain is
        that connectivity minus the one to its own part. Movers are a
        random half of the positive-gain vertices (a synchronous round
        that moved both ends of an arc would swap them for ever) plus,
        from every part above the cap, its best-gain vertices up to the
        excess weight — the repair, whatever the gain. Each part then
        admits its movers, shed ones first, then best gain first, while
        they fit in the room it had when the round began.

        Returns the best-scoring (:meth:`_score`) assignment seen, the
        start included: a synchronous round can raise the cut, the
        result cannot. At most ``refine_passes`` rounds run that do not
        lower the weight above the cap; rounds that do are not counted,
        and there are no more of them than there is excess.
        """
        n = graph.num_vertices
        rows = np.arange(n, dtype=np.int64)
        arc_weights = _float64_weights(graph)
        adjacency = csr_matrix(
            (arc_weights, graph.indices, graph.indptr), shape=(n, n)
        )
        total_arc_weight = float(arc_weights.sum())
        cap = self._cap(vertex_weight, num_parts)

        best, best_score = assignment, (np.inf, np.inf)
        rounds_left, excess_before = self.refine_passes, np.inf
        while True:
            load = _part_loads(assignment, vertex_weight, num_parts)
            onehot = np.zeros((n, num_parts))
            onehot[rows, assignment] = 1.0
            connectivity = adjacency @ onehot
            own = connectivity[rows, assignment]
            excess = int(np.maximum(load - cap, 0).sum())
            score = (excess, total_arc_weight - float(own.sum()))
            if score < best_score:
                best, best_score = assignment, score
            if excess == 0 or excess >= excess_before:
                if rounds_left == 0:
                    break
                rounds_left -= 1
            excess_before = excess

            fits = vertex_weight[:, None] <= (cap - load)[None, :]
            towards = np.where(fits, connectivity, -np.inf)
            towards[rows, assignment] = -np.inf
            wanted = towards.argmax(axis=1)  # lowest part on ties
            gain = towards[rows, wanted] - own  # -inf: fits nowhere
            moving = (gain > 0) & (rng.random(n) < 0.5)
            shed = np.zeros(n, dtype=bool)
            for part in np.flatnonzero(load > cap).tolist():
                members = np.flatnonzero(
                    (assignment == part) & (gain > -np.inf)
                )
                members = members[np.argsort(-gain[members], kind="stable")]
                ahead = np.cumsum(vertex_weight[members])
                ahead -= vertex_weight[members]  # weight shed before each
                shed[members[ahead < load[part] - cap]] = True
            movers = np.flatnonzero(moving | shed)
            priority = np.where(shed[movers], np.inf, gain[movers])
            movers = movers[np.argsort(-priority, kind="stable")]

            admitted = np.zeros(n, dtype=bool)
            for part in range(num_parts):
                into = movers[wanted[movers] == part]
                fitting = np.cumsum(vertex_weight[into]) <= cap - load[part]
                admitted[into[fitting]] = True
            if not admitted.any():
                break
            assignment = np.where(admitted, wanted, assignment)
        return best
