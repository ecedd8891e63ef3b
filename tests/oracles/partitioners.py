"""The pre-rewrite multilevel coarsening, with its per-vertex Python
loops over ``graph.neighbors(v)`` / ``graph.edge_weights(v)``."""

import numpy as np

from repro.graph.csr import CSRGraph, from_edge_list


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
