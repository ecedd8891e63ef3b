"""The per-vertex-loop CSR helper ``with_self_loops`` before
vectorisation."""

import numpy as np

from repro.graph.csr import CSRGraph


def _reference_with_self_loops(self):
    """Return a copy with a self-loop added to every vertex.

    Vertices that already have a self-loop are left as-is so repeated
    application is idempotent. Existing weights are kept; new loops get
    weight 1.
    """
    n = self.num_vertices
    has_loop = np.zeros(n, dtype=bool)
    for v in range(n):
        if np.any(self.neighbors(v) == v):
            has_loop[v] = True
    extra = np.count_nonzero(~has_loop)
    if extra == 0:
        return CSRGraph(
            self.indptr.copy(),
            self.indices.copy(),
            None if self.weights is None else self.weights.copy(),
        )
    new_counts = np.diff(self.indptr) + (~has_loop)
    indptr_new = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr_new[1:])
    indices_new = np.empty(self.num_edges + extra, dtype=np.int64)
    weights_new = (
        None
        if self.weights is None
        else np.empty(self.num_edges + extra, dtype=np.float32)
    )
    for v in range(n):
        lo_old, hi_old = self.indptr[v], self.indptr[v + 1]
        lo_new = indptr_new[v]
        span = hi_old - lo_old
        indices_new[lo_new:lo_new + span] = self.indices[lo_old:hi_old]
        if weights_new is not None:
            weights_new[lo_new:lo_new + span] = self.weights[lo_old:hi_old]
        if not has_loop[v]:
            indices_new[lo_new + span] = v
            if weights_new is not None:
                weights_new[lo_new + span] = 1.0
    return CSRGraph(indptr_new, indices_new, weights_new)

