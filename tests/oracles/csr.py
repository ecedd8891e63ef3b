"""The per-vertex-loop CSR helpers ``with_self_loops``,
``sorted_rows`` and ``transpose`` before vectorisation."""

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


def _reference_sorted_rows(self):
    """Return a copy whose neighbour lists are sorted ascending."""
    indices = self.indices.copy()
    weights = None if self.weights is None else self.weights.copy()
    for v in range(self.num_vertices):
        lo, hi = self.indptr[v], self.indptr[v + 1]
        order = np.argsort(indices[lo:hi], kind="stable")
        indices[lo:hi] = indices[lo:hi][order]
        if weights is not None:
            weights[lo:hi] = weights[lo:hi][order]
    out = CSRGraph(self.indptr.copy(), indices, weights)
    out._sorted_rows = True
    return out


def _reference_transpose(self):
    """Return the reverse graph (in-neighbour lists), weights carried."""
    n, m = self.num_vertices, self.num_edges
    counts = np.bincount(self.indices, minlength=n)
    indptr_t = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_t[1:])
    indices_t = np.empty(m, dtype=np.int64)
    weights_t = None if self.weights is None else np.empty(m, dtype=np.float32)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
    order = np.argsort(self.indices, kind="stable")
    indices_t[:] = src[order]
    if weights_t is not None:
        weights_t[:] = self.weights[order]
    return CSRGraph(indptr_t, indices_t, weights_t)
