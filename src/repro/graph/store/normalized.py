"""A normalized-adjacency view over a :class:`GraphStore`.

Materializing the self-loop augmented, degree-weighted CSR is fine in
RAM and impossible out-of-core, so :class:`NormalizedGraphStore`
computes it lazily: the ``O(n)`` state (row pointers with self-loops,
inverse degree factors, which rows already had a loop) is resident, and
each adjacency block is assembled on demand from the base store's block.

The assembly follows :meth:`CSRGraph.with_self_loops` element for
element: missing self-loops are appended at the *end* of their row with
base weight 1, and the edge weights are
``base * d^{-1/2}[src] * d^{-1/2}[dst]`` (gcn) or ``base * d^{-1}[src]``
(row), with ``d`` the row sums of ``A + I``, computed in float64 and cast
to float32.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.store.base import GraphStore

__all__ = ["NormalizedGraphStore"]

_SCHEMES = ("gcn", "row")


class NormalizedGraphStore(GraphStore):
    """Lazily normalized topology (``gcn`` or ``row``) over a base store."""

    def __init__(self, base: GraphStore, scheme: str = "gcn") -> None:
        if scheme not in _SCHEMES:
            known = ", ".join(_SCHEMES)
            raise KeyError(
                f"unknown normalization {scheme!r}; known: {known}"
            )
        self._base = base
        self.scheme = scheme
        n = base.num_vertices
        base_indptr = base.indptr

        # One streaming pass finds which rows already carry a self-loop.
        has_loop = np.zeros(n, dtype=bool)
        for start, stop, indices, _ in base.iter_adjacency():
            counts = np.diff(base_indptr[start:stop + 1])
            src = np.repeat(
                np.arange(start, stop, dtype=np.int64), counts
            )
            loops = src[src == indices]
            if loops.size:
                has_loop[loops] = True
        self._needs_loop = ~has_loop

        new_counts = np.diff(base_indptr) + self._needs_loop
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        self._indptr = indptr

        # Degrees of A + I: row sums of the augmented graph, read off
        # the augmented indptr.
        degree = new_counts.astype(np.float64)
        factor = np.zeros(n, dtype=np.float64)
        nonzero = degree > 0
        if scheme == "gcn":
            factor[nonzero] = 1.0 / np.sqrt(degree[nonzero])
        else:
            factor[nonzero] = 1.0 / degree[nonzero]
        self._factor = factor

    # -- GraphStore surface --------------------------------------------
    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def has_weights(self) -> bool:
        return True

    def _assemble(
        self,
        start: int,
        stop: int,
        base_indices: np.ndarray,
        base_weights: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        base_indptr = self._base.indptr
        old_counts = np.diff(base_indptr[start:stop + 1])
        add = self._needs_loop[start:stop]
        new_counts = old_counts + add
        total = int(new_counts.sum())

        rel_indptr = np.zeros(new_counts.size + 1, dtype=np.int64)
        np.cumsum(new_counts, out=rel_indptr[1:])
        indices = np.empty(total, dtype=np.int64)
        base_vals = np.empty(total, dtype=np.float64)

        # Old entries keep their row-relative position; appended loops
        # take the last slot of their row (with_self_loops layout).
        old_total = int(old_counts.sum())
        if old_total:
            flat_starts = np.cumsum(old_counts) - old_counts
            offsets = (
                np.arange(old_total, dtype=np.int64)
                - np.repeat(flat_starts, old_counts)
            )
            old_pos = np.repeat(rel_indptr[:-1], old_counts) + offsets
            indices[old_pos] = base_indices
            base_vals[old_pos] = (
                1.0 if base_weights is None
                else base_weights.astype(np.float64)
            )
        loop_rows = np.flatnonzero(add)
        if loop_rows.size:
            loop_pos = rel_indptr[loop_rows + 1] - 1
            indices[loop_pos] = loop_rows + start
            base_vals[loop_pos] = 1.0

        src = np.repeat(
            np.arange(start, stop, dtype=np.int64), new_counts
        )
        if self.scheme == "gcn":
            weights = base_vals * self._factor[src] * self._factor[indices]
        else:
            weights = base_vals * self._factor[src]
        return indices, weights.astype(np.float32)

    def adjacency_block(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        base_indices, base_weights = self._base.adjacency_block(start, stop)
        return self._assemble(start, stop, base_indices, base_weights)

    def iter_adjacency(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
        for start, stop, base_indices, base_weights in (
            self._base.iter_adjacency()
        ):
            indices, weights = self._assemble(
                start, stop, base_indices, base_weights
            )
            yield start, stop, indices, weights
