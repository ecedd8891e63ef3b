"""Spectral partitioning by recursive Fiedler-vector bisection.

A third quality-partitioning option next to the METIS-like multilevel
scheme: split on a quantile of the Fiedler vector of the normalized
Laplacian ``I - D^-1/2 A D^-1/2``, recursing until the requested part
count is reached. The vector is found as the second *largest* eigenpair
of ``D^-1/2 A D^-1/2`` — plain Lanczos on a sparse product, nothing
factorised, so a region costs memory in proportion to its arcs. Spectral cuts are often excellent
on community-structured graphs but cost an eigensolve per bisection,
which is exactly the partitioning-time/quality trade-off the paper's
Fig. 11 discussion is about.

Non-power-of-two part counts are handled by splitting proportionally:
a region assigned ``k`` parts is bisected into ``ceil(k/2)`` and
``floor(k/2)`` shares at the matching quantile of the Fiedler vector.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import ArpackError, eigsh

from repro.graph.store.base import GraphStore
from repro.partition.base import Partitioner

__all__ = ["SpectralPartitioner"]

# A region Lanczos gives up on is solved densely only below this many
# vertices (32 MiB of float64); above it the failure is reported.
_DENSE_FALLBACK_BELOW = 2048


class SpectralPartitioner(Partitioner):
    """Recursive spectral bisection."""

    name = "spectral"

    def __init__(self, seed: int = 0, dense_below: int = 128):
        """Args:
        seed: Seed for the eigensolver's start vector.
        dense_below: Regions smaller than this use a dense eigensolve
            (sparse Lanczos is unreliable on tiny matrices).
        """
        self.seed = seed
        self.dense_below = max(dense_below, 8)

    def _assign(
        self, store: GraphStore, num_parts: int
    ) -> np.ndarray:
        # Eigensolves need the whole operator, read whole up front
        # (spectral cuts are a small-graph quality option anyway).
        graph = store.to_csr()
        n = graph.num_vertices
        assignment = np.zeros(n, dtype=np.int64)
        if num_parts > 1:
            adjacency = graph.to_scipy()
            # Symmetrize: spectral bisection needs an undirected view.
            adjacency = adjacency.maximum(adjacency.T)
            self._bisect(
                adjacency,
                np.arange(n, dtype=np.int64),
                assignment,
                first_part=0,
                num_parts=num_parts,
            )
        return assignment

    # ------------------------------------------------------------------
    def _bisect(
        self,
        adjacency: csr_matrix,
        vertices: np.ndarray,
        assignment: np.ndarray,
        first_part: int,
        num_parts: int,
    ) -> None:
        """Assign ``vertices`` the parts [first_part, first_part+num_parts)."""
        if num_parts == 1 or vertices.size <= num_parts:
            # Too few vertices to split spectrally: round-robin the rest.
            assignment[vertices] = first_part + (
                np.arange(vertices.size) % num_parts
            )
            return

        left_parts = (num_parts + 1) // 2
        fraction = left_parts / num_parts
        sub = adjacency[vertices][:, vertices]
        fiedler = self._fiedler_vector(sub)

        threshold = np.quantile(fiedler, fraction)
        left_mask = fiedler <= threshold
        # Guard against degenerate splits (constant Fiedler vector).
        if left_mask.all() or not left_mask.any():
            order = np.argsort(fiedler, kind="stable")
            left_mask = np.zeros(vertices.size, dtype=bool)
            left_mask[order[: int(vertices.size * fraction)]] = True

        self._bisect(adjacency, vertices[left_mask], assignment,
                     first_part, left_parts)
        self._bisect(adjacency, vertices[~left_mask], assignment,
                     first_part + left_parts, num_parts - left_parts)

    def _fiedler_vector(self, adjacency: csr_matrix) -> np.ndarray:
        """Fiedler vector of one region's normalized Laplacian."""
        n = adjacency.shape[0]
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        scale = np.zeros(n)
        np.divide(1.0, np.sqrt(degrees), out=scale, where=degrees > 0)
        normalized = diags(scale) @ adjacency @ diags(scale)
        if n >= self.dense_below:
            v0 = np.random.default_rng(self.seed).standard_normal(n)
            try:
                # Ascending: column 0 is the second-largest eigenpair.
                _, vectors = eigsh(normalized, k=2, which="LA", v0=v0)
            except ArpackError:
                # Lanczos can stall on disconnected or tied regions.
                if n >= _DENSE_FALLBACK_BELOW:
                    raise ValueError(
                        f"spectral: Lanczos did not converge on a "
                        f"{n}-vertex region, too large to solve densely"
                    ) from None
            else:
                return scale * vectors[:, 0]
        _, vectors = np.linalg.eigh(normalized.toarray())
        return scale * vectors[:, -2]
