"""Spectral partitioning by recursive Fiedler-vector bisection.

A third quality-partitioning option next to the METIS-like multilevel
scheme: split on the sign/median of the Fiedler vector (the eigenvector
of the graph Laplacian's second-smallest eigenvalue), recursing until
the requested part count is reached. Spectral cuts are often excellent
on community-structured graphs but cost an eigensolve per bisection,
which is exactly the partitioning-time/quality trade-off the paper's
Fig. 11 discussion is about.

Non-power-of-two part counts are handled by splitting proportionally:
a region assigned ``k`` parts is bisected into ``ceil(k/2)`` and
``floor(k/2)`` shares at the matching quantile of the Fiedler vector.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore
from repro.partition.base import Partition

__all__ = ["SpectralPartitioner"]


class SpectralPartitioner:
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

    def partition(
        self, graph: CSRGraph | GraphStore, num_parts: int
    ) -> Partition:
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        start = time.perf_counter()
        if isinstance(graph, GraphStore):
            # Eigensolves need the whole operator; materialize up front
            # (spectral cuts are a small-graph quality option anyway).
            graph = graph.to_csr()
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
        return Partition(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=time.perf_counter() - start,
        )

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
        """Second-smallest Laplacian eigenvector of one region."""
        n = adjacency.shape[0]
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        if n < self.dense_below:
            laplacian = np.diag(degrees) - adjacency.toarray()
            _, vectors = np.linalg.eigh(laplacian)
            return vectors[:, 1]
        from scipy.sparse import diags

        laplacian = diags(degrees) - adjacency
        rng = np.random.default_rng(self.seed)
        v0 = rng.standard_normal(n)
        try:
            _, vectors = eigsh(laplacian, k=2, sigma=-1e-6, which="LM",
                               v0=v0, maxiter=2000)
            return vectors[:, 1]
        except Exception:
            # Lanczos can fail on disconnected regions; fall back to a
            # dense solve (regions reaching here are still moderate).
            laplacian = np.diag(degrees) - adjacency.toarray()
            _, vectors = np.linalg.eigh(laplacian)
            return vectors[:, 1]
