"""Partition results and the partitioner interface.

The Graph Engine calls a partitioner to divide the input graph into one
part per worker (paper section III-A). A :class:`Partition` is simply the
assignment vector plus convenience accessors, validated on construction so
every downstream consumer can rely on the invariants:

* every vertex is assigned to exactly one part,
* part ids are dense in ``[0, num_parts)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.store.base import GraphStore

__all__ = ["Partition", "Partitioner"]


@dataclass
class Partition:
    """An assignment of vertices to ``num_parts`` workers.

    Attributes:
        assignment: ``(n,)`` int array; ``assignment[v]`` is the owning part.
        num_parts: Number of parts (workers).
        method: Name of the algorithm that produced the partition.
        seconds: Wall-clock partitioning time (Fig. 9 charges preprocessing).
    """

    assignment: np.ndarray
    num_parts: int
    method: str = "unknown"
    seconds: float = 0.0

    def __post_init__(self):
        self.assignment = np.ascontiguousarray(self.assignment, dtype=np.int64)
        if self.assignment.ndim != 1:
            raise ValueError("assignment must be 1-D")
        if self.num_parts <= 0:
            raise ValueError("num_parts must be positive")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= self.num_parts
        ):
            raise ValueError("part id out of range")

    @property
    def num_vertices(self) -> int:
        return self.assignment.shape[0]

    def part_vertices(self, part: int) -> np.ndarray:
        """Global vertex ids owned by ``part`` (sorted ascending)."""
        if not 0 <= part < self.num_parts:
            raise IndexError(f"part {part} out of range [0, {self.num_parts})")
        return np.flatnonzero(self.assignment == part).astype(np.int64)

    def part_sizes(self) -> np.ndarray:
        """Vertex count per part."""
        return np.bincount(self.assignment, minlength=self.num_parts)

    def owner(self, vertex: int) -> int:
        """The part owning ``vertex``."""
        return int(self.assignment[vertex])


class Partitioner:
    """Base class of every partitioning algorithm.

    Partitioners take a :class:`~repro.graph.store.GraphStore` (possibly
    out-of-core). Hash never touches the columns; metis reads the whole
    topology once with :meth:`~repro.graph.store.GraphStore.to_csr`
    (zero-copy on a memory store) and is an in-memory algorithm.

    A subclass writes :meth:`_assign`; :meth:`partition` raises
    ``ValueError("num_parts must be positive")`` for ``num_parts <= 0``
    before touching the graph, times the call once, and wraps the
    assignment in a :class:`Partition`.
    """

    name: str

    def partition(
        self, graph: GraphStore, num_parts: int
    ) -> Partition:
        """Divide ``graph`` into ``num_parts`` parts."""
        if num_parts <= 0:
            raise ValueError("num_parts must be positive")
        start = time.perf_counter()
        assignment = self._assign(graph, num_parts)
        return Partition(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=time.perf_counter() - start,
        )

    def _assign(
        self, graph: GraphStore, num_parts: int
    ) -> np.ndarray:
        """The owning part of every vertex (``num_parts >= 1``)."""
        raise NotImplementedError
