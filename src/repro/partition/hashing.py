"""Hash partitioning — the paper's default.

Vertices are assigned round-robin by id (equal-vertex partitioning with
Hash, section V-D), which is essentially free to compute — the paper
reports 2.05 s on OGBN-Products with a single thread — but ignores
locality, so it produces the largest edge cut of the implemented methods.
"""

from __future__ import annotations

import numpy as np

from repro.graph.store.base import GraphStore
from repro.partition.base import Partitioner

__all__ = ["HashPartitioner"]


class HashPartitioner(Partitioner):
    """Assign vertex ``v`` to part ``hash(v) % num_parts``.

    With ``salt == 0`` this degenerates to ``v % num_parts`` (round-robin),
    which is both the fastest option and perfectly balanced. A non-zero
    salt mixes the ids first, which matters when vertex ids correlate with
    community structure.

    Hash partitioning never touches the adjacency columns, which makes it
    the only partitioner that is free even for out-of-core
    :class:`~repro.graph.store.GraphStore` inputs — the large bench tier
    relies on this.
    """

    name = "hash"

    def __init__(self, salt: int = 0):
        self.salt = salt

    def _assign(
        self, graph: GraphStore, num_parts: int
    ) -> np.ndarray:
        ids = np.arange(graph.num_vertices, dtype=np.uint64)
        if self.salt:
            # Fibonacci hashing: multiply by 2^64 / phi and fold.
            ids = (ids + np.uint64(self.salt)) * np.uint64(0x9E3779B97F4A7C15)
        return (ids % np.uint64(num_parts)).astype(np.int64)
