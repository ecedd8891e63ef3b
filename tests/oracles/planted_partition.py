"""The planted-partition edge sampler before its bulk rewrite: one
``random`` and up to two ``integers`` calls per vertex. The rewrite must
append the same key blocks to the sorter and leave the generator in the
same state, buffered 32-bit half included. Copied unedited; only the
imports are added."""

import numpy as np

from repro.graph.store.external import ExternalSorter
from repro.graph.streaming import _chunk_ranges


def _planted_partition_keys(
    labels: np.ndarray,
    degrees: np.ndarray,
    homophily: float,
    rng: np.random.Generator,
    sorter: ExternalSorter,
    chunk_vertices: int,
) -> None:
    """Sample undirected edges from a degree-corrected planted partition.

    Each vertex v draws ``max(degrees[v] // 2, 1)`` neighbour stubs; each
    stub picks a same-class partner with probability ``homophily`` and a
    uniformly random vertex otherwise (``random``, then up to two
    ``integers`` calls per vertex). Self-loops are dropped; kept edges
    are encoded as undirected keys ``lo * n + hi`` and appended to the
    sorter in vertex chunks, which deduplicates them.
    """
    n = labels.shape[0]
    num_classes = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(num_classes)]
    stubs = np.maximum(degrees // 2, 1)
    for start, stop in _chunk_ranges(n, chunk_vertices):
        chunk_keys: list[np.ndarray] = []
        for v in range(start, stop):
            k = int(stubs[v])
            same = rng.random(k) < homophily
            partners = np.empty(k, dtype=np.int64)
            n_same = int(same.sum())
            if n_same:
                pool = members[labels[v]]
                partners[same] = pool[rng.integers(0, pool.size, size=n_same)]
            n_diff = k - n_same
            if n_diff:
                partners[~same] = rng.integers(0, n, size=n_diff)
            kept = partners[partners != v]
            lo = np.minimum(kept, v)
            hi = np.maximum(kept, v)
            chunk_keys.append(lo * n + hi)
        if chunk_keys:
            sorter.append(np.concatenate(chunk_keys))
