"""Partition quality statistics.

These quantities drive the communication cost model: the number of *cut*
edges determines how many embedding messages cross machine boundaries each
layer, and ``avg_remote_neighbors`` is the paper's ``g_rmt`` in Table II.

All statistics stream adjacency blocks through the store API
(:mod:`repro.graph.store`), so they work unchanged on out-of-core graphs:
nothing here materializes the global column array or a per-vertex Python
set. Memory is bounded by ``O(n)`` bookkeeping plus one adjacency block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.store.base import GraphStore
from repro.partition.base import Partition

__all__ = [
    "PartitionStats",
    "partition_stats",
    "part_loads",
]


@dataclass(frozen=True)
class PartitionStats:
    """Quality metrics for one partition of one graph.

    Attributes:
        num_parts: Number of parts.
        edge_cut: Number of edges whose endpoints live on different parts.
        edge_cut_ratio: ``edge_cut / num_edges``.
        max_part_size / min_part_size: Extremes of the part sizes.
        balance: ``max_part_size / ideal`` where ideal is ``n / num_parts``.
        avg_remote_neighbors: Mean number of *distinct* remote 1-hop
            neighbours per vertex (the paper's ``g_rmt``).
        total_halo: Sum over parts of the distinct remote vertices each
            part must fetch per layer.
        max_part_halo: The largest of those per-part counts — what the
            busiest worker fetches per layer.
    """

    num_parts: int
    edge_cut: int
    edge_cut_ratio: float
    max_part_size: int
    min_part_size: int
    balance: float
    avg_remote_neighbors: float
    total_halo: int
    max_part_halo: int


def _block_sources(
    indptr: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Source vertex of every edge in rows ``[start, stop)``."""
    counts = np.diff(indptr[start:stop + 1])
    return np.repeat(np.arange(start, stop, dtype=np.int64), counts)


def partition_stats(
    store: GraphStore, partition: Partition
) -> PartitionStats:
    """Compute :class:`PartitionStats` for ``partition`` over ``store``."""
    if partition.num_vertices != store.num_vertices:
        raise ValueError("partition and graph vertex counts differ")
    assignment = partition.assignment
    n = store.num_vertices

    edge_cut = 0
    remote_per_vertex = np.zeros(n, dtype=np.int64)
    # halo_seen[p, u] marks that part p needs remote vertex u; summing
    # the rows gives the distinct-halo sizes without per-part sets.
    halo_seen = np.zeros((partition.num_parts, n), dtype=bool)
    for start, stop, indices, _ in store.iter_adjacency():
        src = _block_sources(store.indptr, start, stop)
        cut = assignment[src] != assignment[indices]
        edge_cut += int(np.count_nonzero(cut))
        if not cut.any():
            continue
        cut_src = src[cut]
        cut_dst = indices[cut]
        # Rows never span blocks, so deduplicating (src, dst) pairs
        # inside the block is exact per-vertex distinctness.
        pair_keys = np.unique(cut_src * n + cut_dst)
        uniq_src = pair_keys // n
        uniq_dst = pair_keys % n
        remote_per_vertex += np.bincount(uniq_src, minlength=n)
        halo_seen[assignment[uniq_src], uniq_dst] = True

    sizes = partition.part_sizes()
    part_halo = halo_seen.sum(axis=1)
    ideal = n / partition.num_parts
    num_edges = store.num_edges
    return PartitionStats(
        num_parts=partition.num_parts,
        edge_cut=edge_cut,
        edge_cut_ratio=edge_cut / num_edges if num_edges else 0.0,
        max_part_size=int(sizes.max()) if sizes.size else 0,
        min_part_size=int(sizes.min()) if sizes.size else 0,
        balance=float(sizes.max() / ideal) if ideal else 0.0,
        avg_remote_neighbors=float(remote_per_vertex.mean()),
        total_halo=int(part_halo.sum()),
        max_part_halo=int(part_halo.max()),
    )


def part_loads(
    store: GraphStore, assignment: np.ndarray, num_parts: int
) -> np.ndarray:
    """Per-part compute-load proxy: owned vertices plus incident edges.

    The elastic membership layer uses this to pick the least-loaded
    survivor when a dead worker's partition needs a new home — edge
    count dominates both the aggregation FLOPs and the halo traffic a
    part generates, and vertex count covers the dense layer work.

    Only the row pointers are read, so this is free even for out-of-core
    stores.
    """
    if assignment.shape[0] != store.num_vertices:
        raise ValueError("assignment does not match the graph")
    degrees = store.degrees().astype(np.int64)
    vertices = np.bincount(assignment, minlength=num_parts)
    edges = np.bincount(
        assignment, weights=degrees.astype(np.float64), minlength=num_parts
    ).astype(np.int64)
    return vertices + edges
