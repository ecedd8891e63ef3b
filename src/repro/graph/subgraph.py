"""Subgraph extraction for the graph-centered path.

:func:`induced_subgraph` gives each worker exactly the vertices a
partitioner assigned to it, plus the cut edges that point at remote
vertices (the remote endpoints stay remote). The ML-centered path
(AliGraph/AGL), where a worker instead caches its targets' capped
L-hop neighbourhood with no halo at all, is
:func:`repro.baselines.ml_centered.capped_khop_subgraph` (a frontier
expansion) and its ``CachedKHopBackend``. It caps each hop's rows with
:func:`sample_capped_rows`, the one row sampler, which the sampled
backend (EC-Graph-S / DistDGL) runs over each worker's rows too.

:func:`induced_subgraph` streams the adjacency blocks of a
:class:`~repro.graph.store.GraphStore`, so extraction never materializes
the global column array — only the chunks that actually hold local rows
become resident (see ``docs/storage.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.store.base import GraphStore

__all__ = ["LocalSubgraph", "check_fanouts", "induced_subgraph",
           "induced_subgraphs", "ragged_positions", "sample_capped_rows"]


@dataclass
class LocalSubgraph:
    """A worker-local view of a partitioned graph.

    The subgraph keeps the *global* structure relevant to its local
    vertices: local rows of the adjacency, with columns relabelled into a
    compact space ``[0, num_local + num_remote)`` where local vertices come
    first, then remote (halo) vertices in sorted global order.

    Attributes:
        local_vertices: Global ids of the vertices owned by this worker.
        remote_vertices: Global ids of remote 1-hop neighbours (the halo).
        indptr / indices / weights: CSR rows for the local vertices, with
            column ids in the compact space.
    """

    local_vertices: np.ndarray
    remote_vertices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None

    @property
    def num_local(self) -> int:
        return self.local_vertices.shape[0]

    @property
    def num_remote(self) -> int:
        return self.remote_vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0]


def ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i] + lengths[i])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    flat_starts = np.cumsum(lengths) - lengths
    offsets = np.arange(total, dtype=np.int64) - np.repeat(flat_starts, lengths)
    return np.repeat(starts, lengths) + offsets


def check_fanouts(fanouts: Sequence[int]) -> list[int]:
    """``fanouts`` as a list, or ``ValueError`` unless each is an integer >= 1."""
    fanouts = list(fanouts)
    if not all(isinstance(f, (int, np.integer)) and not isinstance(f, bool)
               and f >= 1 for f in fanouts):
        raise ValueError(f"fanouts must be >= 1 and integers, got {fanouts}")
    return fanouts


def sample_capped_rows(
    indptr: np.ndarray, rows: np.ndarray, fanout: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Keep a uniform ``min(degree, fanout)`` of each of ``rows``' edges.

    Draws one uniform key per candidate edge and keeps each row's
    ``fanout`` smallest keys: sampling without replacement. Returns the
    kept edges' flat CSR positions and, aligned with them, the index into
    ``rows`` of the row each came from — rows in the given order, each
    row's kept edges in key order.
    """
    lengths = indptr[rows + 1] - indptr[rows]
    positions = ragged_positions(indptr[rows], lengths)
    row_index = np.repeat(np.arange(rows.size), lengths)
    # Keys are < 1, so sorting row + key shuffles within each row.
    order = np.argsort(row_index + rng.random(positions.size))
    rank = np.arange(positions.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    kept = order[rank < fanout]
    return positions[kept], row_index[kept]


def induced_subgraph(
    store: GraphStore, local_vertices: np.ndarray
) -> LocalSubgraph:
    """Extract the worker-local subgraph for a set of owned vertices.

    All edges leaving the owned vertices are kept; edges pointing at
    non-owned vertices make those targets part of the remote halo. The
    extraction streams adjacency blocks, so an out-of-core store has
    only the chunks holding local rows touched.
    """
    return induced_subgraphs(store, [local_vertices])[0]


def induced_subgraphs(
    store: GraphStore, vertex_sets: Sequence[np.ndarray]
) -> list[LocalSubgraph]:
    """One :func:`induced_subgraph` per vertex set from a single sweep.

    Every adjacency block is read (and, for a lazily normalized store,
    assembled) once however many sets there are — the way
    ``build_worker_states`` cuts a partitioned graph into its workers.
    """
    full_indptr = store.indptr
    n = store.num_vertices
    sets = [np.asarray(s, dtype=np.int64) for s in vertex_sets]
    # Rows are gathered in ascending global order (one pass over the
    # storage chunks) and scattered into their position in the caller's
    # ordering of each set.
    orders = [np.argsort(s, kind="stable") for s in sets]
    sorted_sets = [s[order] for s, order in zip(sets, orders)]
    for sorted_locals in sorted_sets:
        if np.any(sorted_locals[1:] == sorted_locals[:-1]):
            raise ValueError("local vertex set contains duplicates")
        if sorted_locals.size and (
            sorted_locals[0] < 0 or sorted_locals[-1] >= n
        ):
            raise IndexError("local vertex id out of range")
    indptrs = []
    for local_vertices in sets:
        indptr = np.zeros(local_vertices.size + 1, dtype=np.int64)
        np.cumsum(
            full_indptr[local_vertices + 1] - full_indptr[local_vertices],
            out=indptr[1:],
        )
        indptrs.append(indptr)
    columns = [np.empty(int(p[-1]), dtype=np.int64) for p in indptrs]
    weights = [
        np.empty(int(p[-1]), dtype=np.float32) if store.has_weights else None
        for p in indptrs
    ]
    last_row = max((int(s[-1]) for s in sorted_sets if s.size), default=-1)
    for start, stop, block_idx, block_w in store.iter_adjacency():
        if start > last_row:
            break
        for which, sorted_locals in enumerate(sorted_sets):
            lo, hi = np.searchsorted(sorted_locals, (start, stop))
            if lo == hi:
                continue
            sel = sorted_locals[lo:hi]
            lens = full_indptr[sel + 1] - full_indptr[sel]
            src = ragged_positions(full_indptr[sel] - full_indptr[start], lens)
            dst = ragged_positions(indptrs[which][orders[which][lo:hi]], lens)
            columns[which][dst] = block_idx[src]
            if weights[which] is not None:
                weights[which][dst] = block_w[src]

    # Compact relabel through one n-sized lookup, reset after each set:
    # local columns map to their position in the given ordering, remote
    # columns to num_local + rank in sorted halo order.
    compact = np.full(n, -1, dtype=np.int64)
    subgraphs = []
    for local_vertices, indptr, global_cols, w in zip(
        sets, indptrs, columns, weights
    ):
        compact[local_vertices] = np.arange(local_vertices.size, dtype=np.int64)
        compact[global_cols[compact[global_cols] < 0]] = -2
        remote_vertices = np.flatnonzero(compact == -2)
        compact[remote_vertices] = local_vertices.size + np.arange(
            remote_vertices.size, dtype=np.int64
        )
        subgraphs.append(LocalSubgraph(
            local_vertices=local_vertices,
            remote_vertices=remote_vertices,
            indptr=indptr,
            indices=compact[global_cols],
            weights=w,
        ))
        compact[local_vertices] = -1
        compact[remote_vertices] = -1
    return subgraphs
