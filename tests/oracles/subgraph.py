"""The pre-rewrite worker set-up: one full adjacency stream per worker
in ``induced_subgraph`` and the ``build_worker_states`` built on it.
Its one edit: ``AttributedGraph``, ``as_bundle`` and ``as_topology``
are imported from ``oracles._graph`` since ``src/`` retired them."""

import numpy as np
from scipy.sparse import csr_matrix

from oracles._graph import AttributedGraph, as_bundle, as_topology
from repro.core.worker import WorkerState
from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStore, GraphStoreBundle
from repro.graph.subgraph import LocalSubgraph
from repro.partition.base import Partition


def _reference_ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat positions covering ``[starts[i], starts[i] + lengths[i])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    flat_starts = np.cumsum(lengths) - lengths
    offsets = np.arange(total, dtype=np.int64) - np.repeat(flat_starts, lengths)
    return np.repeat(starts, lengths) + offsets


def _reference_induced_subgraph(
    graph: CSRGraph | GraphStore, local_vertices: np.ndarray
) -> LocalSubgraph:
    """Extract the worker-local subgraph for a set of owned vertices.

    All edges leaving the owned vertices are kept; edges pointing at
    non-owned vertices make those targets part of the remote halo. The
    extraction streams adjacency blocks, so handing it an out-of-core
    :class:`GraphStore` touches only the chunks holding local rows.
    """
    local_vertices = np.asarray(local_vertices, dtype=np.int64)
    if local_vertices.size != np.unique(local_vertices).size:
        raise ValueError("local vertex set contains duplicates")
    store = as_topology(graph)
    full_indptr = store.indptr
    if local_vertices.size and (
        local_vertices.min() < 0
        or local_vertices.max() >= store.num_vertices
    ):
        raise IndexError("local vertex id out of range")

    counts = (
        full_indptr[local_vertices + 1] - full_indptr[local_vertices]
    ).astype(np.int64)
    indptr = np.zeros(local_vertices.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    global_cols = np.empty(total, dtype=np.int64)
    weights = (
        np.empty(total, dtype=np.float32) if store.has_weights else None
    )

    # Rows are gathered in ascending global order (one pass over the
    # storage chunks) and scattered into their position in the caller's
    # ordering of ``local_vertices``.
    order = np.argsort(local_vertices, kind="stable")
    sorted_locals = local_vertices[order]
    cursor = 0
    for start, stop, block_idx, block_w in store.iter_adjacency():
        if cursor >= sorted_locals.size:
            break
        if sorted_locals[cursor] >= stop:
            continue
        end = int(np.searchsorted(sorted_locals, stop, side="left"))
        sel = sorted_locals[cursor:end]
        rows_out = order[cursor:end]
        lens = counts[rows_out]
        src = _reference_ragged_positions(
            full_indptr[sel] - full_indptr[start], lens
        )
        dst = _reference_ragged_positions(indptr[rows_out], lens)
        global_cols[dst] = block_idx[src]
        if weights is not None:
            weights[dst] = block_w[src]
        cursor = end

    unique_cols = np.unique(global_cols)
    is_local = np.isin(unique_cols, sorted_locals, assume_unique=True)
    remote_vertices = unique_cols[~is_local]

    # Compact relabel: local columns map to their position in the given
    # ordering, remote columns to num_local + rank in sorted halo order.
    compact_of_unique = np.empty(unique_cols.size, dtype=np.int64)
    compact_of_unique[is_local] = order[
        np.searchsorted(sorted_locals, unique_cols[is_local])
    ]
    compact_of_unique[~is_local] = local_vertices.shape[0] + np.arange(
        remote_vertices.size, dtype=np.int64
    )
    indices = compact_of_unique[np.searchsorted(unique_cols, global_cols)]

    return LocalSubgraph(
        local_vertices=local_vertices,
        remote_vertices=remote_vertices,
        indptr=indptr,
        indices=indices,
        weights=weights,
    )


def _reference_build_worker_states(
    graph: AttributedGraph | GraphStoreBundle,
    normalized: CSRGraph | GraphStore,
    partition: Partition,
) -> list[WorkerState]:
    """Construct all worker states for a partitioned training run.

    Args:
        graph: The attributed input graph (features/labels/masks), either
            resident or behind a :class:`GraphStoreBundle` — worker
            feature/label shards are gathered through the store row API,
            so an mmap-backed bundle never materializes the full matrix.
        normalized: The *globally* normalized adjacency (GCN or row
            normalization must happen before partitioning so degrees are
            global); a :class:`CSRGraph` or a (possibly lazy)
            :class:`GraphStore` view.
        partition: Vertex-to-worker assignment.
    """
    bundle = as_bundle(graph)
    if partition.num_vertices != bundle.num_vertices:
        raise ValueError("partition does not match the graph")
    states: list[WorkerState] = []
    subs: list[LocalSubgraph] = []
    for worker in range(partition.num_parts):
        local = partition.part_vertices(worker)
        subs.append(_reference_induced_subgraph(normalized, local))

    assignment = partition.assignment
    # Local row index of every vertex on its owner (owners list vertices
    # in ascending global order, so searchsorted gives the row).
    owner_vertex_lists = [subs[w].local_vertices for w in range(partition.num_parts)]

    for worker in range(partition.num_parts):
        sub = subs[worker]
        n_cols = sub.num_local + sub.num_remote
        a_local = csr_matrix(
            (
                sub.weights
                if sub.weights is not None
                else np.ones(sub.num_edges, dtype=np.float32),
                sub.indices,
                sub.indptr,
            ),
            shape=(sub.num_local, n_cols),
        )

        requests: dict[int, np.ndarray] = {}
        halo_slots: dict[int, np.ndarray] = {}
        if sub.num_remote:
            owners = assignment[sub.remote_vertices]
            for owner in np.unique(owners):
                mask = owners == owner
                requests[int(owner)] = sub.remote_vertices[mask]
                halo_slots[int(owner)] = np.flatnonzero(mask).astype(np.int64)

        states.append(
            WorkerState(
                worker_id=worker,
                sub=sub,
                a_local=a_local,
                features=bundle.feature_store.rows(sub.local_vertices),
                labels=bundle.labels[sub.local_vertices],
                train_mask=bundle.train_mask[sub.local_vertices],
                val_mask=bundle.val_mask[sub.local_vertices],
                test_mask=bundle.test_mask[sub.local_vertices],
                requests=requests,
                halo_slots=halo_slots,
                serves={},
            )
        )

    # Serve plans are the mirror of the request plans.
    for state in states:
        for owner, wanted in state.requests.items():
            rows = np.searchsorted(owner_vertex_lists[owner], wanted)
            states[owner].serves[state.worker_id] = rows.astype(np.int64)

    return states
