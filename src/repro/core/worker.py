"""Per-worker state for distributed full-batch training.

Each worker owns a partition of the vertices and keeps:

* its rows of the *globally normalized* adjacency, with columns in a
  compact local space (owned vertices first, then the halo of remote
  1-hop neighbours),
* local slices of features, labels and split masks,
* the request plan: which vertex rows it needs from each remote owner and
  where they scatter into its halo buffer, plus the serve plan for the
  symmetric direction,
* the forward caches (``H``, ``Z``, ``A H``) needed by the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from repro.cluster.engine import ClusterRuntime
from repro.core.gcn_math import LayerForwardCache
from repro.graph.store.base import GraphStore, GraphStoreBundle
from repro.graph.subgraph import LocalSubgraph, induced_subgraphs
from repro.partition.base import Partition

__all__ = ["WorkerState", "build_worker_states", "fetch_halo_features"]


@dataclass
class WorkerState:
    """Everything one worker holds between communication steps.

    Attributes:
        worker_id: This worker's index.
        sub: The worker's :class:`LocalSubgraph` over the normalized
            adjacency.
        a_local: ``(n_local, n_local + n_halo)`` sparse adjacency rows.
        features / labels / masks: Local slices, in local-vertex order.
        requests: owner -> global ids this worker fetches each layer.
        halo_slots: owner -> positions of those ids in the halo buffer.
        serves: requester -> local row indices this worker ships to it.
        caches: Forward caches per layer (index 0 unused).
        grad_rows: ``G^l`` rows for the local vertices, per layer.
    """

    worker_id: int
    sub: LocalSubgraph
    a_local: csr_matrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    requests: dict[int, np.ndarray]
    halo_slots: dict[int, np.ndarray]
    serves: dict[int, np.ndarray]
    caches: list[LayerForwardCache | None] = field(default_factory=list)
    grad_rows: list[np.ndarray | None] = field(default_factory=list)
    halo_features: np.ndarray | None = None

    @property
    def num_local(self) -> int:
        return self.sub.num_local

    @property
    def num_halo(self) -> int:
        return self.sub.num_remote

    def stats(self) -> dict[str, int]:
        """Topology gauges for telemetry: partition shape of this worker."""
        return {
            "local_vertices": self.num_local,
            "halo_vertices": self.num_halo,
            "local_edges": int(self.a_local.nnz),
            "train_vertices": int(self.train_mask.sum()),
            "peers": len(self.requests),
        }

    def local_output(self, layer: int) -> np.ndarray:
        """``H^layer`` rows for the local vertices (layer >= 1)."""
        cache = self.caches[layer]
        if cache is None:
            raise RuntimeError(f"layer {layer} has not run forward yet")
        return cache.output

    def reset_iteration(self, num_layers: int) -> None:
        """Clear per-iteration caches before a new forward pass."""
        self.caches = [None] * (num_layers + 1)
        self.grad_rows = [None] * (num_layers + 1)

    def crash_reset(self, num_layers: int) -> None:
        """Wipe everything a crashed worker loses.

        The static partition state (adjacency rows, feature/label shards,
        request/serve plans) rebuilds from local storage, but the forward
        caches, gradient rows and the first-hop halo-feature cache lived
        in memory only — recovery must refetch the halo features from
        the owning workers (see ``RecoveryManager.recover_workers``).
        """
        self.reset_iteration(num_layers)
        self.halo_features = None


def fetch_halo_features(
    state: WorkerState,
    workers: list[WorkerState],
    runtime: ClusterRuntime,
    category: str,
) -> np.ndarray:
    """Gather ``state``'s first-hop halo features from their owners,
    charged as ``category`` traffic (the paper's first basic
    optimization at setup; a refetch after a crash or reassignment)."""
    halo = np.zeros(
        (state.num_halo, state.features.shape[1]), dtype=np.float32
    )
    # halo_slots insertion order is the bit-pinned channel plan order.
    for owner, slots in state.halo_slots.items():
        responder = workers[owner]
        rows = responder.features[responder.serves[state.worker_id]]
        halo[slots] = rows
        runtime.send_worker_to_worker(
            owner, state.worker_id, rows.nbytes + 16, category
        )
    return halo


def build_worker_states(
    graph: GraphStoreBundle,
    normalized: GraphStore,
    partition: Partition,
) -> list[WorkerState]:
    """Construct all worker states for a partitioned training run.

    Args:
        graph: The attributed input graph; worker feature/label shards
            are gathered through the store row API, so an mmap-backed
            bundle never materializes the full matrix.
        normalized: The *globally* normalized adjacency (GCN or row
            normalization must happen before partitioning so degrees are
            global), usually a lazy
            :class:`~repro.graph.store.NormalizedGraphStore` view.
        partition: Vertex-to-worker assignment.
    """
    if partition.num_vertices != graph.num_vertices:
        raise ValueError("partition does not match the graph")
    states: list[WorkerState] = []
    subs = induced_subgraphs(
        normalized,
        [partition.part_vertices(w) for w in range(partition.num_parts)],
    )

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
                features=graph.feature_store.rows(sub.local_vertices),
                labels=graph.labels[sub.local_vertices],
                train_mask=graph.train_mask[sub.local_vertices],
                val_mask=graph.val_mask[sub.local_vertices],
                test_mask=graph.test_mask[sub.local_vertices],
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
