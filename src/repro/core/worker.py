"""Per-worker state for distributed full-batch training.

Each worker owns a partition of the vertices and keeps:

* its rows of the *globally normalized* adjacency, with columns in a
  compact local space (owned vertices first, then the halo of remote
  1-hop neighbours),
* local slices of features, labels and split masks,
* its first-layer inputs (feature shard, cached halo features) until
  what the first-layer kernel reads from them is built; then only the
  graph store holds those rows (see :meth:`WorkerState.release_inputs`),
* the request plan: which vertex rows it needs from each remote owner and
  where they scatter into its halo buffer, plus the serve plan for the
  symmetric direction,
* the forward caches (``H``, ``Z`` or its sign mask, ``A H``) needed by
  the backward pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from repro.cluster.engine import ClusterRuntime
from repro.core.gcn_math import LayerForwardCache
from repro.graph.store.base import FeatureStore, GraphStore, GraphStoreBundle
from repro.graph.subgraph import LocalSubgraph, induced_subgraphs
from repro.partition.base import Partition

__all__ = ["WorkerState", "build_worker_states", "fetch_halo_features"]

_FIRST_INPUTS = ("features", "halo_features")
# Each assignment of a first-layer input takes a fresh number: whatever
# was built from the previous array (the constant M^1, a persistent h0)
# is stale, across worker-state objects too.
_INPUT_VERSIONS = itertools.count(1)


@dataclass
class WorkerState:
    """Everything one worker holds between communication steps.

    Attributes:
        worker_id: This worker's index.
        sub: The worker's :class:`LocalSubgraph` over the normalized
            adjacency.
        a_local: ``(n_local, n_local + n_halo)`` sparse adjacency rows,
            built over ``sub``'s index (and weight) arrays: the worker's
            CSR exists once, in the dtype the kernels read.
        features / labels / masks: Local slices, in local-vertex order.
        requests: owner -> global ids this worker fetches each layer.
        halo_slots: owner -> positions of those ids in the halo buffer.
        serves: requester -> local row indices this worker ships to it.
        caches: Forward caches per layer (index 0 unused).
        grad_rows: ``G^l`` rows for the local vertices, per layer.
        halo_features: The first-hop halo-feature cache
            (``cache_first_hop``), in halo order.
        feature_store: The store ``features`` were gathered from; given,
            the shard is taken to be its rows of ``sub.local_vertices``.
        halo_lost: Set by :meth:`crash_reset` when the crash wiped a
            first-hop cache; cleared by :func:`fetch_halo_features`.

    ``features`` and ``halo_features`` are the first-layer inputs. Either
    is ``None`` once released (:meth:`release_inputs`): the process holds
    what its kernels read from them — or, on the multiprocess
    supervisor, its forked worker process does — and the store holds the
    rows, which :meth:`local_rows` / :meth:`halo_rows` re-read by global
    id (:meth:`reload_inputs` makes them resident again before a
    respawn). Any other assignment of either is a new input: it takes a
    fresh ``inputs_version`` (what caches keyed on it rebuild from) and
    is not taken to be the store's rows, so it is never released.
    """

    worker_id: int
    sub: LocalSubgraph
    a_local: csr_matrix
    features: np.ndarray | None
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
    feature_store: FeatureStore | None = None
    halo_lost: bool = False
    inputs_version: int = field(default=0, init=False, compare=False)

    def __post_init__(self) -> None:
        self.inputs_version = next(_INPUT_VERSIONS)
        # Names of the inputs whose rows the store holds, resident or not.
        self._in_store = {"features"} if self.feature_store is not None else set()

    def __setattr__(self, name: str, value: object) -> None:
        if name in _FIRST_INPUTS:
            object.__setattr__(self, "inputs_version", next(_INPUT_VERSIONS))
            self.__dict__.get("_in_store", set()).discard(name)
        object.__setattr__(self, name, value)

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

    @property
    def feature_dim(self) -> int:
        """Width of a feature row, resident or not."""
        if self.features is not None:
            return int(self.features.shape[1])
        return int(self._store("features").shape[1])

    def in_store(self, name: str) -> bool:
        """Whether the store holds the rows of input ``name``."""
        return name in self._in_store

    def _store(self, name: str) -> FeatureStore:
        if self.feature_store is None or name not in self._in_store:
            raise RuntimeError(
                f"worker {self.worker_id} holds no {name} and no store "
                "to re-read them from"
            )
        return self.feature_store

    def local_rows(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The feature shard (its ``rows`` when given): the resident
        array, or once released the store's rows by global id."""
        if self.features is not None:
            return self.features if rows is None else self.features[rows]
        ids = self.sub.local_vertices
        return self._store("features").rows(ids if rows is None else ids[rows])

    def halo_rows(self) -> np.ndarray:
        """The cached halo features, resident or re-read from the store."""
        if self.halo_features is not None:
            return self.halo_features
        return self._store("halo_features").rows(self.sub.remote_vertices)

    def first_layer_cat(self) -> np.ndarray:
        """A transient ``[X; X_halo]``."""
        return np.concatenate([self.local_rows(), self.halo_rows()])

    def release_inputs(self) -> None:
        """Drop the first-layer input arrays whose rows the store holds.
        The caller holds what the kernels read from them; the rows are
        unchanged, so ``inputs_version`` is too."""
        for name in self._in_store:
            object.__setattr__(self, name, None)

    def reload_inputs(self) -> None:
        """Make released input arrays resident again, re-read from the
        store by global id and still taken to be its rows: they are the
        same rows, so ``inputs_version`` stays, and a later
        :meth:`release_inputs` drops them again. What a process about to
        fork does, so the child never reads the store."""
        for name in _FIRST_INPUTS:
            if name in self._in_store and getattr(self, name) is None:
                rows = (
                    self.local_rows() if name == "features"
                    else self.halo_rows()
                )
                object.__setattr__(self, name, rows)

    def carry_halo(self, old: WorkerState) -> None:
        """Take over ``old``'s first-hop cache (same halo, same order):
        its array, or, if ``old`` released it, the store re-read. ``old``
        may be this state (a backend that kept it)."""
        rows, in_store = old.halo_features, old.in_store("halo_features")
        self.halo_features = rows
        if in_store:
            self._in_store.add("halo_features")

    def feature_bytes(self) -> int:
        """Bytes of the first-layer input rows this state holds, local
        plus halo, each distinct buffer once (sizes only)."""
        held: dict[int, int] = {}
        for rows in (self.features, self.halo_features):
            if rows is not None:
                key = id(rows if rows.base is None else rows.base)
                held[key] = max(held.get(key, 0), rows.nbytes)
        return sum(held.values())

    def csr_bytes(self) -> int:
        """Bytes of the worker's sparse adjacency rows: ``a_local``'s
        data, indices and indptr (sizes only)."""
        a = self.a_local
        return a.data.nbytes + a.indices.nbytes + a.indptr.nbytes

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
        in memory only. A cache the worker had, resident or released, is
        recorded as ``halo_lost``: recovery refetches it from the owning
        workers (see ``RecoveryManager.recover_workers``).
        """
        self.reset_iteration(num_layers)
        self.halo_lost = (
            self.halo_features is not None or self.in_store("halo_features")
        )
        self.halo_features = None


def fetch_halo_features(
    state: WorkerState,
    workers: list[WorkerState],
    runtime: ClusterRuntime,
    category: str,
) -> None:
    """Fill ``state.halo_features`` from the owners' shards, charged as
    ``category`` traffic (the paper's first basic optimization at setup;
    a refetch after a crash or reassignment). An owner that released its
    shard serves the same rows re-read from the store. The cache is the
    store's rows when every owner's shard is."""
    halo = np.zeros((state.num_halo, state.feature_dim), dtype=np.float32)
    in_store = True
    # halo_slots insertion order is the bit-pinned channel plan order.
    for owner, slots in state.halo_slots.items():
        responder = workers[owner]
        rows = responder.local_rows(responder.serves[state.worker_id])
        in_store = in_store and responder.in_store("features")
        halo[slots] = rows
        runtime.send_worker_to_worker(
            owner, state.worker_id, rows.nbytes + 16, category
        )
    state.halo_features = halo
    if in_store and state.feature_store is not None:
        state._in_store.add("halo_features")
    state.halo_lost = False


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
        # Over the subgraph's own arrays, already in scipy's index dtype:
        # the matrix views them rather than copying.
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
                feature_store=graph.feature_store,
            )
        )

    # Serve plans are the mirror of the request plans.
    for state in states:
        for owner, wanted in state.requests.items():
            rows = np.searchsorted(owner_vertex_lists[owner], wanted)
            states[owner].serves[state.worker_id] = rows.astype(np.int64)

    return states
