"""Shared fixtures: small deterministic graphs and cluster specs."""

from __future__ import annotations

import time
from collections import deque

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.cluster.topology import ClusterSpec
from repro.core.worker import WorkerState
from repro.graph.attributed import AttributedGraph
from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.store.base import (
    GraphStore,
    GraphStoreBundle,
    as_bundle,
    as_topology,
)
from repro.graph.streaming import stream_graph
from repro.graph.subgraph import LocalSubgraph
from repro.partition.base import Partition


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def tiny_csr() -> CSRGraph:
    """A 5-vertex directed graph with a known edge list.

    Edges: 0->1, 0->2, 1->2, 2->0, 3->4, 4->3 (vertex order preserved).
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 4), (4, 3)]
    return from_edge_list(edges, num_vertices=5)


@pytest.fixture
def ring_graph() -> CSRGraph:
    """A symmetric 8-cycle (both arcs stored)."""
    n = 8
    edges = []
    for v in range(n):
        edges.append((v, (v + 1) % n))
        edges.append(((v + 1) % n, v))
    return from_edge_list(edges, num_vertices=n, deduplicate=True)


@pytest.fixture
def small_graph() -> AttributedGraph:
    """A 96-vertex planted-partition graph that GCN learns quickly."""
    spec = GraphSpec(
        name="unit-small",
        num_vertices=96,
        avg_degree=6.0,
        feature_dim=12,
        num_classes=3,
        homophily=0.9,
        feature_noise=0.8,
        train=40,
        val=16,
        test=32,
        seed=7,
    )
    return stream_graph(spec).materialize()


@pytest.fixture
def medium_graph() -> AttributedGraph:
    """A 256-vertex, higher-degree graph for integration tests."""
    spec = GraphSpec(
        name="unit-medium",
        num_vertices=256,
        avg_degree=14.0,
        feature_dim=16,
        num_classes=4,
        homophily=0.88,
        feature_noise=1.0,
        power_law=2.0,
        train=100,
        val=40,
        test=80,
        seed=11,
    )
    return stream_graph(spec).materialize()


@pytest.fixture
def cluster3() -> ClusterSpec:
    return ClusterSpec(num_workers=3, num_servers=1)


@pytest.fixture
def cluster2() -> ClusterSpec:
    return ClusterSpec(num_workers=2, num_servers=2)


# ----------------------------------------------------------------------
# Pre-rewrite codec arithmetic, kept verbatim as differential references
# for the arithmetic bit packers and the narrow-id quantizer.
# ----------------------------------------------------------------------
def _reference_pack_bits(values, bits):
    """Original bit-matrix ``pack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    flat = np.ascontiguousarray(values, dtype=np.uint32).ravel()
    if flat.size and int(flat.max()) >= (1 << bits):
        raise ValueError(f"value {int(flat.max())} does not fit in {bits} bits")
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = ((flat[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little")


def _reference_unpack_bits(buffer, bits, count):
    """Original bit-matrix ``unpack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    raw = np.unpackbits(
        np.ascontiguousarray(buffer, dtype=np.uint8),
        count=count * bits,
        bitorder="little",
    )
    bit_matrix = raw.reshape(count, bits).astype(np.uint32)
    powers = (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    return bit_matrix @ powers


def _reference_encode_ids(bits, matrix, lo=None, hi=None):
    """Verbatim copy of ``BucketQuantizer.encode_ids`` before the
    narrow-dtype rewrite: float32 -> int64 -> integer clip -> uint32."""
    data = np.asarray(matrix, dtype=np.float32)
    buckets = 1 << bits
    if data.size == 0:
        return np.zeros(0, dtype=np.uint32)
    domain_lo = float(data.min()) if lo is None else float(lo)
    domain_hi = float(data.max()) if hi is None else float(hi)
    span = domain_hi - domain_lo
    if span <= 0.0:
        return np.zeros(data.size, dtype=np.uint32)
    width = span / buckets
    scaled = (data.ravel() - domain_lo) / width
    return np.clip(scaled.astype(np.int64), 0, buckets - 1).astype(np.uint32)


def _reference_decode(quantized):
    """Verbatim copy of ``QuantizedMatrix.decode`` before the rewrite,
    over the original bit-matrix unpack."""
    ids = _reference_unpack_bits(
        quantized.packed, quantized.bits, quantized.num_elements
    )
    return quantized.bucket_values[ids].reshape(quantized.shape).astype(
        np.float32
    )


@pytest.fixture
def reference_pack_bits():
    return _reference_pack_bits


@pytest.fixture
def reference_unpack_bits():
    return _reference_unpack_bits


@pytest.fixture
def reference_encode_ids():
    return _reference_encode_ids


@pytest.fixture
def reference_decode():
    return _reference_decode


# ----------------------------------------------------------------------
# Pre-workspace layer kernels, kept verbatim as differential references
# for the ``out=`` / in-place rewrite: every result was a fresh array
# (``z + bias``, ``.astype(np.float32)`` copies, ``np.concatenate``).
# ----------------------------------------------------------------------
class _ReferenceKernels:
    """``core/gcn_math.py`` and the SAGE / GAT backend kernels as they
    were before persistent layer workspaces."""

    @staticmethod
    def layer_forward(a_local, h_cat, weight, bias, activation, is_last,
                      transform_first=None):
        """Returns ``(aggregated, pre_activation, output)``."""
        d_in, d_out = weight.shape
        if transform_first is None:
            transform_first = d_in > d_out
        if transform_first:
            z = a_local @ (h_cat @ weight)
            aggregated = None
        else:
            aggregated = a_local @ h_cat
            z = aggregated @ weight
        if bias is not None:
            z = z + bias
        z = z.astype(np.float32)
        h = z if is_last else activation(z).astype(np.float32)
        return aggregated, z, h

    @staticmethod
    def layer_backward_inputs(a_local, g_cat, weight, pre_activation_prev,
                              activation):
        dh = (a_local @ g_cat) @ weight.T
        return (
            dh * activation.derivative(pre_activation_prev)
        ).astype(np.float32)

    @staticmethod
    def weight_gradient(aggregated, h_cat, a_local, g_local):
        if aggregated is None:
            aggregated = a_local @ h_cat
        return (aggregated.T @ g_local).astype(np.float32)

    @staticmethod
    def sage_layer_forward(a_local, num_local, h_cat, w_self, w_neigh, bias,
                           activation, is_last):
        """Returns ``(aggregated, z, output)``."""
        h_local = h_cat[:num_local]
        aggregated = a_local @ h_cat
        z = (h_local @ w_self + aggregated @ w_neigh).astype(np.float32)
        if bias is not None:
            z = z + bias
        output = z if is_last else activation(z).astype(np.float32)
        return aggregated, z, output

    @staticmethod
    def sage_backward_reduce(a_transposed, g, halo, w_self, w_neigh, z_prev,
                             activation):
        g_cat = np.concatenate([g, halo], axis=0)
        dh = g @ w_self.T + (a_transposed @ g_cat) @ w_neigh.T
        return (dh * activation.derivative(z_prev)).astype(np.float32)

    @staticmethod
    def gat_layer_forward(backend, worker, h_cat, params, layer, is_last):
        """Returns ``(z, output)`` of ``GATBackend.layer_kernel``."""
        from repro.core.models import bias_name
        from repro.engine.backends import _leaky

        edges = backend.edges[worker]
        z = None
        for head in range(backend.num_heads):
            weight, a_src, a_dst = backend._head_params(params, layer, head)
            u_cat = (h_cat @ weight).astype(np.float32)
            s = u_cat[:edges.num_local] @ a_src
            d = u_cat @ a_dst
            logits = s[edges.src] + d[edges.col]
            alpha = edges.segment_softmax(_leaky(logits))
            z_head = np.zeros(
                (edges.num_local, u_cat.shape[1]), dtype=np.float32
            )
            np.add.at(z_head, edges.src, alpha[:, None] * u_cat[edges.col])
            z = z_head if z is None else z + z_head
        z = (z / backend.num_heads).astype(np.float32)
        bias = params.get(bias_name(layer - 1))
        if bias is not None:
            z = z + bias
        output = (
            z if is_last
            else backend.ctx.params.activation(z).astype(np.float32)
        )
        return z, output

    @staticmethod
    def gat_backward_reduce(dh_local, pushed, z_prev, activation):
        dh_total = dh_local + pushed
        return (dh_total * activation.derivative(z_prev)).astype(np.float32)


@pytest.fixture
def reference_kernels():
    return _ReferenceKernels


# ----------------------------------------------------------------------
# Pre-rewrite set-up path, kept verbatim as differential references for
# the multilevel partitioner's coarsening, the list-walking BFS/LDG
# partitioner, the one-sweep worker-subgraph extraction and the
# vectorised CSR helpers: per-vertex Python loops over
# ``graph.neighbors(v)`` / ``graph.edge_weights(v)`` and one full
# adjacency stream per worker.
# ----------------------------------------------------------------------
class _ReferenceMetisLikePartitioner:
    """The coarsening of the pre-rewrite multilevel partitioner. Its
    greedy growth and per-vertex refinement went when the partitioner's
    objective did (``tests/test_partition_quality.py`` holds the new
    contract); the heavy-edge matching and contraction stay pinned."""

    def _coarsen(
        self,
        graph: CSRGraph,
        vertex_weight: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
        """Contract a heavy-edge matching; returns (coarse, mapping, weight).

        ``mapping[v]`` is the coarse vertex containing fine vertex ``v``.
        """
        n = graph.num_vertices
        match = np.full(n, -1, dtype=np.int64)
        visit_order = rng.permutation(n)
        for v in visit_order:
            if match[v] != -1:
                continue
            best_u = -1
            best_w = -1.0
            nbrs = graph.neighbors(int(v))
            weights = graph.edge_weights(int(v))
            for u, w in zip(nbrs, weights):
                u = int(u)
                if u != v and match[u] == -1 and w > best_w:
                    best_w = float(w)
                    best_u = u
            if best_u >= 0:
                match[v] = best_u
                match[best_u] = v
            else:
                match[v] = v

        mapping = np.full(n, -1, dtype=np.int64)
        next_id = 0
        for v in range(n):
            if mapping[v] != -1:
                continue
            mapping[v] = next_id
            partner = match[v]
            if partner != v and mapping[partner] == -1:
                mapping[partner] = next_id
            next_id += 1

        coarse_weight = np.zeros(next_id, dtype=np.int64)
        np.add.at(coarse_weight, mapping, vertex_weight)

        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
        csrc = mapping[src]
        cdst = mapping[graph.indices]
        ew = (
            np.ones(graph.num_edges, dtype=np.float64)
            if graph.weights is None
            else graph.weights.astype(np.float64)
        )
        keep = csrc != cdst  # drop collapsed self-edges
        csrc, cdst, ew = csrc[keep], cdst[keep], ew[keep]
        # Merge parallel edges by accumulating weights.
        keys = csrc * next_id + cdst
        order = np.argsort(keys, kind="stable")
        keys, csrc, cdst, ew = keys[order], csrc[order], cdst[order], ew[order]
        unique_keys, starts = np.unique(keys, return_index=True)
        merged_w = np.add.reduceat(ew, starts) if keys.size else ew
        merged_src = csrc[starts] if keys.size else csrc
        merged_dst = cdst[starts] if keys.size else cdst
        edges = np.stack([merged_src, merged_dst], axis=1)
        coarse = from_edge_list(edges, next_id, weights=merged_w)
        return coarse, mapping, coarse_weight


class _ReferenceBFSPartitioner:
    """Linear Deterministic Greedy placement over a BFS vertex stream."""

    name = "bfs"

    def __init__(self, seed: int = 0, slack: float = 1.05):
        """Args:
        seed: Seed for BFS root selection.
        slack: Maximum allowed part size as a multiple of the ideal
            ``n / num_parts``; parts at capacity are skipped.
        """
        if slack < 1.0:
            raise ValueError("slack must be >= 1")
        self.seed = seed
        self.slack = slack

    def partition(
        self, graph: CSRGraph | GraphStore, num_parts: int
    ) -> Partition:
        start = time.perf_counter()
        # The traversal is random-access by nature; going through the
        # store keeps out-of-core inputs workable (the LRU residency
        # bounds memory), at the cost of chunk faults when the BFS
        # frontier hops across chunk boundaries.
        graph = as_topology(graph)
        n = graph.num_vertices
        capacity = int(np.ceil(self.slack * n / num_parts))
        assignment = np.full(n, -1, dtype=np.int64)
        sizes = np.zeros(num_parts, dtype=np.int64)
        rng = np.random.default_rng(self.seed)

        order = self._bfs_order(graph, rng)
        for v in order:
            neighbour_counts = np.zeros(num_parts, dtype=np.float64)
            for u in graph.neighbors(int(v)):
                part = assignment[u]
                if part >= 0:
                    neighbour_counts[part] += 1.0
            # LDG score: neighbours already in the part, scaled by the
            # remaining capacity fraction, so full parts become unattractive.
            score = neighbour_counts * (1.0 - sizes / capacity)
            score[sizes >= capacity] = -np.inf
            best = int(np.argmax(score))
            if score[best] == -np.inf:
                best = int(np.argmin(sizes))
            assignment[v] = best
            sizes[best] += 1

        return Partition(
            assignment=assignment,
            num_parts=num_parts,
            method=self.name,
            seconds=time.perf_counter() - start,
        )

    @staticmethod
    def _bfs_order(graph: GraphStore, rng: np.random.Generator) -> np.ndarray:
        """Full BFS traversal order, restarting at random unvisited roots."""
        n = graph.num_vertices
        visited = np.zeros(n, dtype=bool)
        order = np.empty(n, dtype=np.int64)
        cursor = 0
        for root in rng.permutation(n):
            if visited[root]:
                continue
            queue = deque([int(root)])
            visited[root] = True
            while queue:
                v = queue.popleft()
                order[cursor] = v
                cursor += 1
                for u in graph.neighbors(v):
                    if not visited[u]:
                        visited[u] = True
                        queue.append(int(u))
        return order


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


def _reference_with_self_loops(self):
    """Return a copy with a self-loop added to every vertex.

    Vertices that already have a self-loop are left as-is so repeated
    application is idempotent. Existing weights are kept; new loops get
    weight 1.
    """
    n = self.num_vertices
    has_loop = np.zeros(n, dtype=bool)
    for v in range(n):
        if np.any(self.neighbors(v) == v):
            has_loop[v] = True
    extra = np.count_nonzero(~has_loop)
    if extra == 0:
        return CSRGraph(
            self.indptr.copy(),
            self.indices.copy(),
            None if self.weights is None else self.weights.copy(),
        )
    new_counts = np.diff(self.indptr) + (~has_loop)
    indptr_new = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=indptr_new[1:])
    indices_new = np.empty(self.num_edges + extra, dtype=np.int64)
    weights_new = (
        None
        if self.weights is None
        else np.empty(self.num_edges + extra, dtype=np.float32)
    )
    for v in range(n):
        lo_old, hi_old = self.indptr[v], self.indptr[v + 1]
        lo_new = indptr_new[v]
        span = hi_old - lo_old
        indices_new[lo_new:lo_new + span] = self.indices[lo_old:hi_old]
        if weights_new is not None:
            weights_new[lo_new:lo_new + span] = self.weights[lo_old:hi_old]
        if not has_loop[v]:
            indices_new[lo_new + span] = v
            if weights_new is not None:
                weights_new[lo_new + span] = 1.0
    return CSRGraph(indptr_new, indices_new, weights_new)


def _reference_sorted_rows(self):
    """Return a copy whose neighbour lists are sorted ascending."""
    indices = self.indices.copy()
    weights = None if self.weights is None else self.weights.copy()
    for v in range(self.num_vertices):
        lo, hi = self.indptr[v], self.indptr[v + 1]
        order = np.argsort(indices[lo:hi], kind="stable")
        indices[lo:hi] = indices[lo:hi][order]
        if weights is not None:
            weights[lo:hi] = weights[lo:hi][order]
    out = CSRGraph(self.indptr.copy(), indices, weights)
    out._sorted_rows = True
    return out


def _reference_transpose(self):
    """Return the reverse graph (in-neighbour lists), weights carried."""
    n, m = self.num_vertices, self.num_edges
    counts = np.bincount(self.indices, minlength=n)
    indptr_t = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr_t[1:])
    indices_t = np.empty(m, dtype=np.int64)
    weights_t = None if self.weights is None else np.empty(m, dtype=np.float32)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
    order = np.argsort(self.indices, kind="stable")
    indices_t[:] = src[order]
    if weights_t is not None:
        weights_t[:] = self.weights[order]
    return CSRGraph(indptr_t, indices_t, weights_t)


class _ReferenceSetup:
    """The parent commit's set-up path (see the banner above)."""

    MetisLikePartitioner = _ReferenceMetisLikePartitioner
    BFSPartitioner = _ReferenceBFSPartitioner
    induced_subgraph = staticmethod(_reference_induced_subgraph)
    build_worker_states = staticmethod(_reference_build_worker_states)
    transpose = staticmethod(_reference_transpose)
    with_self_loops = staticmethod(_reference_with_self_loops)
    sorted_rows = staticmethod(_reference_sorted_rows)


@pytest.fixture(scope="session")
def reference_setup():
    return _ReferenceSetup


# ----------------------------------------------------------------------
# Verbatim parent of ReqECPolicy.respond/receive from before the boundary
# frame stopped shipping M_cr: the responder puts the rows AND M_cr on
# the wire (header + the rows' bytes twice) and the requester stores what it is
# handed. Everything else (_predict, _select, payload building, fault
# hooks) is inherited, so a run through this class is the parent run.
# ----------------------------------------------------------------------
def _make_reference_reqec_policy():
    from repro.core.messages import ChannelKey, ChannelMessage, ReceiveResult
    from repro.compression.quantization import (
        MATRIX_PREFIX_BYTES as _HEADER_BYTES,
    )
    from repro.core.reqec_fp import ReqECPolicy, TrendState

    class _ReferenceReqECPolicy(ReqECPolicy):
        def respond(
            self,
            key: ChannelKey,
            rows: np.ndarray,
            t: int,
            rows_idx: np.ndarray | None = None,
        ) -> ChannelMessage:
            if rows_idx is not None:
                raise NotImplementedError(
                    "ReqEC-FP keeps dense per-channel trend state; sampled "
                    "training uses the compression or ResEC policies instead"
                )
            rows = np.ascontiguousarray(rows, dtype=np.float32)
            state = self._responder_trend.get(key)

            if self._is_boundary(t):
                # One snapshot serves the trend state of both ends and the
                # payload; read-only, so an in-place write raises instead of
                # corrupting the other end.
                h_last = rows.copy()
                if state is not None and state.h_last.shape == rows.shape:
                    m_cr = np.subtract(rows, state.h_last)
                    m_cr /= self.trend_period
                else:
                    m_cr = np.zeros_like(rows)
                h_last.setflags(write=False)
                m_cr.setflags(write=False)
                self._responder_trend[key] = TrendState(
                    h_last=h_last, m_cr=m_cr, boundary_t=t
                )
                return ChannelMessage(
                    payload=("exact", h_last, m_cr),
                    nbytes=_HEADER_BYTES + 2 * rows.nbytes,
                )

            bits = self.tuner.bits(key.pair)
            quantizer = self._quantizer(bits)

            if state is None:
                # No trend snapshot yet (first trend group): compressed only.
                quantized = quantizer.encode(rows)
                if self.health is not None:
                    self.health.record_selection(
                        key.pair, (rows.shape[0], 0, 0), bits, t
                    )
                return ChannelMessage(
                    payload=("cps_only", quantized),
                    nbytes=quantized.payload_bytes(),
                    meta={"proportion": 0.0, "bits": bits},
                )

            h_pdt = self._predict(state, t % self.trend_period + 1)
            # Quantize exactly once: the bucket ids score the compressed
            # candidate AND — sliced at the non-predicted rows — form the
            # subset payload, since ids depend only on (value, lo, hi, bits).
            ids, reps, lo, hi = quantizer.encode_ids(rows)
            h_cps = np.take(reps, ids).reshape(rows.shape)

            selection, proportion = self._select(rows, h_cps, h_pdt)
            payload, nbytes = self._build_compressed_payload(
                rows, selection, quantizer, ids, reps, lo, hi
            )
            if self.health is not None:
                counts = np.bincount(selection.ravel(), minlength=3)
                self.health.record_selection(key.pair, counts, bits, t)
            return ChannelMessage(
                payload=("cps", selection, payload, lo, hi, bits),
                nbytes=nbytes,
                meta={"proportion": proportion, "bits": bits},
            )

        def receive(
            self,
            key: ChannelKey,
            message: ChannelMessage,
            t: int,
            rows_idx: np.ndarray | None = None,
        ) -> ReceiveResult:
            kind = message.payload[0]
            if kind == "exact":
                # The responder's read-only snapshot (see respond): shared,
                # not copied — the halo scatter copies out of it.
                _, rows, m_cr = message.payload
                self._requester_trend[key] = TrendState(
                    h_last=rows, m_cr=m_cr, boundary_t=t
                )
                return ReceiveResult(rows=rows)

            if kind == "cps_only":
                rows = message.payload[1].decode()
                return ReceiveResult(
                    rows=rows,
                    meta=dict(message.meta),
                )

            _, selection, quantized, lo, hi, bits = message.payload
            state = self._requester_trend.get(key)
            if state is None:
                raise RuntimeError(
                    f"channel {key} received a selector message before any "
                    "exact trend snapshot"
                )
            h_pdt = self._predict(state, t % self.trend_period + 1)
            rows = self._reconstruct(selection, quantized, h_pdt)
            return ReceiveResult(
                rows=rows,
                meta=dict(message.meta),
            )

    return _ReferenceReqECPolicy


@pytest.fixture(scope="session")
def reference_reqec_policy():
    """The pre-change ReqEC-FP policy class (ships ``M_cr``)."""
    return _make_reference_reqec_policy()
