"""ML-centered training (AliGraph / AGL, paper section II-B, Fig. 2b): each
worker trains on its targets' capped L-hop cache, pulled from storage once,
so memory and compute grow like ``g^L`` (Table II) and the cap costs accuracy."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.worker import WorkerState
from repro.engine.backends import GCNBackend
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import LocalSubgraph, check_fanouts, sample_capped_rows

__all__ = ["CachedKHopBackend", "capped_khop_subgraph"]


def capped_khop_subgraph(adjacency: CSRGraph, targets: np.ndarray, fanouts: list[int],
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The sorted cached vertex set and the ``(m, 2)`` kept ``(dst, src)``
    aggregation edges: hop ``h`` keeps each frontier row's ``fanouts[h]``
    smallest of one uniform key drawn per candidate edge
    (:func:`~repro.graph.subgraph.sample_capped_rows`)."""
    indptr, indices = adjacency.indptr, adjacency.indices
    visited = np.zeros(adjacency.num_vertices, dtype=bool)
    frontier = np.unique(np.asarray(targets, dtype=np.int64))
    visited[frontier] = True
    edges = [np.empty((0, 2), dtype=np.int64)]
    for fanout in fanouts:
        positions, rows = sample_capped_rows(indptr, frontier, fanout, rng)
        src = indices[positions].astype(np.int64)
        edges.append(np.stack([frontier[rows], src], axis=1))
        frontier = np.unique(src[~visited[src]])
        visited[frontier] = True
    return np.flatnonzero(visited), np.concatenate(edges)


class _WorkerCache(NamedTuple):
    targets: np.ndarray
    state: WorkerState
    a_transposed: csr_matrix  # kept edges are directed: gradients need A^T
    pull_bytes: int


class CachedKHopBackend(GCNBackend):
    """GCN whose worker graph is the capped L-hop cache of its targets,
    with an empty halo: the exchanges move no rows. ``fanouts`` (one
    integer >= 1 per layer) is AliGraph-FG's storage cap or AGL's sampling ratios."""

    name = "cached-khop"

    def __init__(self, fanouts: list[int]) -> None:
        self.fanouts = check_fanouts(fanouts)
        self.worker_caches: list[_WorkerCache] = []
        self._rebuilt: list[int] = []

    def build_workers(self, graph, normalized, partition, config):
        """Caches drawn from one ``default_rng(config.seed)`` in worker
        order; a rebuild keeps every cache whose targets stayed put."""
        del normalized  # kept edges carry their own global-degree weights
        rng = np.random.default_rng(config.seed)
        adjacency = graph.adjacency.to_csr()  # the frontier walk is random-access
        inv_sqrt = 1.0 / np.sqrt(np.diff(adjacency.indptr) + 1.0)
        row_bytes = graph.feature_dim * graph.feature_store.dtype.itemsize
        compact = np.zeros(graph.num_vertices, dtype=np.int64)  # global -> cache row
        old, self.worker_caches, self._rebuilt = self.worker_caches, [], []
        for w in range(partition.num_parts):
            targets = partition.part_vertices(w)
            if w < len(old) and np.array_equal(targets, old[w].targets):
                self.worker_caches.append(old[w])
                continue
            vertices, edges = capped_khop_subgraph(adjacency, targets, self.fanouts, rng)
            # Edges + self-loops, global-degree GCN weights, not rescaled (cap bias).
            pairs = np.concatenate([edges, np.stack([vertices, vertices], axis=1)])
            compact[vertices] = np.arange(vertices.size)
            ids = compact[pairs]
            a_local = csr_matrix(
                ((inv_sqrt[pairs[:, 0]] * inv_sqrt[pairs[:, 1]]).astype(np.float32), ids.T),
                shape=(vertices.size, vertices.size))
            is_target = np.isin(vertices, targets)
            sub = LocalSubgraph(vertices, np.empty(0, dtype=np.int64),
                                a_local.indptr, a_local.indices, a_local.data)
            state = WorkerState(
                w, sub, a_local, graph.feature_store.rows(vertices), graph.labels[vertices],
                *(mask[vertices] & is_target for mask in (
                    graph.train_mask, graph.val_mask, graph.test_mask)),
                requests={}, halo_slots={}, serves={},
                feature_store=graph.feature_store)
            pull = vertices.size * row_bytes + edges.shape[0] * 8
            self.worker_caches.append(_WorkerCache(targets, state, a_local.T.tocsr(), pull))
            self._rebuilt.append(w)
        return [cache.state for cache in self.worker_caches]

    def bind(self, ctx) -> None:
        if len(self.fanouts) != ctx.params.num_layers:
            raise ValueError(f"{len(self.fanouts)} fanouts for {ctx.params.num_layers} layers")
        super().bind(ctx)
        self._charge_pulls(range(len(self.worker_caches)), "lhop_pull")

    def on_membership_change(self) -> None:
        self._charge_pulls(self._rebuilt, "recovery")

    def _charge_pulls(self, workers, category: str) -> None:
        # Storage spans the machines: (machines - 1) / machines is remote.
        spec, machines = self.ctx.spec, self.ctx.spec.num_machines
        for w in workers:
            home = spec.worker_machine(w)
            remote = int(self.worker_caches[w].pull_bytes * (machines - 1) / machines)
            if remote:
                self.ctx.runtime.charge((home + 1) % machines, home, remote, category)

    def transposed(self, state: WorkerState, layer: int) -> csr_matrix:
        return self.worker_caches[state.worker_id].a_transposed
