"""Persistent layer workspaces: the buffers the kernels actually read.

Layer ``l`` of every worker reads one ``(n_local + n_halo, d)`` matrix
``H_cat^{l-1}``. Each worker keeps it as a persistent *workspace*: the
halo exchange scatters decoded rows straight into its tail, the previous
layer's kernel writes its output into its head, the kernel reads it in
place. The backward gradient fetch does the same on one ``g_cat`` per
distinct width (nothing caches gradient halos across layers).

A buffer that an exchange and a kernel both touch comes through
:attr:`LayerWorkspaces.buffer_provider`: private arrays under
``execution="sync"``, :class:`~repro.mp.store.SharedStore` blocks named
``<kind>w<worker>`` under ``"multiprocess"`` (allocated by the
supervisor, attached by the worker process).

The first layer's input ``[X; X_halo]`` and aggregate ``M^1`` are
constant while the arrays they are built from are, so they are rebuilt
only when a worker's feature shard, cached halo features or adjacency is
a *different object* — what elastic reassignment, crash recovery's halo
refetch and a sampled-kernel refresh produce. See ``docs/engine.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.sparse import csr_matrix

from repro.core.gcn_math import spmm

if TYPE_CHECKING:
    from repro.core.worker import WorkerState

__all__ = ["LayerWorkspaces"]


def _private(_name: str, shape: tuple[int, int]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


class LayerWorkspaces:
    """Named persistent float32 buffers, one set per worker."""

    def __init__(self) -> None:
        # (block name, shape) -> zeroed float32 array.
        self.buffer_provider: Callable[..., np.ndarray] = _private
        self._arrays: dict[tuple[str, int], np.ndarray] = {}
        # worker -> (h_cat, features, halo_features) last copied in, and
        # worker -> (adjacency, M^1) computed from them.
        self._inputs: dict[int, tuple[np.ndarray, ...]] = {}
        self._aggregates: dict[int, tuple[csr_matrix, np.ndarray]] = {}

    def array(
        self, kind: str, state: WorkerState, rows: int, dim: int,
        shared: bool = True,
    ) -> np.ndarray:
        """The worker's ``kind`` buffer, (re)made when its shape changes.
        ``shared=False``: only kernels touch it, so it stays a private
        array under either executor."""
        key = (kind, state.worker_id)
        buf = self._arrays.get(key)
        if buf is None or buf.shape != (rows, dim):
            provider = self.buffer_provider if shared else _private
            buf = self._arrays[key] = provider(
                f"{kind}w{state.worker_id}", (rows, dim)
            )
        return buf

    def h_cat(self, state: WorkerState, k: int, dim: int) -> np.ndarray:
        """``[H^k; H^k_halo]`` — the input of layer ``k + 1``."""
        return self.array(f"h{k}", state, state.num_local + state.num_halo, dim)

    def g_cat(self, state: WorkerState, dim: int) -> np.ndarray:
        """``[G; G_halo]`` of width ``dim``, shared by equal-width layers."""
        return self.array(f"g{dim}", state, state.num_local + state.num_halo, dim)

    def local(self, kind: str, state: WorkerState, dim: int) -> np.ndarray:
        """An ``(n_local, dim)`` kernel-private buffer."""
        return self.array(kind, state, state.num_local, dim, shared=False)

    def first_input(self, state: WorkerState, halo_cached: bool) -> np.ndarray:
        """``[X; X_halo]``: features (and the cached first hop) copied in
        once per set of source arrays; without the cache the exchange
        fills the tail every iteration."""
        h_cat = self.h_cat(state, 0, state.features.shape[1])
        halo = state.halo_features if halo_cached else None
        inputs = (h_cat, state.features, halo)
        held = self._inputs.get(state.worker_id)
        if held is None or any(a is not b for a, b in zip(held, inputs)):
            h_cat[:state.num_local] = state.features
            if halo is not None:
                h_cat[state.num_local:] = halo
            self._inputs[state.worker_id] = inputs
            self._aggregates.pop(state.worker_id, None)
        return h_cat

    def first_aggregate(
        self, state: WorkerState, adjacency: csr_matrix, h_cat: np.ndarray
    ) -> np.ndarray:
        """``M^1 = adjacency @ first_input`` (cached first hop only)."""
        held = self._aggregates.get(state.worker_id)
        if held is None or held[0] is not adjacency:
            out = self.local("m1", state, h_cat.shape[1])
            held = (adjacency, spmm(adjacency, h_cat, out))
            self._aggregates[state.worker_id] = held
        return held[1]

    def clear(self) -> None:
        """Forget every buffer (worker shapes or contents changed)."""
        self._arrays.clear()
        self._inputs.clear()
        self._aggregates.clear()

    def held(self, worker: int) -> tuple[int, int]:
        """Resident bytes for ``worker`` in this process: everything, and
        the first-layer aggregate's share of it."""
        sizes = {
            kind: buf.nbytes
            for (kind, owner), buf in self._arrays.items() if owner == worker
        }
        return sum(sizes.values()), sizes.get("m1", 0)
