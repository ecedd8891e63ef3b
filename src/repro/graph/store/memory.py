"""In-RAM store backends wrapping today's arrays (the default).

These are thin adapters: ``slice``/``adjacency_block`` return views of
the wrapped arrays, so every byte read through the store seam is the
same byte the pre-store code read — the memory backend is bit-identical
by construction, which is what keeps the golden configs pinned.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.store.base import (
    DEFAULT_MAX_BLOCK_EDGES,
    FeatureStore,
    GraphStore,
    GraphStoreBundle,
)

__all__ = ["MemoryFeatureStore", "MemoryGraphStore", "memory_bundle"]

# Default rows per iter_blocks chunk; chosen so a float32 feature block
# with d=128 is ~32 MB — large enough to amortize, small enough to stay
# cache/RSS friendly. Memory stores only use it to bound view sizes.
DEFAULT_BLOCK_ROWS = 65_536


class MemoryFeatureStore(FeatureStore):
    """Wrap one resident ndarray (1-D or 2-D) behind the row API."""

    def __init__(
        self, array: np.ndarray, block_rows: int = DEFAULT_BLOCK_ROWS
    ) -> None:
        self._array = np.ascontiguousarray(array)
        if self._array.ndim not in (1, 2):
            raise ValueError("feature stores hold 1-D or 2-D arrays")
        self._block_rows = int(block_rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def slice(self, start: int, stop: int) -> np.ndarray:
        return self._array[start:stop]

    def iter_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        n = self.num_rows
        for start in range(0, max(n, 1), self._block_rows):
            stop = min(start + self._block_rows, n)
            if start >= stop:
                break
            yield start, stop, self._array[start:stop]

    def rows(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (
            ids.size == ids[-1] - ids[0] + 1
            and (ids.size == 1 or bool(np.all(np.diff(ids) == 1)))
        ):
            return self._array[int(ids[0]):int(ids[-1]) + 1]
        return self._array[ids]

    def to_array(self) -> np.ndarray:
        return self._array


class MemoryGraphStore(GraphStore):
    """Wrap one resident :class:`CSRGraph` behind the topology API."""

    def __init__(
        self, graph: CSRGraph, block_vertices: int = DEFAULT_BLOCK_ROWS
    ) -> None:
        self._graph = graph
        self._block_vertices = int(block_vertices)

    @property
    def indptr(self) -> np.ndarray:
        return self._graph.indptr

    @property
    def has_weights(self) -> bool:
        return self._graph.weights is not None

    def adjacency_block(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        lo = int(self._graph.indptr[start])
        hi = int(self._graph.indptr[stop])
        indices = self._graph.indices[lo:hi]
        weights = (
            self._graph.weights[lo:hi] if self._graph.weights is not None else None
        )
        return indices, weights

    def iter_adjacency(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
        n = self.num_vertices
        for start in range(0, max(n, 1), self._block_vertices):
            stop = min(start + self._block_vertices, n)
            if start >= stop:
                break
            for lo, hi in self._edge_bounded_spans(
                start, stop, DEFAULT_MAX_BLOCK_EDGES
            ):
                indices, weights = self.adjacency_block(lo, hi)
                yield lo, hi, indices, weights

    def to_csr(self) -> CSRGraph:
        return self._graph


def memory_bundle(
    adjacency: CSRGraph,
    features: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    test_mask: np.ndarray,
    num_classes: int,
    name: str = "unnamed",
    meta: dict[str, object] | None = None,
) -> GraphStoreBundle:
    """The one constructor of a resident attributed graph.

    Wraps the arrays zero-copy (after coercing features to float32,
    labels to int64 and masks to bool) and validates them: every
    per-vertex array has one row per vertex, ``num_classes`` is
    positive and every labelled vertex has a class id in range.
    """
    n = adjacency.num_vertices
    features = np.ascontiguousarray(features, dtype=np.float32)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    masks: dict[str, np.ndarray] = {}
    for mask_name, mask in (
        ("train_mask", train_mask), ("val_mask", val_mask), ("test_mask", test_mask)
    ):
        mask = np.ascontiguousarray(mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError(f"{mask_name} shape {mask.shape} != ({n},)")
        masks[mask_name] = mask
    if features.shape[0] != n:
        raise ValueError(f"features rows {features.shape[0]} != vertices {n}")
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if num_classes <= 0:
        raise ValueError("num_classes must be positive")
    labelled = labels[masks["train_mask"] | masks["val_mask"] | masks["test_mask"]]
    if labelled.size and (labelled.min() < 0 or labelled.max() >= num_classes):
        raise ValueError("labelled vertex has class id out of range")
    return GraphStoreBundle(
        adjacency=MemoryGraphStore(adjacency),
        feature_store=MemoryFeatureStore(features),
        label_store=MemoryFeatureStore(labels),
        train_mask_store=MemoryFeatureStore(masks["train_mask"]),
        val_mask_store=MemoryFeatureStore(masks["val_mask"]),
        test_mask_store=MemoryFeatureStore(masks["test_mask"]),
        num_classes=num_classes,
        name=name,
        meta=meta,
    )
