"""StoreBuilder: one writer seam over the memory and mmap backends.

The streaming generators produce per-vertex columns (features, labels,
masks) as sequential row blocks and CSR columns as edge-position
scatters; the builder routes both either into resident arrays (memory
backend — the result is a :func:`~repro.graph.store.memory.memory_bundle`)
or into an on-disk chunk directory via
:class:`~repro.graph.store.mmapstore.MmapStoreWriter`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.store.base import GraphStoreBundle
from repro.graph.store.external import ChunkedEdgeArray
from repro.graph.store.memory import memory_bundle
from repro.graph.store.mmapstore import (
    DEFAULT_CHUNK_VERTICES,
    DEFAULT_RESIDENT_BLOCKS,
    MmapStoreWriter,
    open_bundle,
    release_pages,
)

__all__ = ["StoreBuilder"]

_COLUMNS = ("features", "labels", "train_mask", "val_mask", "test_mask")


class _MemoryColumn:
    """Sequential block appender accumulating into one resident array."""

    def __init__(
        self,
        sink: dict[str, np.ndarray],
        component: str,
        dtype: np.dtype | type,
    ) -> None:
        self._sink = sink
        self._component = component
        self._dtype = np.dtype(dtype)
        self._blocks: list[np.ndarray] = []

    def append(self, block: np.ndarray) -> None:
        self._blocks.append(np.ascontiguousarray(block, dtype=self._dtype))

    def close(self) -> None:
        self._sink[self._component] = (
            np.concatenate(self._blocks)
            if self._blocks
            else np.empty(0, dtype=self._dtype)
        )


class StoreBuilder:
    """Assemble one attributed graph into a chosen store backend.

    Args:
        num_vertices: Vertex count of the graph being built.
        backend: ``"memory"`` (default, resident arrays) or ``"mmap"``.
        out_dir: Store directory (required for the mmap backend).
        chunk_vertices: Rows per chunk file (mmap backend).
        max_resident_blocks: LRU budget of the stores returned by
            :meth:`finish` (mmap backend).
    """

    def __init__(
        self,
        num_vertices: int,
        backend: str = "memory",
        out_dir: str | Path | None = None,
        chunk_vertices: int = DEFAULT_CHUNK_VERTICES,
        max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
    ) -> None:
        if backend not in ("memory", "mmap"):
            raise ValueError(f"unknown store backend {backend!r}")
        if backend == "mmap" and out_dir is None:
            raise ValueError("the mmap backend requires out_dir")
        self.backend = backend
        self.num_vertices = int(num_vertices)
        self._max_resident = int(max_resident_blocks)
        self._writer: MmapStoreWriter | None = None
        self._arrays: dict[str, np.ndarray] = {}
        self._indptr: np.ndarray | None = None
        self._index_sink: ChunkedEdgeArray | None = None
        if backend == "mmap":
            self._writer = MmapStoreWriter(
                out_dir, self.num_vertices, chunk_vertices
            )

    # -- per-vertex columns -------------------------------------------
    def column_writer(
        self,
        component: str,
        row_shape: tuple[int, ...],
        dtype: np.dtype | type,
    ) -> object:
        if self._writer is not None:
            return self._writer.column_writer(component, row_shape, dtype)
        return _MemoryColumn(self._arrays, component, dtype)

    def set_column(self, component: str, array: np.ndarray) -> None:
        """Write one already-resident array (labels, masks) as a column."""
        if self._writer is not None:
            self._writer.write_column(component, array)
        else:
            self._arrays[component] = array

    # -- topology ------------------------------------------------------
    def set_indptr(self, indptr: np.ndarray) -> None:
        self._indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if self._writer is not None:
            self._writer.set_indptr(self._indptr)

    def indices_sink(self) -> ChunkedEdgeArray:
        if self._indptr is None:
            raise RuntimeError("set_indptr must be called first")
        if self._writer is not None:
            self._index_sink = ChunkedEdgeArray(
                self._writer.edge_chunk_offsets(),
                self._writer.edge_buffers("indices", np.int64),
            )
        else:
            self._index_sink = ChunkedEdgeArray.in_memory(
                int(self._indptr[-1]), np.int64
            )
        return self._index_sink

    # -- assembly ------------------------------------------------------
    def finish(
        self, num_classes: int, name: str, meta: dict[str, object] | None = None
    ) -> GraphStoreBundle:
        if self._indptr is None or self._index_sink is None:
            raise RuntimeError("topology was never written")
        if self._writer is not None:
            self._index_sink.flush()
            for buf in self._index_sink.buffers:
                release_pages(buf)
            self._writer.finalize(num_classes, name, meta)
            return open_bundle(
                self._writer.root, max_resident_blocks=self._max_resident
            )
        missing = [c for c in _COLUMNS if c not in self._arrays]
        if missing:
            raise RuntimeError(f"columns never written: {missing}")
        return memory_bundle(
            CSRGraph(self._indptr, self._index_sink.buffers[0], None),
            *(self._arrays[c] for c in _COLUMNS),
            num_classes=num_classes,
            name=name,
            meta=meta,
        )
