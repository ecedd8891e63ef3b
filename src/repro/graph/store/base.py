"""The storage seam: where graph bytes live is one abstraction.

Two interfaces cover everything the system reads from a graph:

* :class:`GraphStore` — CSR topology. Row pointers are always resident
  (``O(n)``), but the column/weight arrays may live on disk in chunks;
  consumers that scale stream :meth:`GraphStore.iter_adjacency` blocks
  instead of touching ``indices`` wholesale.
* :class:`FeatureStore` — row-addressable dense data (features, labels,
  split masks). Consumers ask for the rows they own
  (:meth:`FeatureStore.rows`) or stream blocks; nothing in the training
  path materializes the full matrix.

:class:`GraphStoreBundle` packages one topology store plus the
per-vertex stores; it is the one graph type, which every consumer
(partitioners, subgraph extraction, the trainer and the baselines)
takes, whatever backend holds the bytes.

Backends: :mod:`repro.graph.store.memory` wraps resident arrays
(``memory_bundle`` is the constructor of a resident graph) and
:mod:`repro.graph.store.mmapstore` maps npy chunk files with an LRU
residency budget (see ``docs/storage.md``).
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "DEFAULT_MAX_BLOCK_EDGES",
    "FeatureStore",
    "GraphStore",
    "GraphStoreBundle",
]

# Upper bound on the edges one iter_adjacency block carries (~8 MB of
# int64 columns). Storage chunks are split on row boundaries to honor
# it: on power-law graphs the first chunks hold most of the edges, and
# consumers allocate per-block temporaries proportional to block size.
DEFAULT_MAX_BLOCK_EDGES = 1 << 20


class FeatureStore(abc.ABC):
    """Row-addressable dense storage (2-D feature matrix or 1-D column)."""

    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Full logical shape ``(n,)`` or ``(n, d)``."""

    @property
    @abc.abstractmethod
    def dtype(self) -> np.dtype:
        """Element dtype."""

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def nbytes(self) -> int:
        """Logical payload size in bytes (on disk for mmap stores)."""
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    @abc.abstractmethod
    def slice(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)``; a zero-copy view where the backend can."""

    @abc.abstractmethod
    def iter_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(start, stop, rows)`` covering all rows in order."""

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Gather the rows named by ``ids`` (in the given order).

        Contiguous ascending ids take the :meth:`slice` fast path, which
        mmap backends serve as a zero-copy view; arbitrary ids gather
        block by block so only the touched chunks become resident.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty((0,) + self.shape[1:], dtype=self.dtype)
        if ids.size == ids[-1] - ids[0] + 1 and ids[0] >= 0:
            # Cheap contiguity test: right span plus strictly ascending.
            if ids.size == 1 or bool(np.all(np.diff(ids) == 1)):
                return self.slice(int(ids[0]), int(ids[-1]) + 1)
        return self._gather(ids)

    def _gather(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((ids.size,) + self.shape[1:], dtype=self.dtype)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        cursor = 0
        for start, stop, block in self.iter_blocks():
            if cursor >= sorted_ids.size:
                break
            if sorted_ids[cursor] >= stop:
                continue
            end = int(np.searchsorted(sorted_ids, stop, side="left"))
            sel = sorted_ids[cursor:end] - start
            out[order[cursor:end]] = block[sel]
            cursor = end
        if cursor != sorted_ids.size:
            raise IndexError("row id out of range")
        return out

    def to_array(self) -> np.ndarray:
        """Materialize the full matrix (tests / small graphs only)."""
        return self.slice(0, self.num_rows)


class GraphStore(abc.ABC):
    """CSR topology with chunk-addressable columns.

    ``indptr`` is resident (``O(n)`` — the one array every consumer
    needs for degrees and block maths); ``indices``/``weights`` access
    goes through row-range methods so out-of-core backends only fault in
    the touched chunks.
    """

    @property
    @abc.abstractmethod
    def indptr(self) -> np.ndarray:
        """``(n + 1,)`` int64 row pointers (always addressable)."""

    @property
    @abc.abstractmethod
    def has_weights(self) -> bool: ...

    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    @property
    def average_degree(self) -> float:
        n = self.num_vertices
        return self.num_edges / n if n else 0.0

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @abc.abstractmethod
    def adjacency_block(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(indices, weights)`` of rows ``[start, stop)``, concatenated.

        ``weights`` is ``None`` for unweighted graphs. Blocks within one
        storage chunk are zero-copy views in mmap backends.
        """

    @abc.abstractmethod
    def iter_adjacency(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
        """Yield ``(start, stop, indices, weights)`` covering all rows.

        Blocks are row-aligned (a row never spans two blocks) and
        backends bound them to roughly :data:`DEFAULT_MAX_BLOCK_EDGES`
        edges, so consumers' per-block temporaries stay small even on
        power-law graphs whose head chunks hold most of the edges. A
        single row larger than the bound is yielded alone.
        """

    def _edge_bounded_spans(
        self, start: int, stop: int, max_edges: int
    ) -> Iterator[tuple[int, int]]:
        """Split rows ``[start, stop)`` into row-aligned spans of at
        most ``max_edges`` edges (single oversized rows excepted)."""
        indptr = self.indptr
        lo = start
        while lo < stop:
            target = int(indptr[lo]) + max_edges
            hi = int(np.searchsorted(indptr, target, side="right")) - 1
            hi = min(max(hi, lo + 1), stop)
            yield lo, hi
            lo = hi

    def to_csr(self) -> CSRGraph:
        """Materialize the full CSR (tests / small graphs only)."""
        chunks = list(self.iter_adjacency())
        indices = (
            np.concatenate([c[2] for c in chunks])
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        weights = None
        if self.has_weights:
            weights = np.concatenate([c[3] for c in chunks])
        return CSRGraph(np.asarray(self.indptr).copy(), indices, weights)


class GraphStoreBundle:
    """One attributed graph ``G = <V, E, X_V>`` behind the store seam.

    Labels and split masks are small (``O(n)``) and cached as resident
    arrays on first touch; the feature matrix is only reachable through
    the row API (there is deliberately no ``.features`` attribute).
    """

    def __init__(
        self,
        adjacency: GraphStore,
        feature_store: FeatureStore,
        label_store: FeatureStore,
        train_mask_store: FeatureStore,
        val_mask_store: FeatureStore,
        test_mask_store: FeatureStore,
        num_classes: int,
        name: str = "unnamed",
        meta: dict[str, object] | None = None,
    ) -> None:
        self.adjacency = adjacency
        self.feature_store = feature_store
        self.label_store = label_store
        self.train_mask_store = train_mask_store
        self.val_mask_store = val_mask_store
        self.test_mask_store = test_mask_store
        self.num_classes = int(num_classes)
        self.name = name
        self.meta = dict(meta or {})
        self._labels: np.ndarray | None = None
        self._masks: dict[str, np.ndarray] = {}

    @property
    def num_vertices(self) -> int:
        return self.adjacency.num_vertices

    @property
    def num_edges(self) -> int:
        return self.adjacency.num_edges

    @property
    def feature_dim(self) -> int:
        return self.feature_store.shape[1]

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = np.ascontiguousarray(
                self.label_store.to_array(), dtype=np.int64
            )
        return self._labels

    def _mask(self, key: str) -> np.ndarray:
        if key not in self._masks:
            store = getattr(self, f"{key}_store")
            self._masks[key] = np.ascontiguousarray(
                store.to_array(), dtype=bool
            )
        return self._masks[key]

    @property
    def train_mask(self) -> np.ndarray:
        return self._mask("train_mask")

    @property
    def val_mask(self) -> np.ndarray:
        return self._mask("val_mask")

    @property
    def test_mask(self) -> np.ndarray:
        return self._mask("test_mask")

    def split_sizes(self) -> tuple[int, int, int]:
        return (
            int(self.train_mask.sum()),
            int(self.val_mask.sum()),
            int(self.test_mask.sum()),
        )

    def summary(self) -> str:
        """One-line description matching the paper's Table III columns."""
        train, val, test = self.split_sizes()
        return (
            f"{self.name}: |V|={self.num_vertices:,} |E|={self.num_edges:,} "
            f"d0={self.feature_dim} classes={self.num_classes} "
            f"avg_degree={self.adjacency.average_degree:.2f} "
            f"split={train}/{val}/{test}"
        )
