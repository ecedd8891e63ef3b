"""Memory-mapped store backend: npy chunk files + manifest + LRU residency.

On-disk layout (one directory per graph)::

    manifest.json            magic "ECGSTORE", version, shapes, chunking
    indptr.npy               (n+1,) int64 row pointers
    indices-00000.npy ...    column ids, chunked by vertex ranges
    weights-00000.npy ...    optional, aligned with indices
    features-00000.npy ...   feature rows, chunked by the same ranges
    labels-00000.npy ...     and likewise labels / the three split masks

Chunk ``c`` always covers vertex rows ``[c*cv, min((c+1)*cv, n))`` —
edge chunks are aligned to the same vertex boundaries, so a vertex's
adjacency row never spans two files and row-range reads touch exactly
the chunks that contain them. :func:`open_bundle` checks every file's
npy header and size against the manifest before it hands out a store.

Residency: each store keeps an :class:`ChunkCache` of open ``np.memmap``
objects with a block budget. Eviction advises the kernel to drop the
chunk's pages (``MADV_DONTNEED``), so peak RSS is bounded by the budget
times the chunk size rather than the on-disk matrix size — file-backed
pages are re-read transparently if the chunk is touched again.
"""

from __future__ import annotations

import json
import mmap as _mmap_mod
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.graph.store.base import (
    DEFAULT_MAX_BLOCK_EDGES,
    FeatureStore,
    GraphStore,
    GraphStoreBundle,
)

__all__ = [
    "ChunkCache",
    "MmapFeatureStore",
    "MmapGraphStore",
    "MmapStoreWriter",
    "open_bundle",
    "to_mmap_bundle",
    "read_manifest",
]

MANIFEST_MAGIC = "ECGSTORE"
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_CHUNK_VERTICES = 65_536
DEFAULT_RESIDENT_BLOCKS = 4

_PER_VERTEX = ("features", "labels", "train_mask", "val_mask", "test_mask")


def _chunk_path(root: Path, component: str, chunk: int) -> Path:
    return root / f"{component}-{chunk:05d}.npy"


def release_pages(array: np.ndarray) -> None:
    """Advise the kernel to drop a memmap's resident pages.

    A no-op for non-memmap arrays and on platforms without
    ``MADV_DONTNEED``. File-backed read-only pages are clean, so the
    kernel simply re-reads them on the next access — correctness is
    unaffected, only residency."""
    mm = getattr(array, "_mmap", None)
    if mm is None or not hasattr(_mmap_mod, "MADV_DONTNEED"):
        return
    try:
        mm.madvise(_mmap_mod.MADV_DONTNEED)
    except (ValueError, OSError):
        pass


class ChunkCache:
    """LRU cache of open chunk memmaps with a residency budget."""

    def __init__(self, budget: int) -> None:
        if budget < 1:
            raise ValueError("residency budget must be >= 1")
        self.budget = int(budget)
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: int, loader: Callable[[], np.ndarray]) -> np.ndarray:
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        array = loader()
        self._cache[key] = array
        while len(self._cache) > self.budget:
            _, evicted = self._cache.popitem(last=False)
            self.evictions += 1
            release_pages(evicted)
        return array

    def drop_all(self) -> None:
        for array in self._cache.values():
            release_pages(array)
        self._cache.clear()

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "resident_blocks": len(self._cache),
            "budget_blocks": self.budget,
        }


def read_manifest(root: str | Path) -> dict:
    """Load and validate a store manifest; clear errors on bad files."""
    root = Path(root)
    path = root / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"no store manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt store manifest {path}: {exc}") from None
    if manifest.get("magic") != MANIFEST_MAGIC:
        raise ValueError(
            f"{path} is not a graph store manifest "
            f"(magic {manifest.get('magic')!r}, expected {MANIFEST_MAGIC!r})"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported store manifest version {manifest.get('version')} "
            f"(expected {MANIFEST_VERSION})"
        )
    return manifest


class MmapFeatureStore(FeatureStore):
    """Row-chunked npy files behind the :class:`FeatureStore` API."""

    def __init__(
        self,
        root: str | Path,
        component: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
        chunk_rows: int,
        max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
    ) -> None:
        self._root = Path(root)
        self._component = component
        self._shape = tuple(int(s) for s in shape)
        self._dtype = np.dtype(dtype)
        self._chunk_rows = int(chunk_rows)
        self.cache = ChunkCache(max_resident_blocks)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def num_chunks(self) -> int:
        n = self._shape[0]
        return max((n + self._chunk_rows - 1) // self._chunk_rows, 1)

    def _chunk(self, chunk: int) -> np.ndarray:
        path = _chunk_path(self._root, self._component, chunk)
        return self.cache.get(chunk, lambda: np.load(path, mmap_mode="r"))

    def slice(self, start: int, stop: int) -> np.ndarray:
        if not 0 <= start <= stop <= self._shape[0]:
            raise IndexError(f"rows [{start}, {stop}) out of range")
        if start == stop:
            return np.empty((0,) + self._shape[1:], dtype=self._dtype)
        cv = self._chunk_rows
        first, last = start // cv, (stop - 1) // cv
        if first == last:
            block = self._chunk(first)
            return block[start - first * cv:stop - first * cv]
        out = np.empty((stop - start,) + self._shape[1:], dtype=self._dtype)
        for chunk in range(first, last + 1):
            lo = max(start, chunk * cv)
            hi = min(stop, (chunk + 1) * cv)
            block = self._chunk(chunk)
            out[lo - start:hi - start] = block[lo - chunk * cv:hi - chunk * cv]
        return out

    def iter_blocks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        n = self._shape[0]
        cv = self._chunk_rows
        for chunk in range(self.num_chunks):
            start = chunk * cv
            stop = min(start + cv, n)
            if start >= stop:
                break
            yield start, stop, self._chunk(chunk)

    def _gather(self, ids: np.ndarray) -> np.ndarray:
        # Group by chunk so each touched chunk is loaded exactly once.
        out = np.empty((ids.size,) + self._shape[1:], dtype=self._dtype)
        chunks = ids // self._chunk_rows
        order = np.argsort(chunks, kind="stable")
        sorted_chunks = chunks[order]
        bounds = np.flatnonzero(np.diff(sorted_chunks)) + 1
        for group in np.split(order, bounds):
            chunk = int(chunks[group[0]])
            block = self._chunk(chunk)
            out[group] = block[ids[group] - chunk * self._chunk_rows]
        return out


class MmapGraphStore(GraphStore):
    """Vertex-chunked CSR topology over npy files."""

    def __init__(
        self,
        root: str | Path,
        chunk_vertices: int,
        weighted: bool,
        max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
    ) -> None:
        self._root = Path(root)
        self._indptr = np.load(self._root / "indptr.npy", mmap_mode="r")
        self._chunk_vertices = int(chunk_vertices)
        self._weighted = bool(weighted)
        self.cache = ChunkCache(max_resident_blocks)
        self._weight_cache = ChunkCache(max_resident_blocks)

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def has_weights(self) -> bool:
        return self._weighted

    @property
    def chunk_vertices(self) -> int:
        return self._chunk_vertices

    @property
    def num_chunks(self) -> int:
        n = self.num_vertices
        cv = self._chunk_vertices
        return max((n + cv - 1) // cv, 1)

    def _indices_chunk(self, chunk: int) -> np.ndarray:
        path = _chunk_path(self._root, "indices", chunk)
        return self.cache.get(chunk, lambda: np.load(path, mmap_mode="r"))

    def _weights_chunk(self, chunk: int) -> np.ndarray:
        path = _chunk_path(self._root, "weights", chunk)
        return self._weight_cache.get(
            chunk, lambda: np.load(path, mmap_mode="r")
        )

    def adjacency_block(
        self, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray | None]:
        if not 0 <= start <= stop <= self.num_vertices:
            raise IndexError(f"rows [{start}, {stop}) out of range")
        cv = self._chunk_vertices
        lo_edge = int(self._indptr[start])
        hi_edge = int(self._indptr[stop])
        if lo_edge == hi_edge:
            empty = np.empty(0, dtype=np.int64)
            return empty, (
                np.empty(0, dtype=np.float32) if self._weighted else None
            )
        first, last = start // cv, (stop - 1) // cv
        if first == last:
            base = int(self._indptr[first * cv])
            indices = self._indices_chunk(first)[lo_edge - base:hi_edge - base]
            weights = None
            if self._weighted:
                weights = self._weights_chunk(first)[
                    lo_edge - base:hi_edge - base
                ]
            return indices, weights
        indices = np.empty(hi_edge - lo_edge, dtype=np.int64)
        weights = (
            np.empty(hi_edge - lo_edge, dtype=np.float32)
            if self._weighted
            else None
        )
        for chunk in range(first, last + 1):
            row_lo = max(start, chunk * cv)
            row_hi = min(stop, (chunk + 1) * cv)
            e_lo = int(self._indptr[row_lo])
            e_hi = int(self._indptr[row_hi])
            base = int(self._indptr[chunk * cv])
            indices[e_lo - lo_edge:e_hi - lo_edge] = self._indices_chunk(chunk)[
                e_lo - base:e_hi - base
            ]
            if weights is not None:
                weights[e_lo - lo_edge:e_hi - lo_edge] = self._weights_chunk(
                    chunk
                )[e_lo - base:e_hi - base]
        return indices, weights

    def iter_adjacency(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
        n = self.num_vertices
        cv = self._chunk_vertices
        for chunk in range(self.num_chunks):
            start = chunk * cv
            stop = min(start + cv, n)
            if start >= stop:
                break
            # The outer loop walks storage chunks (sub-spans are then
            # zero-copy views of one cached memmap); the inner split
            # bounds block size on skewed chunks.
            for lo, hi in self._edge_bounded_spans(
                start, stop, DEFAULT_MAX_BLOCK_EDGES
            ):
                indices, weights = self.adjacency_block(lo, hi)
                yield lo, hi, indices, weights


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class _ColumnWriter:
    """Sequential row appender spanning chunk files for one component."""

    def __init__(
        self,
        root: Path,
        component: str,
        num_rows: int,
        row_shape: tuple[int, ...],
        dtype: np.dtype,
        chunk_rows: int,
    ) -> None:
        self._root = root
        self._component = component
        self._num_rows = num_rows
        self._row_shape = row_shape
        self._dtype = np.dtype(dtype)
        self._chunk_rows = chunk_rows
        self._row = 0
        self._open_chunk = -1
        self._mm: np.ndarray | None = None

    def _open(self, chunk: int) -> None:
        self._flush()
        rows = min((chunk + 1) * self._chunk_rows, self._num_rows) - (
            chunk * self._chunk_rows
        )
        self._mm = np.lib.format.open_memmap(
            _chunk_path(self._root, self._component, chunk),
            mode="w+",
            dtype=self._dtype,
            shape=(rows,) + self._row_shape,
        )
        self._open_chunk = chunk

    def _flush(self) -> None:
        if self._mm is not None:
            self._mm.flush()
            release_pages(self._mm)
            self._mm = None

    def append(self, block: np.ndarray) -> None:
        block = np.ascontiguousarray(block, dtype=self._dtype)
        offset = 0
        while offset < block.shape[0]:
            chunk = self._row // self._chunk_rows
            if chunk != self._open_chunk:
                self._open(chunk)
            chunk_lo = chunk * self._chunk_rows
            room = min(
                (chunk + 1) * self._chunk_rows, self._num_rows
            ) - self._row
            take = min(room, block.shape[0] - offset)
            if take <= 0:
                raise ValueError(
                    f"{self._component}: wrote past {self._num_rows} rows"
                )
            pos = self._row - chunk_lo
            self._mm[pos:pos + take] = block[offset:offset + take]
            self._row += take
            offset += take

    def close(self) -> None:
        if self._row != self._num_rows:
            raise ValueError(
                f"{self._component}: wrote {self._row} of "
                f"{self._num_rows} rows"
            )
        self._flush()


class MmapStoreWriter:
    """Build an on-disk store directory chunk by chunk.

    Usage: construct with the vertex count and chunking, append
    per-vertex columns sequentially (``column_writer``), set the row
    pointers (``set_indptr``), obtain edge-aligned chunk buffers for the
    CSR fill (``edge_buffers``), then ``finalize`` to write the
    manifest.
    """

    def __init__(
        self,
        root: str | Path,
        num_vertices: int,
        chunk_vertices: int = DEFAULT_CHUNK_VERTICES,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.num_vertices = int(num_vertices)
        self.chunk_vertices = int(chunk_vertices)
        if self.chunk_vertices < 1:
            raise ValueError("chunk_vertices must be >= 1")
        self._columns: dict[str, dict] = {}
        self._indptr: np.ndarray | None = None
        self._weighted = False

    @property
    def num_chunks(self) -> int:
        n = self.num_vertices
        cv = self.chunk_vertices
        return max((n + cv - 1) // cv, 1)

    def column_writer(
        self,
        component: str,
        row_shape: tuple[int, ...],
        dtype: np.dtype | type,
    ) -> _ColumnWriter:
        dtype = np.dtype(dtype)
        self._columns[component] = {
            "shape": [self.num_vertices, *row_shape],
            "dtype": dtype.str,
        }
        return _ColumnWriter(
            self.root, component, self.num_vertices, tuple(row_shape),
            dtype, self.chunk_vertices,
        )

    def write_column(self, component: str, array: np.ndarray) -> None:
        """Convenience: write one resident array as a chunked column."""
        writer = self.column_writer(component, array.shape[1:], array.dtype)
        writer.append(array)
        writer.close()

    def set_indptr(self, indptr: np.ndarray) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.shape != (self.num_vertices + 1,):
            raise ValueError("indptr shape does not match num_vertices")
        np.save(self.root / "indptr.npy", indptr)
        self._indptr = indptr

    def edge_chunk_offsets(self) -> np.ndarray:
        """Edge offset of each chunk boundary (length num_chunks + 1)."""
        if self._indptr is None:
            raise RuntimeError("set_indptr must be called first")
        bounds = np.minimum(
            np.arange(self.num_chunks + 1, dtype=np.int64)
            * self.chunk_vertices,
            self.num_vertices,
        )
        return self._indptr[bounds]

    def edge_buffers(
        self, component: str, dtype: np.dtype | type
    ) -> list[np.ndarray]:
        """Writable edge-aligned chunk memmaps for the CSR fill."""
        offsets = self.edge_chunk_offsets()
        dtype = np.dtype(dtype)
        if component == "weights":
            self._weighted = True
        buffers = []
        for chunk in range(self.num_chunks):
            size = int(offsets[chunk + 1] - offsets[chunk])
            buffers.append(
                np.lib.format.open_memmap(
                    _chunk_path(self.root, component, chunk),
                    mode="w+",
                    dtype=dtype,
                    shape=(size,),
                )
            )
        return buffers

    def finalize(
        self,
        num_classes: int,
        name: str,
        meta: dict[str, object] | None = None,
    ) -> Path:
        if self._indptr is None:
            raise RuntimeError("set_indptr must be called before finalize")
        manifest = {
            "magic": MANIFEST_MAGIC,
            "version": MANIFEST_VERSION,
            "num_vertices": self.num_vertices,
            "num_edges": int(self._indptr[-1]),
            "chunk_vertices": self.chunk_vertices,
            "weighted": self._weighted,
            "num_classes": int(num_classes),
            "name": name,
            "meta": dict(meta or {}),
            "columns": self._columns,
        }
        path = self.root / MANIFEST_NAME
        path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
        return path


# ----------------------------------------------------------------------
# Bundle-level open/convert
# ----------------------------------------------------------------------
def _check_npy(path: Path, shape: tuple[int, ...], dtype: np.dtype) -> None:
    """Raise the format error unless ``path`` is an npy file of exactly
    ``shape`` and ``dtype`` with every data byte present."""
    if not path.is_file():
        raise ValueError(f"store file {path} is missing")
    try:
        with open(path, "rb") as fh:
            version = np.lib.format.read_magic(fh)
            read_header = (
                np.lib.format.read_array_header_1_0 if version == (1, 0)
                else np.lib.format.read_array_header_2_0
            )
            found_shape, fortran, found_dtype = read_header(fh)
            data_offset = fh.tell()
    except ValueError as exc:
        raise ValueError(f"store file {path} is not an npy file: {exc}") from None
    if tuple(found_shape) != shape or found_dtype != dtype or fortran:
        order = " (Fortran order)" if fortran else ""
        raise ValueError(
            f"store file {path} holds {found_dtype} {tuple(found_shape)}"
            f"{order}, the manifest implies {dtype} {shape}"
        )
    expected = data_offset + int(np.prod(shape)) * dtype.itemsize
    size = path.stat().st_size
    if size != expected:
        raise ValueError(
            f"store file {path} is {size} bytes, its header implies {expected}"
        )


def _validate_store(root: Path, manifest: dict) -> None:
    """Check every file the manifest implies against the manifest.

    Each per-vertex chunk ``c`` must hold ``min(cv, n - c·cv)`` rows of
    its column's dtype and row shape, ``indptr`` ``n + 1`` int64 entries
    from 0 to ``num_edges``, and each edge chunk the length ``indptr``
    implies; headers and file sizes are read, data bytes are not.
    """
    n = int(manifest["num_vertices"])
    cv = int(manifest["chunk_vertices"])
    if n < 0 or cv < 1:
        raise ValueError(
            f"store at {root}: bad num_vertices {n} / chunk_vertices {cv}"
        )
    starts = np.arange(0, n, cv, dtype=np.int64)
    stops = np.minimum(starts + cv, n)
    for component in _PER_VERTEX:
        spec = manifest["columns"][component]
        if int(spec["shape"][0]) != n:
            raise ValueError(
                f"store at {root}: column {component} has "
                f"{spec['shape'][0]} rows, num_vertices is {n}"
            )
        row_shape = tuple(int(s) for s in spec["shape"][1:])
        dtype = np.dtype(spec["dtype"])
        for chunk, (start, stop) in enumerate(zip(starts, stops)):
            _check_npy(
                _chunk_path(root, component, chunk),
                (int(stop - start),) + row_shape, dtype,
            )
    indptr_path = root / "indptr.npy"
    _check_npy(indptr_path, (n + 1,), np.dtype(np.int64))
    indptr = np.load(indptr_path, mmap_mode="r")
    num_edges = int(manifest["num_edges"])
    if indptr[0] != 0 or indptr[-1] != num_edges:
        raise ValueError(
            f"store file {indptr_path} spans edges [{indptr[0]}, "
            f"{indptr[-1]}), the manifest says [0, {num_edges})"
        )
    edge_components = [("indices", np.dtype(np.int64))]
    if manifest.get("weighted", False):
        edge_components.append(("weights", np.dtype(np.float32)))
    lengths = indptr[stops] - indptr[starts]
    for component, dtype in edge_components:
        for chunk, length in enumerate(lengths):
            _check_npy(
                _chunk_path(root, component, chunk), (int(length),), dtype
            )


def open_bundle(
    root: str | Path,
    max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
) -> GraphStoreBundle:
    """Open an on-disk store directory as a :class:`GraphStoreBundle`.

    The directory is validated first: a missing, truncated, resized or
    retyped file raises a ``ValueError`` naming it, so a damaged store
    never opens into a run that fails (or reads wrong values) later.
    """
    root = Path(root)
    manifest = read_manifest(root)
    cv = int(manifest["chunk_vertices"])
    columns = manifest["columns"]
    missing = [c for c in _PER_VERTEX if c not in columns]
    if missing:
        raise ValueError(f"store at {root} lacks columns: {missing}")
    _validate_store(root, manifest)

    def feature_store(component: str) -> MmapFeatureStore:
        spec = columns[component]
        return MmapFeatureStore(
            root, component, tuple(spec["shape"]), np.dtype(spec["dtype"]),
            chunk_rows=cv, max_resident_blocks=max_resident_blocks,
        )

    topology = MmapGraphStore(
        root, cv, weighted=bool(manifest.get("weighted", False)),
        max_resident_blocks=max_resident_blocks,
    )
    return GraphStoreBundle(
        adjacency=topology,
        feature_store=feature_store("features"),
        label_store=feature_store("labels"),
        train_mask_store=feature_store("train_mask"),
        val_mask_store=feature_store("val_mask"),
        test_mask_store=feature_store("test_mask"),
        num_classes=int(manifest["num_classes"]),
        name=manifest.get("name", "unnamed"),
        meta=manifest.get("meta", {}),
    )


def to_mmap_bundle(
    bundle: GraphStoreBundle,
    root: str | Path,
    chunk_vertices: int = DEFAULT_CHUNK_VERTICES,
    max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
) -> GraphStoreBundle:
    """Spill a bundle (any backend) to disk and reopen it.

    Bytes are copied block by block through the store APIs, so the peak
    extra memory is one chunk, not the full graph.
    """
    writer = MmapStoreWriter(root, bundle.num_vertices, chunk_vertices)
    for component, store in (
        ("features", bundle.feature_store),
        ("labels", bundle.label_store),
        ("train_mask", bundle.train_mask_store),
        ("val_mask", bundle.val_mask_store),
        ("test_mask", bundle.test_mask_store),
    ):
        column = writer.column_writer(
            component, store.shape[1:], store.dtype
        )
        for _, _, block in store.iter_blocks():
            column.append(block)
        column.close()

    topology = bundle.adjacency
    writer.set_indptr(np.asarray(topology.indptr))
    index_buffers = writer.edge_buffers("indices", np.int64)
    weight_buffers = (
        writer.edge_buffers("weights", np.float32)
        if topology.has_weights
        else None
    )
    offsets = writer.edge_chunk_offsets()
    cv = writer.chunk_vertices
    for chunk in range(writer.num_chunks):
        start = chunk * cv
        stop = min(start + cv, bundle.num_vertices)
        if start >= stop:
            break
        indices, weights = topology.adjacency_block(start, stop)
        index_buffers[chunk][:] = indices
        index_buffers[chunk].flush()
        release_pages(index_buffers[chunk])
        if weight_buffers is not None:
            weight_buffers[chunk][:] = weights
            weight_buffers[chunk].flush()
            release_pages(weight_buffers[chunk])
    del index_buffers, weight_buffers, offsets
    writer.finalize(bundle.num_classes, bundle.name, bundle.meta)
    return open_bundle(root, max_resident_blocks=max_resident_blocks)
