"""Out-of-core building blocks: external sort and chunked CSR fill.

The streaming generators encode edges as int64 keys (``src * n + dst``,
or ``lo * n + hi`` for undirected edges) and push them through an
:class:`ExternalSorter`: appended blocks are sorted and spilled as npy
runs, then merged pairwise blockwise — at no point does the full edge
list live in memory. The deduplicated ascending key stream drives the
CSR fill passes (:func:`fill_csr_directed`, :func:`fill_csr_symmetric`)
which scatter column ids into edge-aligned chunk buffers
(:class:`ChunkedEdgeArray`) — plain ``np.empty`` slices for the memory
backend, writable npy memmaps for the mmap backend.

``fill_csr_symmetric`` reconstructs exactly the row layout
``from_edge_list(both_arcs, deduplicate=True)`` produces from a
key-sorted unique undirected edge list: row ``v`` holds the forward
targets (``hi`` ascending) followed by the reverse sources (``lo``
ascending). That determinism is what keeps the SBM generator's bytes
independent of its chunking and backend.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from repro.graph.store.mmapstore import release_pages

__all__ = [
    "ExternalSorter",
    "ChunkedEdgeArray",
    "fill_csr_directed",
    "fill_csr_symmetric",
]

DEFAULT_RUN_SIZE = 4_000_000  # int64 keys per sorted run (~32 MB)
DEFAULT_MERGE_BLOCK = 1_000_000


def _npy_header(fh: BinaryIO) -> tuple[tuple[int, ...], np.dtype]:
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
    if fortran:
        raise ValueError("fortran-order npy runs are not supported")
    return shape, dtype


def _npy_length(path: Path) -> int:
    with open(path, "rb") as fh:
        shape, _ = _npy_header(fh)
    return int(shape[0])


class ExternalSorter:
    """Sort a stream of int64 keys with bounded memory.

    Appended blocks accumulate until ``run_size``, are sorted and
    spilled to ``workdir`` as one npy run each, and are finally merged
    blockwise. With ``workdir=None`` runs stay in memory (small inputs,
    unit tests) — the merge path is identical.
    """

    def __init__(
        self,
        workdir: str | Path | None = None,
        run_size: int = DEFAULT_RUN_SIZE,
        merge_block: int = DEFAULT_MERGE_BLOCK,
    ) -> None:
        if run_size < 2 or merge_block < 2:
            raise ValueError("run_size and merge_block must be >= 2")
        self._workdir = Path(workdir) if workdir is not None else None
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if self._workdir is not None:
            self._workdir.mkdir(parents=True, exist_ok=True)
        self._run_size = int(run_size)
        self._merge_block = int(merge_block)
        self._pending: list[np.ndarray] = []
        self._pending_size = 0
        self._runs: list[Path | np.ndarray] = []
        self._sealed = False
        self.total_appended = 0

    def append(self, keys: np.ndarray) -> None:
        if self._sealed:
            raise RuntimeError("sorter already merged")
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        self.total_appended += keys.size
        self._pending.append(keys)
        self._pending_size += keys.size
        if self._pending_size >= self._run_size:
            self._spill()

    def _spill(self) -> None:
        if not self._pending:
            return
        run = np.sort(np.concatenate(self._pending))
        self._pending = []
        self._pending_size = 0
        if self._workdir is None:
            self._runs.append(run)
            return
        path = self._workdir / f"run-{len(self._runs):05d}.npy"
        np.save(path, run)
        self._runs.append(path)

    @staticmethod
    def _run_blocks(
        run: "Path | np.ndarray", block: int
    ) -> Iterator[np.ndarray]:
        # On-disk runs are streamed with plain reads rather than mmap:
        # mapped pages (even clean ones) count against the process RSS
        # until reclaim, and the merge only ever reads forward once.
        if isinstance(run, Path):
            with open(run, "rb") as fh:
                shape, dtype = _npy_header(fh)
                remaining = int(shape[0])
                while remaining > 0:
                    count = min(block, remaining)
                    data = np.fromfile(fh, dtype=dtype, count=count)
                    if data.shape[0] != count:
                        raise ValueError(f"truncated sorter run: {run}")
                    remaining -= count
                    yield data
            return
        for start in range(0, run.shape[0], block):
            yield run[start:start + block]

    def _merge_two(
        self,
        a: "Path | np.ndarray",
        b: "Path | np.ndarray",
        emit: Callable[[np.ndarray], None],
    ) -> None:
        """Blockwise merge of two sorted runs (keeps duplicates)."""
        block = self._merge_block
        it_a = self._run_blocks(a, block)
        it_b = self._run_blocks(b, block)
        buf_a = next(it_a, None)
        buf_b = next(it_b, None)
        while buf_a is not None and buf_b is not None:
            # Everything <= the smaller of the two block maxima can be
            # emitted now: no later block of either run may undercut it.
            bound = min(buf_a[-1], buf_b[-1])
            ia = int(np.searchsorted(buf_a, bound, side="right"))
            ib = int(np.searchsorted(buf_b, bound, side="right"))
            merged = np.concatenate([buf_a[:ia], buf_b[:ib]])
            # Two ascending runs: timsort (``stable``) merges them in one
            # linear pass, where the default kind sorts from scratch.
            merged.sort(kind="stable")
            if merged.size:
                emit(merged)
            buf_a = buf_a[ia:] if ia < buf_a.shape[0] else next(it_a, None)
            buf_b = buf_b[ib:] if ib < buf_b.shape[0] else next(it_b, None)
        for rest, it in ((buf_a, it_a), (buf_b, it_b)):
            if rest is not None and rest.size:
                emit(rest)
            for tail in it:
                if tail.size:
                    emit(tail)

    def _merged_run(
        self, a: "Path | np.ndarray", b: "Path | np.ndarray", index: int
    ) -> "Path | np.ndarray":
        if self._workdir is None:
            parts: list[np.ndarray] = []
            self._merge_two(a, b, parts.append)
            return (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
        path = self._workdir / f"merge-{index:05d}.npy"
        total = sum(
            _npy_length(run) if isinstance(run, Path) else run.shape[0]
            for run in (a, b)
        )
        # Stream-write the merged run with plain file I/O: a writable
        # memmap would hold every dirty page resident until writeback,
        # so the final merge alone would spike RSS by the whole edge
        # list (~8 bytes/arc) — the one thing an external sort exists
        # to avoid.
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
                "fortran_order": False,
                "shape": (int(total),),
            })

            def emit(block: np.ndarray) -> None:
                np.ascontiguousarray(block, dtype=np.int64).tofile(fh)

            self._merge_two(a, b, emit)
        for old in (a, b):
            if isinstance(old, Path):
                old.unlink(missing_ok=True)
        return path

    def sorted_blocks(self, unique: bool = True) -> Iterator[np.ndarray]:
        """Stream the fully sorted keys in ascending blocks.

        ``unique=True`` (the default) also drops duplicates across block
        boundaries. Single use: the sorter seals itself.
        """
        if self._sealed:
            raise RuntimeError("sorter already merged")
        self._spill()
        self._sealed = True
        runs = self._runs
        self._runs = []
        if not runs:
            return
        index = 0
        while len(runs) > 1:
            merged: list[Path | np.ndarray] = []
            for i in range(0, len(runs) - 1, 2):
                merged.append(self._merged_run(runs[i], runs[i + 1], index))
                index += 1
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        previous_last: int | None = None
        for block in self._run_blocks(runs[0], self._merge_block):
            if unique:
                if block.size > 1:
                    keep = np.empty(block.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(block[1:], block[:-1], out=keep[1:])
                    block = block[keep]
                if (
                    previous_last is not None
                    and block.size
                    and block[0] == previous_last
                ):
                    block = block[1:]
                if block.size:
                    previous_last = int(block[-1])
            if block.size:
                yield block
        if isinstance(runs[0], Path):
            runs[0].unlink(missing_ok=True)


class ChunkedEdgeArray:
    """An edge-aligned array split over per-chunk buffers.

    ``offsets[c]`` is the first global edge position of chunk ``c``
    (length ``num_chunks + 1``); buffers may be plain ndarrays (memory
    backend) or writable npy memmaps (mmap backend). ``scatter`` routes
    position/value batches to the owning buffers.
    """

    def __init__(
        self, offsets: np.ndarray, buffers: list[np.ndarray]
    ) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.shape[0] != len(buffers) + 1:
            raise ValueError("offsets must have one entry per buffer + 1")
        self.buffers = buffers

    @classmethod
    def in_memory(
        cls, num_edges: int, dtype: np.dtype | type
    ) -> "ChunkedEdgeArray":
        offsets = np.array([0, num_edges], dtype=np.int64)
        return cls(offsets, [np.empty(num_edges, dtype=dtype)])

    def scatter(self, positions: np.ndarray, values: np.ndarray) -> None:
        if len(self.buffers) == 1:
            self.buffers[0][positions - self.offsets[0]] = values
            return
        chunks = np.searchsorted(self.offsets, positions, side="right") - 1
        order = np.argsort(chunks, kind="stable")
        sorted_chunks = chunks[order]
        bounds = np.flatnonzero(np.diff(sorted_chunks)) + 1
        for group in np.split(order, bounds):
            chunk = int(chunks[group[0]])
            self.buffers[chunk][
                positions[group] - self.offsets[chunk]
            ] = values[group]

    def write_sequential(self, start: int, values: np.ndarray) -> None:
        """Write a contiguous span starting at global position ``start``.

        Sequential fills retire each chunk buffer the moment its last
        position is written (flush + page release), so the resident
        dirty footprint of a whole-graph CSR fill is one chunk, not the
        full edge list.
        """
        if len(self.buffers) == 1:
            base = int(self.offsets[0])
            self.buffers[0][start - base:start - base + values.size] = values
            return
        cursor = 0
        while cursor < values.size:
            pos = start + cursor
            chunk = int(np.searchsorted(self.offsets, pos, side="right")) - 1
            take = min(int(self.offsets[chunk + 1]) - pos, values.size - cursor)
            local = pos - int(self.offsets[chunk])
            self.buffers[chunk][local:local + take] = values[
                cursor:cursor + take
            ]
            cursor += take
            if pos + take == int(self.offsets[chunk + 1]):
                self._retire(chunk)

    def _retire(self, chunk: int) -> None:
        buf = self.buffers[chunk]
        if isinstance(buf, np.memmap):
            buf.flush()
            release_pages(buf)

    def flush(self) -> None:
        for buf in self.buffers:
            if isinstance(buf, np.memmap):
                buf.flush()
                release_pages(buf)


def fill_csr_directed(
    key_blocks: Iterator[np.ndarray],
    num_vertices: int,
    sink: ChunkedEdgeArray,
) -> None:
    """Sequentially fill CSR columns from sorted unique directed keys.

    Keys are ``src * n + dst`` in ascending order, which *is* row-major
    CSR order with sorted rows — the fill is one sequential pass.
    """
    cursor = 0
    for block in key_blocks:
        sink.write_sequential(cursor, block % num_vertices)
        cursor += block.size
    sink.flush()


def fill_csr_symmetric(
    key_blocks_factory: Callable[[], Iterator[np.ndarray]],
    num_vertices: int,
    indptr: np.ndarray,
    forward_counts: np.ndarray,
    sink: ChunkedEdgeArray,
) -> None:
    """Fill symmetric CSR columns from sorted unique undirected keys.

    Keys are ``lo * n + hi`` (``lo < hi``) ascending; the output row for
    vertex ``v`` is the forward targets (``hi`` ascending for edges with
    ``lo == v``) followed by the reverse sources (``lo`` ascending for
    edges with ``hi == v``) — the exact layout
    ``from_edge_list(both_arcs, deduplicate=True)`` yields.
    ``key_blocks_factory`` must produce the same stream twice (forward
    and reverse pass).
    """
    n = num_vertices
    carried = np.zeros(n, dtype=np.int64)
    for block in key_blocks_factory():
        lo = block // n
        hi = block % n
        # Rank of each edge among the block's edges sharing its row: the
        # block is sorted by (lo, hi), so the first occurrence index of
        # each lo value is its searchsorted position.
        rank = np.arange(lo.size, dtype=np.int64) - np.searchsorted(
            lo, lo, side="left"
        )
        sink.scatter(indptr[lo] + carried[lo] + rank, hi)
        np.add.at(carried, lo, 1)
    carried = np.zeros(n, dtype=np.int64)
    for block in key_blocks_factory():
        lo = block // n
        hi = block % n
        order = np.argsort(hi, kind="stable")
        hi_sorted = hi[order]
        lo_sorted = lo[order]
        rank = np.arange(hi_sorted.size, dtype=np.int64) - np.searchsorted(
            hi_sorted, hi_sorted, side="left"
        )
        sink.scatter(
            indptr[hi_sorted]
            + forward_counts[hi_sorted]
            + carried[hi_sorted]
            + rank,
            lo_sorted,
        )
        np.add.at(carried, hi_sorted, 1)
    sink.flush()
