"""The graph generators: edge chunks spill to a store.

Both return a :class:`~repro.graph.store.GraphStoreBundle`, the one
graph type. Neither holds the full edge list in memory, and each builds
the same bytes on the memory and mmap backends at any ``chunk_vertices``:

* :func:`stream_graph` — the planted-partition (SBM) generator behind
  :func:`repro.graph.datasets.load_dataset`. One RNG stream is drawn in
  a fixed order (labels, degrees, per-vertex edge stubs, feature rows,
  label noise, split masks); numpy ``Generator`` draws are
  stream-sequential, so row-chunked draws equal one big draw. The CSR
  layout comes from the deduplicated undirected edge keys through
  :func:`fill_csr_symmetric`: row ``v`` holds its higher neighbours,
  then its lower ones, each ascending.
* :func:`stream_rmat_graph` — the chunk-seeded R-MAT generator: each
  edge chunk draws from ``default_rng([seed, chunk])`` so generation is
  embarrassingly chunkable and O(chunk) in memory. Its rows come out
  fully sorted (directed-key dedup).

Per-vertex arrays (labels, degrees, masks) are O(n) and stay resident —
the things that scale as O(E) and O(n·d) (edge list, feature matrix)
are what stream.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from repro.graph.generators import GraphSpec, power_law_degrees
from repro.graph.rmat import RMATSpec
from repro.graph.store.base import GraphStoreBundle
from repro.graph.store.builder import StoreBuilder
from repro.graph.store.external import (
    ExternalSorter,
    fill_csr_directed,
    fill_csr_symmetric,
)
from repro.graph.store.mmapstore import (
    DEFAULT_CHUNK_VERTICES,
    DEFAULT_RESIDENT_BLOCKS,
)

__all__ = ["make_split_masks", "stream_graph", "stream_rmat_graph"]

DEFAULT_CHUNK_EDGES = 1 << 18


class _KeySpool:
    """Capture a sorted key stream once, replay it many times.

    The symmetric CSR fill needs two passes over the merged edge keys;
    the spool writes blocks to npy files (mmap path) or keeps them as
    arrays (memory path) while the first pass also accumulates the
    per-vertex counts.
    """

    def __init__(self, workdir: Path | None):
        self._workdir = workdir
        self._blocks: list[Path | np.ndarray] = []
        self.total = 0

    def fill(self, blocks: Iterator[np.ndarray]) -> None:
        for i, block in enumerate(blocks):
            self.total += block.size
            if self._workdir is None:
                self._blocks.append(block)
            else:
                path = self._workdir / f"keys-{i:05d}.npy"
                np.save(path, block)
                self._blocks.append(path)

    def __iter__(self) -> Iterator[np.ndarray]:
        for block in self._blocks:
            if isinstance(block, Path):
                yield np.load(block)
            else:
                yield block

    def cleanup(self) -> None:
        for block in self._blocks:
            if isinstance(block, Path):
                block.unlink(missing_ok=True)
        self._blocks = []


def _chunk_ranges(n: int, chunk: int) -> Iterator[tuple[int, int]]:
    for start in range(0, n, chunk):
        yield start, min(start + chunk, n)


def make_split_masks(
    num_vertices: int,
    train: int,
    val: int,
    test: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw disjoint train/val/test masks of the requested sizes.

    Raises :class:`ValueError` if the sizes exceed the vertex count, instead
    of silently truncating a split.
    """
    total = train + val + test
    if total > num_vertices:
        raise ValueError(
            f"split sizes {train}+{val}+{test}={total} exceed {num_vertices} vertices"
        )
    perm = rng.permutation(num_vertices)
    train_mask = np.zeros(num_vertices, dtype=bool)
    val_mask = np.zeros(num_vertices, dtype=bool)
    test_mask = np.zeros(num_vertices, dtype=bool)
    train_mask[perm[:train]] = True
    val_mask[perm[train:train + val]] = True
    test_mask[perm[train + val:total]] = True
    return train_mask, val_mask, test_mask


def _fit_splits(n: int, train: int, val: int, test: int) -> tuple[int, int, int]:
    """Shrink train, then test, then val (each kept >= 1) until the
    three fit in ``n >= 3`` vertices; sizes that fit come back as given."""
    sizes = [train, val, test]
    excess = sum(sizes) - n
    for i in (0, 2, 1):
        cut = min(max(excess, 0), sizes[i] - 1)
        sizes[i] -= cut
        excess -= cut
    return sizes[0], sizes[1], sizes[2]


def _check_chunk(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _write_features_chunked(
    builder: StoreBuilder,
    labels: np.ndarray,
    centroids: np.ndarray,
    noise_scale: float,
    rng: np.random.Generator,
    feature_dim: int,
    chunk_rows: int,
) -> None:
    """Gaussian class-centroid features, written in row blocks.

    Each vertex gets its class centroid plus ``noise_scale``-scaled
    standard normal noise. Row-chunked ``standard_normal`` draws consume
    the identical RNG stream as one ``(n, d)`` draw, so the float32 rows
    do not depend on the chunking. Draw blocks are capped below the
    storage chunk (the writer spans chunk files transparently) so the
    float64 temporaries stay a few MB even when chunks are large — at
    the million-vertex tier the feature pass would otherwise dominate
    the generator's peak RSS.
    """
    draw_rows = min(chunk_rows, 16_384)
    column = builder.column_writer("features", (feature_dim,), np.float32)
    for start, stop in _chunk_ranges(labels.shape[0], draw_rows):
        noise = rng.standard_normal((stop - start, feature_dim))
        block = centroids[labels[start:stop]] + noise * noise_scale
        column.append(block.astype(np.float32))
    column.close()


def _planted_partition_keys(
    labels: np.ndarray,
    degrees: np.ndarray,
    homophily: float,
    rng: np.random.Generator,
    sorter: ExternalSorter,
    chunk_vertices: int,
) -> None:
    """Sample undirected edges from a degree-corrected planted partition.

    Each vertex v draws ``max(degrees[v] // 2, 1)`` neighbour stubs; each
    stub picks a same-class partner with probability ``homophily`` and a
    uniformly random vertex otherwise (``random``, then up to two
    ``integers`` calls per vertex). Self-loops are dropped; kept edges
    are encoded as undirected keys ``lo * n + hi`` and appended to the
    sorter in vertex chunks, which deduplicates them.
    """
    n = labels.shape[0]
    num_classes = int(labels.max()) + 1
    members = [np.flatnonzero(labels == c) for c in range(num_classes)]
    stubs = np.maximum(degrees // 2, 1)
    for start, stop in _chunk_ranges(n, chunk_vertices):
        chunk_keys: list[np.ndarray] = []
        for v in range(start, stop):
            k = int(stubs[v])
            same = rng.random(k) < homophily
            partners = np.empty(k, dtype=np.int64)
            n_same = int(same.sum())
            if n_same:
                pool = members[labels[v]]
                partners[same] = pool[rng.integers(0, pool.size, size=n_same)]
            n_diff = k - n_same
            if n_diff:
                partners[~same] = rng.integers(0, n, size=n_diff)
            kept = partners[partners != v]
            lo = np.minimum(kept, v)
            hi = np.maximum(kept, v)
            chunk_keys.append(lo * n + hi)
        if chunk_keys:
            sorter.append(np.concatenate(chunk_keys))


def _make_builder(
    num_vertices: int,
    backend: str,
    out_dir: str | Path | None,
    chunk_vertices: int,
    max_resident_blocks: int,
) -> tuple[StoreBuilder, Path | None]:
    builder = StoreBuilder(
        num_vertices,
        backend=backend,
        out_dir=out_dir,
        chunk_vertices=chunk_vertices,
        max_resident_blocks=max_resident_blocks,
    )
    spill: Path | None = None
    if backend == "mmap":
        spill = Path(tempfile.mkdtemp(prefix="sort-", dir=str(out_dir)))
    return builder, spill


def stream_graph(
    spec: GraphSpec,
    backend: str = "memory",
    out_dir: str | Path | None = None,
    chunk_vertices: int = DEFAULT_CHUNK_VERTICES,
    max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
) -> GraphStoreBundle:
    """Generate the planted-partition graph described by ``spec``.

    The adjacency is symmetric (both arcs stored), matching the
    undirected citation/social graphs of the paper's evaluation. Returns
    a :class:`GraphStoreBundle`: resident arrays with
    ``backend="memory"``, or the same bytes in an ECGSTORE directory at
    ``out_dir`` with ``backend="mmap"``.
    """
    _check_chunk("chunk_vertices", chunk_vertices)
    n = spec.num_vertices
    builder, spill = _make_builder(
        n, backend, out_dir, chunk_vertices, max_resident_blocks
    )
    try:
        rng = np.random.default_rng(spec.seed)
        labels = rng.integers(0, spec.num_classes, size=n)
        labels[:spec.num_classes] = np.arange(spec.num_classes)

        if spec.power_law > 0:
            degrees = power_law_degrees(
                n, spec.avg_degree, spec.power_law, rng
            )
        else:
            jitter = rng.integers(-1, 2, size=n)
            degrees = np.clip(
                np.round(spec.avg_degree + jitter), 1, n - 1
            ).astype(np.int64)

        sorter = ExternalSorter(workdir=spill)
        _planted_partition_keys(
            labels, degrees, spec.homophily, rng, sorter, chunk_vertices
        )

        scale = 1.0 / np.sqrt(spec.feature_dim)
        centroids = rng.standard_normal(
            (spec.num_classes, spec.feature_dim)
        ) * scale
        _write_features_chunked(
            builder, labels, centroids, spec.feature_noise * scale,
            rng, spec.feature_dim, chunk_vertices,
        )

        observed = labels
        if spec.label_noise > 0.0:
            observed = labels.copy()
            flip = rng.random(n) < spec.label_noise
            observed[flip] = rng.integers(
                0, spec.num_classes, size=int(flip.sum())
            )

        train = spec.train or max(spec.num_classes * 20, n // 10)
        val = spec.val or max(n // 20, spec.num_classes)
        test = spec.test or max(n // 5, spec.num_classes)
        total = train + val + test
        if total > n:
            ratio = n / (total + 1)
            train = max(int(train * ratio), 1)
            val = max(int(val * ratio), 1)
            test = max(int(test * ratio), 1)
        masks = make_split_masks(n, *_fit_splits(n, train, val, test), rng)

        builder.set_column("labels", observed.astype(np.int64))
        for component, mask in zip(
            ("train_mask", "val_mask", "test_mask"), masks
        ):
            builder.set_column(component, mask)

        # Merge the undirected keys, count both endpoints, fill the CSR.
        spool = _KeySpool(spill)
        forward = np.zeros(n, dtype=np.int64)
        reverse = np.zeros(n, dtype=np.int64)

        def counting(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
            for block in blocks:
                forward[:] = forward + np.bincount(block // n, minlength=n)
                reverse[:] = reverse + np.bincount(block % n, minlength=n)
                yield block

        spool.fill(counting(sorter.sorted_blocks(unique=True)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(forward + reverse, out=indptr[1:])
        builder.set_indptr(indptr)
        fill_csr_symmetric(
            lambda: iter(spool), n, indptr, forward, builder.indices_sink()
        )
        spool.cleanup()

        return builder.finish(
            num_classes=spec.num_classes,
            name=spec.name,
            meta={
                "generator": "planted_partition",
                "homophily": spec.homophily,
                "power_law": spec.power_law,
                "label_noise": spec.label_noise,
                "seed": spec.seed,
                "target_avg_degree": spec.avg_degree,
            },
        )
    finally:
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)


def _rmat_chunk_edges(
    spec: RMATSpec, chunk_index: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk of R-MAT edges from its own seeded stream.

    Each edge picks one quadrant per bit level; accumulating the chosen
    bits yields the endpoints. Self-loops are dropped, duplicates kept
    (the external sort deduplicates them).
    """
    rng = np.random.default_rng([spec.seed, chunk_index])
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    p_a, p_b, p_c = spec.a, spec.b, spec.c
    for _ in range(spec.scale):
        draw = rng.random(count)
        # Quadrants: a = (0,0), b = (0,1), c = (1,0), d = (1,1); the
        # first bit belongs to src, the second to dst.
        src_bit = draw >= p_a + p_b
        dst_bit = ((draw >= p_a) & (draw < p_a + p_b)) | (
            draw >= p_a + p_b + p_c
        )
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    keep = src != dst
    return src[keep], dst[keep]


def stream_rmat_graph(
    spec: RMATSpec,
    backend: str = "memory",
    out_dir: str | Path | None = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    chunk_vertices: int = DEFAULT_CHUNK_VERTICES,
    max_resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
    progress: Callable[[str], None] | None = None,
) -> GraphStoreBundle:
    """Chunk-seeded R-MAT generator (symmetric arcs, random labels).

    Each chunk of ``chunk_edges`` samples draws from
    ``default_rng([seed, chunk])``; both arcs are encoded as directed
    keys and deduplicated externally, so rows come out fully sorted.
    ``chunk_edges`` is part of the graph's identity (changing it changes
    which stream each edge draws from); the memory and mmap backends
    produce bit-identical graphs for equal parameters.
    """
    _check_chunk("chunk_edges", chunk_edges)
    _check_chunk("chunk_vertices", chunk_vertices)
    n = spec.num_vertices
    builder, spill = _make_builder(
        n, backend, out_dir, chunk_vertices, max_resident_blocks
    )
    try:
        num_samples = n * spec.edge_factor
        sorter = ExternalSorter(workdir=spill)
        num_chunks = (num_samples + chunk_edges - 1) // chunk_edges
        for chunk in range(num_chunks):
            count = min(chunk_edges, num_samples - chunk * chunk_edges)
            src, dst = _rmat_chunk_edges(spec, chunk, count)
            sorter.append(src * n + dst)
            sorter.append(dst * n + src)
            if progress is not None and chunk % 16 == 15:
                progress(f"sampled {chunk + 1}/{num_chunks} edge chunks")

        attr_rng = np.random.default_rng([spec.seed, 0x5EED])
        labels = attr_rng.integers(0, spec.num_classes, n)
        labels[:spec.num_classes] = np.arange(spec.num_classes)
        scale = 1.0 / np.sqrt(spec.feature_dim)
        centroids = attr_rng.standard_normal(
            (spec.num_classes, spec.feature_dim)
        ) * scale
        _write_features_chunked(
            builder, labels, centroids, 2.0 * scale,
            attr_rng, spec.feature_dim, chunk_vertices,
        )
        train = max(n // 10, spec.num_classes)
        val = max(n // 20, 1)
        test = max(n // 5, 1)
        masks = make_split_masks(
            n, *_fit_splits(n, train, val, test), attr_rng
        )
        builder.set_column("labels", labels.astype(np.int64))
        for component, mask in zip(
            ("train_mask", "val_mask", "test_mask"), masks
        ):
            builder.set_column(component, mask)
        if progress is not None:
            progress("attributes written; merging edges")

        counts = np.zeros(n, dtype=np.int64)

        def counting(blocks: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
            for block in blocks:
                counts[:] = counts + np.bincount(block // n, minlength=n)
                yield block

        spool = _KeySpool(spill)
        spool.fill(counting(sorter.sorted_blocks(unique=True)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        builder.set_indptr(indptr)
        fill_csr_directed(iter(spool), n, builder.indices_sink())
        spool.cleanup()
        if progress is not None:
            progress(f"CSR filled: {int(indptr[-1]):,} edges")

        return builder.finish(
            num_classes=spec.num_classes,
            name=f"rmat-{spec.scale}-stream",
            meta={
                "generator": "rmat_stream",
                "scale": spec.scale,
                "edge_factor": spec.edge_factor,
                "quadrants": (spec.a, spec.b, spec.c),
                "chunk_edges": chunk_edges,
                "seed": spec.seed,
            },
        )
    finally:
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)
