"""The graph generators: edge chunks spill to a store.

Both return a :class:`~repro.graph.store.GraphStoreBundle`, the one
graph type. Neither holds the full edge list in memory, and each builds
the same bytes on the memory and mmap backends at any ``chunk_vertices``:

* :func:`stream_graph` — the planted-partition (SBM) generator behind
  :func:`repro.graph.datasets.load_dataset`. One RNG stream is drawn in
  a fixed order (labels, degrees, per-vertex edge stubs, feature rows,
  label noise, split masks); numpy ``Generator`` draws are
  stream-sequential, so row-chunked draws equal one big draw. The edge
  stubs keep the stream of a per-vertex loop (``random``, then
  ``integers`` for the same-class and the other stubs) but are drawn a
  chunk at a time by :func:`_bulk_draws`, which places every value in
  the raw PCG64 stream by the contract it states: a double is one
  64-bit output, a bounded integer is Lemire's method on 32-bit halves
  served low half first with the spare half buffered, and a rejection
  or a bound of 1 shifts the values after it. The CSR
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

import functools
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


# numpy turns one 64-bit output u into the double (u >> 11) * 2**-53.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
_LOW32 = np.uint64(0xFFFFFFFF)
_TWO32 = np.uint64(1 << 32)


def _bulk_draws(
    bit_generator: np.random.BitGenerator,
    counts: np.ndarray,
    bounds_of: Callable[[int, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Replay a run of ``Generator`` calls on a PCG64 stream in bulk.

    The run is, for each group ``g`` in turn, ``random(counts[g])`` and
    then ``counts[g]`` draws ``integers(0, b)``. ``bounds_of(first,
    doubles)`` gives the bounds of the groups from ``first`` on, out of
    those groups' doubles; a group's bounds may depend on its own
    doubles only. Returns the doubles and the integers (``uint64``),
    each flat and group-major, and leaves ``bit_generator`` in exactly
    the state the calls would. The stream contract it reproduces:

    * a double takes one 64-bit output ``u`` as ``(u >> 11) * 2**-53``;
    * a bounded integer is Lemire's method on a 32-bit value ``x``:
      ``m = x * b`` is kept unless ``m mod 2**32 < 2**32 mod b`` and
      gives ``m >> 32``; a rejected ``x`` is dropped and the next value
      tried. A bound of 1 draws nothing;
    * PCG64 serves a 32-bit value from its buffered spare half when it
      has one (``has_uint32`` / ``uinteger``), else from the low half of
      a fresh 64-bit output, buffering the high half. Doubles leave the
      buffer alone, so a spare half crosses groups and calls.

    Every group's draw counts are known before any draw, so each value's
    position in the raw stream follows from cumulative sums, and one
    ``random_raw`` call supplies the run. Two events move the values
    after them: a bound of 1, which takes no half, and a rejection,
    which takes one half more. The solve assumes one half per integer,
    fixes the earliest event in stream order and re-solves from that
    event's group; every value before an event is final.
    """
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError(
            "the bulk sampler replays PCG64, got "
            f"{type(bit_generator).__name__}"
        )
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    first = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    group = np.repeat(np.arange(counts.size), counts)
    entry = bit_generator.state
    spare = int(entry["has_uint32"])
    # The 32-bit values each integer takes, and how many precede it.
    halves = np.ones(total, dtype=np.int64)
    ahead = np.zeros(total + 1, dtype=np.int64)
    raw = bit_generator.random_raw(total + (total - spare + 1) // 2)
    doubles = np.empty(total)
    draws = np.zeros(total, dtype=np.uint64)
    lo = 0
    while True:
        r0 = int(first[lo])
        np.cumsum(halves[r0:], out=ahead[r0 + 1:])
        ahead[r0 + 1:] += ahead[r0]
        starts = ahead[first[:-1]]
        need = total + (int(ahead[-1]) - spare + 1) // 2
        if need > raw.size:
            raw = np.concatenate(
                [raw, bit_generator.random_raw(need - raw.size)]
            )
        # A group's doubles follow every earlier double and the fresh
        # outputs that the earlier groups' integers took.
        fresh_before = (starts - spare + 1) // 2
        doubles[r0:] = (
            raw[np.arange(r0, total) + fresh_before[group[r0:]]]
            >> np.uint64(11)
        ) * _DOUBLE_SCALE
        bounds = np.asarray(bounds_of(lo, doubles[r0:]), dtype=np.uint64)
        used = bounds != 1
        moved = np.flatnonzero(used != (halves[r0:] > 0))

        # An integer keeps the last half it takes. ``k`` counts fresh
        # halves (-1 is the spare); the fresh output holding half ``k``
        # was drawn by the group whose integers take its low half.
        take = r0 + np.flatnonzero(halves[r0:])
        k = ahead[take] + halves[take] - 1 - spare
        high = k & 1
        owner = np.searchsorted(starts, k - high + spare, side="right")
        x = raw[first[owner] + (k >> 1)] >> (high.astype(np.uint64) << 5)
        x &= _LOW32
        x[k < 0] = entry["uinteger"]
        b = bounds[take - r0]
        m = x * b
        rejected = np.flatnonzero((m & _LOW32) < (_TWO32 - b) % b)
        draws[r0:] = 0
        draws[take] = m >> np.uint64(32)

        # A bound of 1 shows at its group's doubles, so it precedes any
        # rejection in the same group.
        bound_at = int(group[r0 + moved[0]]) if moved.size else None
        if rejected.size and (
            bound_at is None or group[take[rejected[0]]] < bound_at
        ):
            halves[take[rejected[0]]] += 1
            lo = int(group[take[rejected[0]]])
        elif bound_at is not None:
            span = slice(int(first[bound_at]), int(first[bound_at + 1]))
            halves[span] = used[span.start - r0:span.stop - r0]
            lo = bound_at
        else:
            break

    fresh = (int(ahead[-1]) - spare + 1) // 2
    if raw.size > total + fresh:
        bit_generator.state = entry
        bit_generator.advance(total + fresh)
    state = bit_generator.state
    state["has_uint32"] = (int(ahead[-1]) - spare) & 1
    state["uinteger"] = entry["uinteger"]
    if fresh:
        owner = np.searchsorted(starts, 2 * fresh - 2 + spare, side="right")
        state["uinteger"] = int(raw[first[owner] + fresh - 1] >> np.uint64(32))
    bit_generator.state = state
    return doubles, draws


def _stub_layout(
    counts: np.ndarray, same: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per stub of a vertex-major run: its vertex's index in the run,
    its index among that vertex's stubs, the same-class stubs before it
    in the vertex, and the vertex's same-class stub count."""
    vertex = np.repeat(np.arange(counts.size), counts)
    head = np.cumsum(counts) - counts
    tally = np.zeros(same.size + 1, dtype=np.int64)
    np.cumsum(same, out=tally[1:])
    index = np.arange(same.size) - head[vertex]
    seen = tally[:-1] - tally[head][vertex]
    n_same = (tally[head + counts] - tally[head])[vertex]
    return vertex, index, seen, n_same


def _partner_bounds(
    counts: np.ndarray,
    pool: np.ndarray,
    homophily: float,
    n: int,
    lo: int,
    doubles: np.ndarray,
) -> np.ndarray:
    """Bounds of the integers that vertices ``lo..`` of a chunk draw: a
    vertex's first ``n_same`` integers pick from its class pool, the
    rest from all ``n`` vertices."""
    vertex, index, _, n_same = _stub_layout(
        counts[lo:], doubles < homophily
    )
    return np.where(index < n_same, pool[lo:][vertex], n)


def _planted_partition_keys(
    labels: np.ndarray,
    degrees: np.ndarray,
    homophily: float,
    rng: np.random.Generator,
    sorter: ExternalSorter,
    chunk_vertices: int,
) -> None:
    """Sample undirected edges from a degree-corrected planted partition.

    Each vertex v draws ``k = max(degrees[v] // 2, 1)`` neighbour stubs;
    each stub picks a same-class partner with probability ``homophily``
    and a uniformly random vertex otherwise. The random stream is, vertex
    after vertex, ``same = rng.random(k) < homophily``, then
    ``rng.integers(0, pool_size, n_same)`` for the same-class stubs in
    order and ``rng.integers(0, n, k - n_same)`` for the rest.
    :func:`_bulk_draws` replays it a chunk at a time, and same-class
    draws map through one flat members table (vertices sorted by class).
    Self-loops are dropped; kept edges are encoded as undirected keys
    ``lo * n + hi`` in stub order and appended to the sorter in vertex
    chunks, which deduplicates them.
    """
    n = labels.shape[0]
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    offsets = np.cumsum(sizes) - sizes
    stubs = np.maximum(degrees // 2, 1)
    for start, stop in _chunk_ranges(n, chunk_vertices):
        counts = stubs[start:stop]
        chunk_labels = labels[start:stop]
        doubles, draws = _bulk_draws(
            rng.bit_generator, counts,
            functools.partial(
                _partner_bounds, counts, sizes[chunk_labels], homophily, n
            ),
        )
        # A stub keeps integer ``seen`` of its vertex if it is a
        # same-class stub, else integer ``n_same + (index - seen)``.
        same = doubles < homophily
        vertex, index, seen, n_same = _stub_layout(counts, same)
        slot = np.arange(same.size) - index + np.where(
            same, seen, n_same + index - seen
        )
        partners = draws[slot].astype(np.int64)
        partners[same] = members[
            offsets[chunk_labels[vertex[same]]] + partners[same]
        ]
        vertex += start
        keep = partners != vertex
        kept, vertex = partners[keep], vertex[keep]
        sorter.append(np.minimum(kept, vertex) * n + np.maximum(kept, vertex))


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
