"""Unit tests for the graph/feature store layer (``repro.graph.store``):
feature-store backends agree byte-for-byte, the LRU chunk cache evicts
what it promises, the external sorter matches ``np.unique`` on every
path (in-memory and spilled-to-disk), adjacency iteration respects the
edge-bounded block contract, and on-disk stores survive a round trip
through the manifest."""

import json

import numpy as np
import pytest

from oracles import assert_same_as_parent
from oracles.normalize import gcn_normalize, row_normalize
from repro.graph.csr import CSRGraph
from repro.graph.generators import GraphSpec
from repro.graph.normalize import normalized_adjacency
from repro.graph.store import (
    ChunkCache,
    ExternalSorter,
    GraphStoreBundle,
    MemoryFeatureStore,
    NormalizedGraphStore,
    memory_bundle,
    open_bundle,
    read_manifest,
    to_mmap_bundle,
)
from repro.graph.store.base import DEFAULT_MAX_BLOCK_EDGES
from repro.graph.streaming import make_split_masks, stream_graph


@pytest.fixture(scope="module")
def graph():
    spec = GraphSpec(
        name="store-test", num_vertices=300, avg_degree=8,
        feature_dim=12, num_classes=4, seed=11,
    )
    return stream_graph(spec)


@pytest.fixture(scope="module")
def csr(graph):
    return graph.adjacency.to_csr()


@pytest.fixture(scope="module")
def features(graph):
    return graph.feature_store.to_array()


@pytest.fixture(scope="module")
def mmap_root(graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("store") / "g"
    # Odd chunk size so the last chunk is ragged and row ranges
    # straddle chunk boundaries.
    to_mmap_bundle(graph, root, chunk_vertices=97)
    return root


class TestFeatureStoreBackends:
    """Memory and mmap feature stores expose identical bytes."""

    def test_rows_slice_blocks_match(self, graph, features, mmap_root):
        mem = MemoryFeatureStore(features)
        disk = open_bundle(mmap_root).feature_store
        assert mem.shape == disk.shape
        assert mem.dtype == disk.dtype
        rng = np.random.default_rng(0)
        ids = rng.integers(0, graph.num_vertices, size=64)
        np.testing.assert_array_equal(mem.rows(ids), disk.rows(ids))
        # A slice crossing the 97-row chunk boundary.
        np.testing.assert_array_equal(mem.slice(90, 110), disk.slice(90, 110))
        np.testing.assert_array_equal(mem.to_array(), disk.to_array())

    def test_iter_blocks_cover_everything_in_order(
        self, graph, features, mmap_root
    ):
        disk = open_bundle(mmap_root).feature_store
        cursor = 0
        parts = []
        for start, stop, block in disk.iter_blocks():
            assert start == cursor
            assert block.shape[0] == stop - start
            parts.append(np.asarray(block))
            cursor = stop
        assert cursor == graph.num_vertices
        np.testing.assert_array_equal(np.concatenate(parts), features)

    def test_rows_unsorted_and_duplicate_ids(self, features, mmap_root):
        disk = open_bundle(mmap_root).feature_store
        ids = np.array([299, 0, 97, 97, 5, 200])
        np.testing.assert_array_equal(disk.rows(ids), features[ids])

    def test_contiguous_ids_are_zero_copy(self, features):
        # The documented fast path: contiguous ascending ids come back
        # as a view of the resident array, not a gather copy.
        mem = MemoryFeatureStore(features)
        view = mem.rows(np.array([10, 11, 12]))
        assert view.base is features
        gathered = mem.rows(np.array([12, 10]))
        assert gathered.base is not features


class TestChunkCache:
    def test_lru_eviction_and_stats(self):
        loads = []

        def loader(key):
            return lambda: loads.append(key) or np.full(4, key)

        cache = ChunkCache(budget=2)
        cache.get(0, loader(0))
        cache.get(1, loader(1))
        cache.get(0, loader(0))          # hit; 1 becomes LRU
        cache.get(2, loader(2))          # evicts 1
        cache.get(1, loader(1))          # miss again
        assert loads == [0, 1, 2, 1]
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 4
        assert stats["evictions"] >= 2

    def test_drop_all_forces_reload(self):
        cache = ChunkCache(budget=4)
        calls = {"n": 0}

        def loader():
            calls["n"] += 1
            return np.zeros(1)

        cache.get(0, loader)
        cache.drop_all()
        cache.get(0, loader)
        assert calls["n"] == 2


class TestExternalSorter:
    @staticmethod
    def _drain(sorter, unique=True):
        blocks = list(sorter.sorted_blocks(unique=unique))
        if not blocks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(blocks)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_matches_numpy_unique(self, on_disk, tmp_path):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 5_000, size=20_000)
        workdir = tmp_path / "runs" if on_disk else None
        # Tiny run/merge blocks force many spills and multi-level merges.
        sorter = ExternalSorter(workdir=workdir, run_size=777, merge_block=256)
        for start in range(0, keys.size, 1_000):
            sorter.append(keys[start:start + 1_000])
        np.testing.assert_array_equal(self._drain(sorter), np.unique(keys))

    def test_duplicates_kept_when_not_unique(self, tmp_path):
        keys = np.array([5, 3, 5, 1, 3, 5], dtype=np.int64)
        sorter = ExternalSorter(workdir=tmp_path, run_size=2, merge_block=2)
        sorter.append(keys)
        out = self._drain(sorter, unique=False)
        np.testing.assert_array_equal(out, np.sort(keys))

    def test_empty_and_single_run(self):
        assert self._drain(ExternalSorter()).size == 0
        sorter = ExternalSorter()
        sorter.append(np.array([2, 2, 1]))
        np.testing.assert_array_equal(self._drain(sorter), [1, 2])

    def test_single_use(self):
        sorter = ExternalSorter()
        sorter.append(np.array([1]))
        self._drain(sorter)
        with pytest.raises(RuntimeError):
            list(sorter.sorted_blocks())
        with pytest.raises(RuntimeError):
            sorter.append(np.array([2]))

    def test_blocks_are_sorted_and_bounded(self, tmp_path):
        rng = np.random.default_rng(3)
        sorter = ExternalSorter(workdir=tmp_path, run_size=500, merge_block=128)
        sorter.append(rng.integers(0, 10_000, size=5_000))
        previous = None
        for block in sorter.sorted_blocks():
            assert np.all(np.diff(block) > 0)
            if previous is not None:
                assert block[0] > previous
            previous = int(block[-1])


class TestAdjacencyIteration:
    def test_blocks_reassemble_csr(self, graph, csr, mmap_root):
        for store in (
            graph.adjacency,
            open_bundle(mmap_root).adjacency,
        ):
            cursor = 0
            indices_parts = []
            for start, stop, indices, _weights in store.iter_adjacency():
                assert start == cursor
                expected = int(store.indptr[stop] - store.indptr[start])
                assert indices.shape[0] == expected
                indices_parts.append(np.asarray(indices))
                cursor = stop
            assert cursor == graph.num_vertices
            np.testing.assert_array_equal(
                np.concatenate(indices_parts), csr.indices
            )

    def test_blocks_respect_edge_bound(self, graph):
        store = graph.adjacency
        degrees = store.degrees()
        for start, stop, indices, _ in store.iter_adjacency():
            # A block may exceed the bound only when a single row does.
            if stop - start > 1:
                assert indices.shape[0] <= max(
                    DEFAULT_MAX_BLOCK_EDGES, int(degrees[start:stop].max())
                )

    def test_edge_bounded_spans_partition_range(self, graph):
        store = graph.adjacency
        spans = list(store._edge_bounded_spans(0, graph.num_vertices, 64))
        assert spans[0][0] == 0
        assert spans[-1][1] == graph.num_vertices
        for (_, a_hi), (b_lo, _) in zip(spans, spans[1:]):
            assert a_hi == b_lo
        for lo, hi in spans:
            edges = int(store.indptr[hi] - store.indptr[lo])
            assert edges <= 64 or hi - lo == 1


class TestNormalizedStore:
    @pytest.mark.parametrize("scheme,reference", [
        ("gcn", gcn_normalize), ("row", row_normalize),
    ])
    def test_matches_eager_normalization(self, graph, csr, scheme, reference):
        got = NormalizedGraphStore(graph.adjacency, scheme=scheme).to_csr()
        assert_same_as_parent(got, reference(csr, add_self_loops=True))

    def test_unknown_scheme(self, graph):
        with pytest.raises(KeyError, match="unknown normalization"):
            NormalizedGraphStore(graph.adjacency, "bad")


class TestBundle:
    def test_memory_bundle_wraps_without_copying(self, graph, csr, features):
        out = _with_adjacency(graph, csr)
        assert out.adjacency.to_csr() is csr
        assert out.feature_store.to_array() is features
        np.testing.assert_array_equal(out.labels, graph.labels)
        np.testing.assert_array_equal(out.train_mask, graph.train_mask)
        assert out.num_classes == graph.num_classes

    def test_mmap_bundle_matches_source(self, graph, csr, features, mmap_root):
        out = open_bundle(mmap_root)
        np.testing.assert_array_equal(out.feature_store.to_array(), features)
        np.testing.assert_array_equal(out.adjacency.to_csr().indices, csr.indices)
        np.testing.assert_array_equal(out.val_mask, graph.val_mask)

    def test_split_sizes_match_masks(self, graph, mmap_root):
        bundle = open_bundle(mmap_root)
        assert bundle.split_sizes() == (
            int(graph.train_mask.sum()),
            int(graph.val_mask.sum()),
            int(graph.test_mask.sum()),
        )

    def test_summary_does_not_depend_on_the_backend(self, graph, mmap_root):
        assert isinstance(graph, GraphStoreBundle)
        assert open_bundle(mmap_root).summary() == graph.summary()


class TestManifest:
    def test_read_manifest_roundtrip(self, mmap_root):
        manifest = read_manifest(mmap_root)
        assert manifest["num_vertices"] == 300
        assert manifest["chunk_vertices"] == 97
        assert "features" in manifest["columns"]

    def test_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_manifest(tmp_path / "nope")

    def test_corrupt_manifest_rejected(self, graph, tmp_path):
        root = tmp_path / "g"
        to_mmap_bundle(graph, root, chunk_vertices=128)
        manifest_path = root / "manifest.json"
        body = json.loads(manifest_path.read_text())
        body["magic"] = "NOTASTORE"
        manifest_path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match="magic"):
            read_manifest(root)


    def test_unsupported_version_rejected(self, graph, tmp_path):
        root = tmp_path / "g"
        to_mmap_bundle(graph, root, chunk_vertices=128)
        manifest_path = root / "manifest.json"
        body = json.loads(manifest_path.read_text())
        body["version"] = 99
        manifest_path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match="version"):
            open_bundle(root)


def _with_adjacency(graph, adjacency):
    """A memory bundle of ``graph``'s arrays over ``adjacency``."""
    return memory_bundle(
        adjacency, graph.feature_store.to_array(), graph.labels,
        graph.train_mask, graph.val_mask, graph.test_mask,
        graph.num_classes, graph.name, graph.meta,
    )


def _weighted(graph):
    """``graph`` as a bundle over its GCN-normalized (weighted) adjacency."""
    return _with_adjacency(graph, normalized_adjacency(graph.adjacency).to_csr())


class TestPersistRoundTrip:
    """``to_mmap_bundle`` then ``open_bundle`` gives the graph back."""

    def test_reopen_is_bit_identical(self, graph, csr, mmap_root):
        for _ in range(2):
            out = open_bundle(mmap_root)
            topology = out.adjacency.to_csr()
            np.testing.assert_array_equal(topology.indptr, csr.indptr)
            np.testing.assert_array_equal(topology.indices, csr.indices)
            assert topology.weights is None
            assert_same_as_parent(
                out.feature_store.to_array(), graph.feature_store.to_array()
            )
            for name in ("labels", "train_mask", "val_mask", "test_mask"):
                got, want = getattr(out, name), getattr(graph, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            assert out.num_classes == graph.num_classes
            assert out.name == graph.name
            assert out.meta == graph.meta

    def test_weighted_adjacency_roundtrip(self, graph, tmp_path):
        weighted = _weighted(graph)
        out = to_mmap_bundle(weighted, tmp_path / "w", chunk_vertices=97)
        np.testing.assert_array_equal(
            out.adjacency.to_csr().weights,
            weighted.adjacency.to_csr().weights,
        )

    def test_creates_parent_dirs(self, graph, tmp_path):
        root = tmp_path / "deep" / "nested" / "g"
        to_mmap_bundle(graph, root, chunk_vertices=128)
        assert (root / "manifest.json").exists()

    def test_chunks_are_disk_backed(self, mmap_root):
        block = open_bundle(mmap_root).feature_store.slice(0, 10)
        while block.base is not None and not isinstance(block, np.memmap):
            block = block.base
        assert isinstance(block, np.memmap)


def _drop(root, name):
    (root / name).unlink()


def _truncate(root, name):
    path = root / name
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _pad(root, name):
    with open(root / name, "ab") as fh:
        fh.write(b"\0" * 8)


def _resave(transform):
    def damage(root, name):
        path = root / name
        np.save(path, transform(np.load(path)))
    return damage


def _garble(root, name):
    (root / name).write_bytes(b"not an npy file at all")


# (damage, file it hits): every kind must fail at open, naming the file.
DAMAGE = {
    "missing-feature-chunk": (_drop, "features-00001.npy"),
    "missing-mask-chunk": (_drop, "test_mask-00003.npy"),
    "missing-indices-chunk": (_drop, "indices-00002.npy"),
    "truncated-feature-chunk": (_truncate, "features-00000.npy"),
    "truncated-indices-chunk": (_truncate, "indices-00001.npy"),
    "padded-indices-chunk": (_pad, "indices-00000.npy"),
    "short-label-chunk": (_resave(lambda a: a[:-1]), "labels-00001.npy"),
    "short-indices-chunk": (_resave(lambda a: a[:-1]), "indices-00003.npy"),
    "retyped-label-chunk": (
        _resave(lambda a: a.astype(np.int32)), "labels-00000.npy"
    ),
    "retyped-feature-chunk": (
        _resave(lambda a: a.astype(np.float64)), "features-00002.npy"
    ),
    "not-npy-mask-chunk": (_garble, "val_mask-00000.npy"),
    "short-indptr": (_resave(lambda a: a[:-1]), "indptr.npy"),
    "indptr-past-num-edges": (
        _resave(lambda a: np.append(a[:-1], a[-1] + 1)), "indptr.npy"
    ),
    "missing-indptr": (_drop, "indptr.npy"),
}


class TestOpenValidates:
    """A damaged store directory raises the format error at open."""

    @pytest.mark.parametrize("kind", sorted(DAMAGE))
    def test_damage_raises_naming_the_file(self, graph, tmp_path, kind):
        damage, name = DAMAGE[kind]
        root = tmp_path / "g"
        to_mmap_bundle(graph, root, chunk_vertices=97)
        damage(root, name)
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            open_bundle(root)

    def test_missing_weights_chunk(self, graph, tmp_path):
        root = tmp_path / "g"
        to_mmap_bundle(_weighted(graph), root, chunk_vertices=97)
        (root / "weights-00001.npy").unlink()
        with pytest.raises(ValueError, match=r"weights-00001\.npy"):
            open_bundle(root)

    def test_column_row_count_must_match(self, graph, tmp_path):
        root = tmp_path / "g"
        to_mmap_bundle(graph, root, chunk_vertices=97)
        manifest_path = root / "manifest.json"
        body = json.loads(manifest_path.read_text())
        body["columns"]["labels"]["shape"] = [299]
        manifest_path.write_text(json.dumps(body))
        with pytest.raises(ValueError, match="labels"):
            open_bundle(root)


def _tiny_graph():
    indptr = np.array([0, 2, 3, 4], dtype=np.int64)
    indices = np.array([1, 2, 0, 0], dtype=np.int64)
    adjacency = CSRGraph(indptr, indices)
    features = np.arange(6, dtype=np.float32).reshape(3, 2)
    labels = np.array([0, 1, 0])
    train, val, test = make_split_masks(3, 1, 1, 1, np.random.default_rng(0))
    return memory_bundle(
        adjacency=adjacency, features=features, labels=labels,
        train_mask=train, val_mask=val, test_mask=test,
        num_classes=2, name="tiny",
    )


class TestDegenerateShapes:
    def test_single_chunk_store(self, tmp_path):
        graph = _tiny_graph()
        bundle = to_mmap_bundle(graph, tmp_path / "g", chunk_vertices=1024)
        np.testing.assert_array_equal(
            bundle.feature_store.to_array(), graph.feature_store.to_array()
        )
        np.testing.assert_array_equal(
            bundle.adjacency.to_csr().indices, graph.adjacency.to_csr().indices
        )

    def test_chunk_per_vertex(self, tmp_path):
        graph = _tiny_graph()
        bundle = to_mmap_bundle(graph, tmp_path / "g", chunk_vertices=1)
        np.testing.assert_array_equal(
            bundle.feature_store.rows(np.array([2, 0])),
            graph.feature_store.to_array()[[2, 0]],
        )
        blocks = list(bundle.adjacency.iter_adjacency())
        np.testing.assert_array_equal(
            np.concatenate([b[2] for b in blocks]),
            graph.adjacency.to_csr().indices,
        )
