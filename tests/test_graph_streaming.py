"""Tests for the graph generators: ``load_dataset`` and the bench's
sbm16 graph build the same bytes they always have (pinned by digest),
the bulk planted-partition sampler replays the per-vertex loop's random
stream draw for draw, ``stream_graph`` and
``stream_rmat_graph`` produce the same graph on the memory and mmap
backends at any chunking, bad chunk sizes are refused before anything is
drawn, and every partitioner assigns identically whether the topology
lives in RAM or in chunk files on disk."""

import dataclasses
import hashlib

import numpy as np
import pytest

from oracles import assert_same_as_parent
from oracles import planted_partition as parent
from repro.graph.datasets import load_dataset
from repro.graph.generators import GraphSpec, power_law_degrees
from repro.graph.rmat import RMATSpec
from repro.graph.streaming import (
    _bulk_draws,
    _planted_partition_keys,
    stream_graph,
    stream_rmat_graph,
)
from repro.graph.store import MemoryGraphStore
from repro.graph.subgraph import induced_subgraph
from repro.partition import (
    HashPartitioner,
    MetisLikePartitioner,
)
from repro.partition.stats import partition_stats

SPECS = [
    GraphSpec(
        name="uniform", num_vertices=400, avg_degree=10,
        feature_dim=16, num_classes=5, seed=3,
    ),
    GraphSpec(
        name="heavy-tail", num_vertices=350, avg_degree=8,
        feature_dim=8, num_classes=3, power_law=2.1,
        label_noise=0.1, seed=9,
    ),
]


def _assert_graphs_identical(a, b):
    np.testing.assert_array_equal(a.adjacency.indptr, b.adjacency.indptr)
    np.testing.assert_array_equal(
        a.adjacency.to_csr().indices, b.adjacency.to_csr().indices
    )
    np.testing.assert_array_equal(
        a.feature_store.to_array(), b.feature_store.to_array()
    )
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.train_mask, b.train_mask)
    np.testing.assert_array_equal(a.val_mask, b.val_mask)
    np.testing.assert_array_equal(a.test_mask, b.test_mask)
    assert a.num_classes == b.num_classes


def _digest(graph) -> str:
    """sha256 over dtype, shape and bytes of the CSR, features, labels
    and the three masks."""
    h = hashlib.sha256()
    csr = graph.adjacency.to_csr()
    for array in (csr.indptr, csr.indices,
                  graph.feature_store.to_array(), graph.labels,
                  graph.train_mask, graph.val_mask, graph.test_mask):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


# Captured from the generator the goldens were recorded with; a change
# here means every dataset-trained figure in the repo moved.
DATASET_DIGESTS = {
    ("cora", "tiny", 0): "7b5381dccdccb8a2a48e1e7cd0cad7081fecea114dd02062b572ffc54e546a7c",
    ("cora", "tiny", 1): "93498cd483dd652e83e3c3adbd33668b38a59b371c93878edd6bd2f5888d5538",
    ("pubmed", "tiny", 0): "1c54e63109ec1424ca545b7daa63c9b4eb02a30a82d8e1c56b3926ef6aaef7a3",
    ("pubmed", "tiny", 1): "557b5e2bc98f5e82c7fe1f2dad3ecd21d2a485053e84a4c0ea34c1bc3b141d79",
    ("reddit", "tiny", 0): "ffee814634e962316733cc111d5b79847a7948c1d3bf40056436ae206fdd79c2",
    ("reddit", "tiny", 1): "6ecd446252f91c94c877d550113f60b84a029f10680be5024bd8afacf346bd04",
    ("ogbn-products", "tiny", 0): "93d6f9dccf870d2c263f1615e3427e59d5b53ce1bf206681b719f384e7c31351",
    ("ogbn-products", "tiny", 1): "b7019b0a16c17beb3819262bb7b3cf8b384a62f77dd89d347b7c00c57991e5dc",
    ("ogbn-papers", "tiny", 0): "c4a0cd64a872400aff71102615566386a373b7bcba0bcf3b2df47197fc956102",
    ("ogbn-papers", "tiny", 1): "192df817be8ceb72d64d2d61bc7b84f28b83631758d7e3f75b61c5d5f7239c1d",
    ("cora", "bench", 0): "8b6616aeb2bbddbe7b3d499a01ebce7191b2f8a6f1d4d8a0f0eb978860154583",
    ("cora", "bench", 1): "3b03e9d00dfb12f8ed7ca511d2eed19d282eee4edad3369c8cd8e653dc45c178",
    ("pubmed", "bench", 0): "f512062c347316553dd2c73b9dce26105c7da8566d110e9ed88b52ddae4675f2",
    ("pubmed", "bench", 1): "7393df11524f168e7eaace57edc9f01955d107b88324617953e061d13dd07e45",
    ("reddit", "bench", 0): "f1f978f48ad78a7000909f6592ba43c52ffc450964189db6bf04fd1634f2d174",
    ("reddit", "bench", 1): "d084f7335d20d568648d90ffb25a071c92d9f1ca5df54f1dbfc47a081a60ba7f",
    ("ogbn-products", "bench", 0): "05cc6367bdb79b647757504fa7b04d863e2b8a8264ece9779ca486b1b9d29e60",
    ("ogbn-products", "bench", 1): "c6dd8fe653a6e3783c40b1be1fb03e32092baee1ee8f6677c6947cdd20d8557b",
    ("ogbn-papers", "bench", 0): "997c2f390e05b3f2272ad503f4ca4fb5f33653d0874431f9218b06193cc52ec3",
    ("ogbn-papers", "bench", 1): "58bbc253c5d57d15c4d67adf45d8d8562bddc6e28edbea7b9b198dda41d2c795",
}


class TestDatasetDigests:
    @pytest.mark.parametrize(
        "name,profile,seed", sorted(DATASET_DIGESTS),
        ids=lambda v: str(v),
    )
    def test_bytes_unchanged(self, name, profile, seed):
        graph = load_dataset(name, profile, seed)
        assert _digest(graph) == DATASET_DIGESTS[name, profile, seed]

    def test_bench_sbm16_bytes_unchanged(self):
        # The graph of the bench's sbm16 workload at seed 1, digested
        # with the per-vertex sampler before the bulk rewrite.
        spec = GraphSpec(
            name="sbm16", num_vertices=65536, avg_degree=16,
            feature_dim=64, num_classes=8, power_law=2.5, homophily=0.8,
            label_noise=0.1, seed=1,
        )
        graph = stream_graph(spec, chunk_vertices=8192)
        assert _digest(graph) == (
            "3ea688fa1b048bf10627f1cdd67be21d04a7c2340d92c661c63dad75bb60a082"
        )

    def test_digest_sees_one_flipped_label(self):
        graph = load_dataset("cora", "tiny", 0)
        before = _digest(graph)
        graph.labels[0] = (graph.labels[0] + 1) % graph.num_classes
        assert _digest(graph) != before


class _RecordingSorter:
    """Stands in for the external sorter: keeps every appended block."""

    def __init__(self):
        self.blocks = []

    def append(self, keys):
        self.blocks.append(np.array(keys))


def _sampler_inputs(spec):
    """The labels, degrees and generator ``stream_graph`` hands the
    edge sampler for ``spec``."""
    rng = np.random.default_rng(spec.seed)
    n = spec.num_vertices
    labels = rng.integers(0, spec.num_classes, size=n)
    labels[:spec.num_classes] = np.arange(spec.num_classes)
    if spec.power_law > 0:
        degrees = power_law_degrees(n, spec.avg_degree, spec.power_law, rng)
    else:
        jitter = rng.integers(-1, 2, size=n)
        degrees = np.clip(
            np.round(spec.avg_degree + jitter), 1, n - 1
        ).astype(np.int64)
    return labels, degrees, rng


def _run_sampler(sampler, spec, chunk, spare_on_entry):
    labels, degrees, rng = _sampler_inputs(spec)
    if spare_on_entry:
        rng.integers(0, 7)  # leaves the high half of one output buffered
        assert rng.bit_generator.state["has_uint32"] == 1
    sorter = _RecordingSorter()
    sampler(labels, degrees, spec.homophily, rng, sorter, chunk)
    return sorter.blocks, rng.bit_generator.state


# Specs whose classes have a single member: that vertex's same-class
# draws are ``integers(0, 1)``, which take nothing from the stream.
SINGLETON_POOLS = [
    GraphSpec(name="pools-5", num_vertices=5, avg_degree=3, feature_dim=2,
              num_classes=4, homophily=0.8, seed=1),
    GraphSpec(name="pools-6", num_vertices=6, avg_degree=4, feature_dim=2,
              num_classes=6, homophily=1.0, seed=0),
    GraphSpec(name="pools-12", num_vertices=12, avg_degree=6, feature_dim=2,
              num_classes=8, homophily=0.5, power_law=2.5, seed=4),
]


class TestBulkSamplerMatchesParent:
    """The bulk sampler appends the per-vertex loop's key blocks and
    leaves the generator in its state, spare 32-bit half included."""

    @pytest.mark.parametrize("spare_on_entry", [False, True])
    @pytest.mark.parametrize("chunk", [1, 33, 97, 8192])
    @pytest.mark.parametrize("power_law", [0.0, 2.5])
    @pytest.mark.parametrize("homophily", [0.0, 0.8, 1.0])
    def test_same_keys_and_state(
        self, homophily, power_law, chunk, spare_on_entry
    ):
        spec = GraphSpec(
            name="diff", num_vertices=400, avg_degree=10, feature_dim=2,
            num_classes=5, homophily=homophily, power_law=power_law, seed=3,
        )
        assert_same_as_parent(
            _run_sampler(_planted_partition_keys, spec, chunk, spare_on_entry),
            _run_sampler(
                parent._planted_partition_keys, spec, chunk, spare_on_entry
            ),
        )

    @pytest.mark.parametrize("spare_on_entry", [False, True])
    @pytest.mark.parametrize("chunk", [1, 4, 8192])
    @pytest.mark.parametrize("spec", SINGLETON_POOLS, ids=lambda s: s.name)
    def test_singleton_class_pools(self, spec, chunk, spare_on_entry):
        labels, _, _ = _sampler_inputs(spec)
        assert (np.bincount(labels) == 1).any()
        assert_same_as_parent(
            _run_sampler(_planted_partition_keys, spec, chunk, spare_on_entry),
            _run_sampler(
                parent._planted_partition_keys, spec, chunk, spare_on_entry
            ),
        )


def _one_half_later(state):
    """The generator state after a draw that takes exactly one 32-bit
    value: the spare half if there is one, else a fresh output."""
    after = dict(state)
    if state["has_uint32"]:
        after["has_uint32"] = 0
        return after
    probe = np.random.PCG64()
    probe.state = state
    probe.random_raw()
    after["state"] = probe.state["state"]
    after["has_uint32"] = 1
    return after


def _reference_draws(rng, counts, bound):
    """``random`` then one ``integers`` call per bound, group by group;
    also counts the integers Lemire rejected a value for."""
    doubles, draws, rejected = [], [], 0
    for count in counts:
        group = rng.random(count)
        doubles.append(group)
        for b in bound(group):
            before = rng.bit_generator.state
            draws.append(rng.integers(0, int(b)))
            if b > 1 and rng.bit_generator.state != _one_half_later(before):
                rejected += 1
    return (
        np.concatenate(doubles),
        np.array(draws, dtype=np.uint64),
        rejected,
    )


REJECTING = 3 * 2**30  # Lemire rejects 2**32 mod 3*2**30 = 2**30: a quarter


class TestBulkDraws:
    """The stream primitive against ``Generator.random`` and
    ``Generator.integers`` called in the loop's order, with bounds that
    make Lemire reject often and bounds of 1 that draw nothing."""

    BOUNDS = {
        "rejecting": lambda d: np.full(d.size, REJECTING),
        "rejecting-or-one": lambda d: np.where(d < 0.5, REJECTING, 1),
        "all-one": lambda d: np.ones(d.size, dtype=np.int64),
        "mixed": lambda d: np.where(
            d < 0.3, 1, np.where(d < 0.6, REJECTING, 1000)
        ),
    }

    @pytest.mark.parametrize("spare_on_entry", [False, True])
    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_matches_generator_calls(self, name, spare_on_entry):
        bound = self.BOUNDS[name]
        counts = np.random.default_rng(7).integers(0, 6, size=120)
        ours = np.random.default_rng(11)
        theirs = np.random.default_rng(11)
        if spare_on_entry:
            ours.integers(0, 7)
            theirs.integers(0, 7)
        doubles, draws, rejected = _reference_draws(theirs, counts, bound)
        got = _bulk_draws(
            ours.bit_generator, counts, lambda lo, d: bound(d)
        )
        assert_same_as_parent(got, (doubles, draws))
        assert_same_as_parent(
            ours.bit_generator.state, theirs.bit_generator.state
        )
        if name.startswith("rejecting") or name == "mixed":
            assert rejected >= 1
        # The generator carries on exactly where the calls left it.
        assert ours.integers(0, REJECTING) == theirs.integers(0, REJECTING)

    def test_refuses_other_bit_generators(self):
        with pytest.raises(TypeError, match="PCG64"):
            _bulk_draws(
                np.random.MT19937(0), np.array([1]),
                lambda lo, d: np.ones(d.size),
            )


class TestStreamGraphBackends:
    """The SBM generator's bytes depend on neither backend nor chunking."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_mmap_backend_matches_memory(self, spec, tmp_path):
        expected = stream_graph(spec, backend="memory")
        bundle = stream_graph(
            spec, backend="mmap", out_dir=tmp_path / spec.name,
            chunk_vertices=97,
        )
        _assert_graphs_identical(bundle, expected)

    def test_odd_chunk_sizes_do_not_change_bytes(self, tmp_path):
        spec = SPECS[0]
        expected = stream_graph(spec)
        for chunk in (1 << 12, 101, 33):
            _assert_graphs_identical(
                stream_graph(spec, chunk_vertices=chunk),
                expected,
            )
            bundle = stream_graph(
                spec, backend="mmap", out_dir=tmp_path / f"c{chunk}",
                chunk_vertices=chunk,
            )
            _assert_graphs_identical(bundle, expected)

    def test_deterministic_and_seeded(self):
        a = stream_graph(SPECS[0])
        _assert_graphs_identical(a, stream_graph(SPECS[0]))
        other = dataclasses.replace(SPECS[0], seed=4)
        assert not np.array_equal(
            a.labels, stream_graph(other).labels
        )


class TestChunkValidation:
    """Chunk sizes below 1 are refused before anything is drawn."""

    @pytest.mark.parametrize("kwargs", [
        {"chunk_vertices": 0},
        {"chunk_vertices": -3},
    ])
    def test_stream_graph(self, kwargs):
        with pytest.raises(ValueError, match="chunk_vertices"):
            stream_graph(SPECS[0], **kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        ({"chunk_vertices": 0}, "chunk_vertices"),
        ({"chunk_edges": 0}, "chunk_edges"),
        ({"chunk_edges": -5}, "chunk_edges"),
    ])
    def test_stream_rmat_graph(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            stream_rmat_graph(RMATSpec(scale=6), **kwargs)


def _assert_splits_fit(graph):
    masks = np.stack([graph.train_mask, graph.val_mask, graph.test_mask])
    assert (masks.sum(axis=1) >= 1).all()
    assert masks.sum(axis=0).max() == 1  # disjoint


class TestTinySpecs:
    """Every valid spec builds: splits that would overflow a tiny graph
    shrink (train first, each kept >= 1) instead of raising after the
    graph was drawn; a graph too small for three splits is refused at
    spec construction."""

    @pytest.mark.parametrize("n, num_classes", [
        (n, c) for n in (3, 4, 5, 8, 10) for c in sorted({2, n // 2, n - 1, n})
        if c >= 2
    ])
    def test_stream_graph_builds(self, n, num_classes):
        graph = stream_graph(GraphSpec(
            name="tiny", num_vertices=n, avg_degree=2, feature_dim=3,
            num_classes=num_classes,
        ))
        _assert_splits_fit(graph)

    @pytest.mark.parametrize("scale, num_classes", [
        (2, 3), (2, 4), (3, 7), (3, 8), (4, 13), (4, 16),
    ])
    def test_stream_rmat_graph_builds(self, scale, num_classes):
        graph = stream_rmat_graph(RMATSpec(
            scale=scale, edge_factor=2, feature_dim=3, num_classes=num_classes,
        ))
        _assert_splits_fit(graph)

    def test_too_small_for_three_splits_is_refused(self):
        with pytest.raises(ValueError, match="three vertices"):
            GraphSpec(name="t", num_vertices=2, avg_degree=1, feature_dim=1,
                      num_classes=2)
        with pytest.raises(ValueError, match="scale"):
            RMATSpec(scale=1)


class TestStreamRmatBackends:
    """The chunk-seeded R-MAT generator is backend-invariant."""

    SPEC = RMATSpec(scale=10, edge_factor=6, feature_dim=8, seed=17)

    def test_memory_vs_mmap_identical(self, tmp_path):
        mem = stream_rmat_graph(self.SPEC, backend="memory")
        disk = stream_rmat_graph(
            self.SPEC, backend="mmap", out_dir=tmp_path / "rmat",
            chunk_vertices=97,
        )
        _assert_graphs_identical(mem, disk)

    def test_rows_sorted_and_deduplicated(self):
        g = stream_rmat_graph(self.SPEC, backend="memory")
        csr = g.adjacency.to_csr()
        indptr, indices = csr.indptr, csr.indices
        for v in range(0, g.num_vertices, 57):
            row = indices[indptr[v]:indptr[v + 1]]
            assert np.all(np.diff(row) > 0), f"row {v} not strictly sorted"

    def test_chunk_edges_is_part_of_identity(self):
        # Different chunk_edges draw different RNG streams by design —
        # the parameter is documented as part of the graph's identity.
        a = stream_rmat_graph(self.SPEC, chunk_edges=1 << 12)
        b = stream_rmat_graph(self.SPEC, chunk_edges=1 << 10)
        assert not np.array_equal(
            a.adjacency.to_csr().indices, b.adjacency.to_csr().indices
        )


PARTITIONERS = [
    HashPartitioner(),
    MetisLikePartitioner(seed=0),
]


class TestPartitionersStoreInvariant:
    """Each partitioner assigns identically over RAM and mmap topology."""

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        spec = GraphSpec(
            name="part-equiv", num_vertices=320, avg_degree=9,
            feature_dim=8, num_classes=4, seed=5,
        )
        mem = stream_graph(spec, backend="memory")
        disk = stream_graph(
            spec, backend="mmap",
            out_dir=tmp_path_factory.mktemp("part") / "g",
            chunk_vertices=97,
        )
        return mem, disk

    @pytest.mark.parametrize(
        "partitioner", PARTITIONERS, ids=lambda p: p.name
    )
    def test_assignment_identical(self, partitioner, bundles):
        mem, disk = bundles
        a = partitioner.partition(mem.adjacency, 4)
        b = partitioner.partition(disk.adjacency, 4)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize(
        "partitioner", PARTITIONERS, ids=lambda p: p.name
    )
    def test_block_size_does_not_change_assignment(self, partitioner, bundles):
        mem, _ = bundles
        small = MemoryGraphStore(mem.adjacency.to_csr(), block_vertices=50)
        a = partitioner.partition(small, 3)
        b = partitioner.partition(mem.adjacency, 3)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_partition_stats_identical(self, bundles):
        mem, disk = bundles
        partition = HashPartitioner().partition(mem.adjacency, 4)
        a = partition_stats(mem.adjacency, partition)
        b = partition_stats(disk.adjacency, partition)
        assert a == b

    def test_induced_subgraph_identical(self, bundles, reference_setup):
        mem, disk = bundles
        partition = HashPartitioner().partition(mem.adjacency, 4)
        owned = np.flatnonzero(partition.assignment == 0)
        ref = reference_setup.induced_subgraph(mem.adjacency.to_csr(), owned)
        for bundle in (mem, disk):
            sub = induced_subgraph(bundle.adjacency, owned)
            np.testing.assert_array_equal(
                sub.local_vertices, ref.local_vertices
            )
            np.testing.assert_array_equal(
                sub.remote_vertices, ref.remote_vertices
            )
            np.testing.assert_array_equal(sub.indptr, ref.indptr)
            np.testing.assert_array_equal(sub.indices, ref.indices)
