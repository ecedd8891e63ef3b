"""The set-up path rewrite is *exact*: same answer, bit for bit.

``MetisLikePartitioner._coarsen`` (list-walking matching, one-sort
contraction), ``build_worker_states`` (one adjacency sweep for all
workers) and the vectorised ``CSRGraph.with_self_loops`` are compared
with the verbatim pre-rewrite implementations kept in ``conftest.py``
(``reference_setup``): ``np.array_equal`` on every array, over a graph
zoo built to hit the places where a faster formulation could drift —
parallel arcs, self-loops, directed inputs, isolated vertices and
float32 weights wide enough that summation order shows.
``HashPartitioner`` is compared with its closed form in Python
integers, which wrap at 2**64 only where the rule says they do.

What the multilevel partitioner does *below* the coarsening is no longer
pinned to a loop oracle — its objective changed — and is held to the
contract in ``test_partition_quality.py`` instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.normalize import gcn_normalize, row_normalize
from repro.core.worker import build_worker_states
from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.normalize import normalized_adjacency
from repro.graph.rmat import RMATSpec
from repro.graph.store import (
    GraphStoreBundle,
    MemoryGraphStore,
    memory_bundle,
    to_mmap_bundle,
)
from repro.graph.streaming import stream_graph, stream_rmat_graph
from repro.graph.subgraph import induced_subgraph
from repro.partition import (
    HashPartitioner,
    MetisLikePartitioner,
    Partition,
)


# ----------------------------------------------------------------------
# The graph zoo
# ----------------------------------------------------------------------
def _symmetric(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    return edges + [(v, u) for u, v in edges]


def _sbm() -> CSRGraph:
    spec = GraphSpec(
        name="exact-sbm", num_vertices=320, avg_degree=9.0, feature_dim=4,
        num_classes=4, homophily=0.85, power_law=2.5, seed=5,
    )
    return stream_graph(spec).adjacency.to_csr()


def _rmat() -> CSRGraph:
    # Hub-heavy: a handful of rows hold most of the arcs.
    spec = RMATSpec(scale=8, edge_factor=6, feature_dim=4, seed=3)
    return stream_rmat_graph(spec, backend="memory").adjacency.to_csr()


def _ring() -> CSRGraph:
    n = 150
    return from_edge_list(_symmetric([(v, (v + 1) % n) for v in range(n)]), n)


def _star() -> CSRGraph:
    return from_edge_list(_symmetric([(0, v) for v in range(1, 90)]), 90)


def _disconnected() -> CSRGraph:
    # Three cliques of different size plus twelve isolated vertices.
    edges, base = [], 0
    for size in (9, 14, 23):
        edges += [
            (base + i, base + j)
            for i in range(size) for j in range(size) if i != j
        ]
        base += size
    return from_edge_list(edges, base + 12)


def _random_pairs(n: int, m: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n, size=(m, 2))


def _self_loops() -> CSRGraph:
    pairs = _random_pairs(120, 420, seed=1)
    loops = np.repeat(np.arange(0, 120, 3), 2).reshape(-1, 2)
    both = np.concatenate([pairs, pairs[:, ::-1], loops])
    return from_edge_list(both, 120)


def _parallel_arcs() -> CSRGraph:
    # Every arc stored one to four times, a few self-loops doubled too:
    # an update that fancy-indexes with repeated rows drops these.
    pairs = _random_pairs(100, 260, seed=2)
    both = np.concatenate([pairs, pairs[:, ::-1]])
    copies = np.random.default_rng(7).integers(1, 5, size=both.shape[0])
    return from_edge_list(np.repeat(both, copies, axis=0), 100)


def _directed() -> CSRGraph:
    # Asymmetric: in-neighbours differ from out-neighbours.
    return from_edge_list(_random_pairs(140, 900, seed=4), 140)


def _wide_weights() -> CSRGraph:
    # float32 weights spanning twelve decades, drawn from a handful of
    # values so gains tie often: after a heavy arc leaves a part, the
    # light arcs left behind decide the move, and a gain row that was
    # patched ((1e6 + 3e-6) - 1e6 != 3e-6 in float64) instead of
    # re-summed in edge order breaks those ties the wrong way.
    pairs = _random_pairs(130, 520, seed=6)
    both = np.concatenate([pairs, pairs[:, ::-1]])
    weights = np.random.default_rng(8).choice(
        [1e-6, 3e-6, 1e-3, 1.0, 1e3, 1e6], size=both.shape[0]
    )
    return from_edge_list(both, 130, weights=weights.astype(np.float32))


def _integer_weights() -> CSRGraph:
    # Integer-valued weights (what every coarse level of an unweighted
    # graph carries) with parallel arcs on top.
    pairs = _random_pairs(110, 500, seed=9)
    both = np.concatenate([pairs, pairs[:, ::-1], pairs[:40]])
    weights = np.random.default_rng(10).integers(1, 9, both.shape[0])
    return from_edge_list(both, 110, weights=weights.astype(np.float32))


ZOO = {
    "sbm": _sbm,
    "rmat": _rmat,
    "ring": _ring,
    "star": _star,
    "disconnected": _disconnected,
    "self-loops": _self_loops,
    "parallel-arcs": _parallel_arcs,
    "directed": _directed,
    "wide-weights": _wide_weights,
    "integer-weights": _integer_weights,
}


@pytest.fixture(scope="module", params=sorted(ZOO))
def zoo_graph(request) -> CSRGraph:
    return ZOO[request.param]()


def _attributed(adjacency: CSRGraph, seed: int = 0) -> GraphStoreBundle:
    """Wrap a bare topology with random features / labels / masks."""
    rng = np.random.default_rng(seed)
    n = adjacency.num_vertices
    split = rng.integers(0, 3, size=n)
    return memory_bundle(
        adjacency=adjacency,
        features=rng.standard_normal((n, 5)).astype(np.float32),
        labels=rng.integers(0, 3, size=n),
        train_mask=split == 0,
        val_mask=split == 1,
        test_mask=split == 2,
        num_classes=3,
        name="exact",
    )


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
def _assert_same_level(got, want) -> None:
    """One ``_coarsen`` result: mapping, vertex weights, merged graph."""
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2]) and got[2].dtype == want[2].dtype
    assert np.array_equal(got[0].indptr, want[0].indptr)
    assert np.array_equal(got[0].indices, want[0].indices)
    assert np.array_equal(got[0].weights, want[0].weights)


class TestMetisExact:
    def test_default_coarsening_depth(self, reference_setup):
        """Every level down to ``coarsen_until=256`` on a graph big
        enough to coarsen twice, both sides drawing from one stream."""
        spec = GraphSpec(
            name="exact-deep", num_vertices=900, avg_degree=8.0,
            feature_dim=4, num_classes=4, homophily=0.8, seed=12,
        )
        graph = stream_graph(spec).adjacency.to_csr()
        weight = np.ones(graph.num_vertices, dtype=np.int64)
        rng_want, rng_got = np.random.default_rng(1), np.random.default_rng(1)
        depth = 0
        while graph.num_vertices > MetisLikePartitioner().coarsen_until:
            want = reference_setup.MetisLikePartitioner()._coarsen(
                graph, weight, rng_want
            )
            got = MetisLikePartitioner()._coarsen(graph, weight, rng_got)
            _assert_same_level(got, want)
            graph, _, weight = got
            depth += 1
        assert depth >= 2
        assert rng_got.integers(1 << 62) == rng_want.integers(1 << 62)

    def test_each_coarsening_level_matches(self, zoo_graph, reference_setup):
        """``_coarsen`` alone: mapping, vertex weights and the merged
        coarse graph (float32 weights included) are array-identical."""
        weight = np.random.default_rng(2).integers(
            1, 5, size=zoo_graph.num_vertices
        )
        want = reference_setup.MetisLikePartitioner()._coarsen(
            zoo_graph, weight, np.random.default_rng(9)
        )
        got = MetisLikePartitioner()._coarsen(
            zoo_graph, weight, np.random.default_rng(9)
        )
        _assert_same_level(got, want)

    @pytest.mark.parametrize("weights", ["unit", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_every_matching_order_matches(
        self, zoo_graph, reference_setup, seed, weights
    ):
        """Each seed visits the vertices in another order, so another
        matching is contracted; unit vertex weights are what the finest
        level carries, random ones what every coarser level does."""
        n = zoo_graph.num_vertices
        weight = (
            np.ones(n, dtype=np.int64) if weights == "unit"
            else np.random.default_rng(seed + 20).integers(1, 9, size=n)
        )
        rng_want, rng_got = (np.random.default_rng(seed) for _ in range(2))
        want = reference_setup.MetisLikePartitioner()._coarsen(
            zoo_graph, weight, rng_want
        )
        got = MetisLikePartitioner()._coarsen(zoo_graph, weight, rng_got)
        _assert_same_level(got, want)
        assert rng_got.integers(1 << 62) == rng_want.integers(1 << 62)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_whole_hierarchy_matches(self, zoo_graph, reference_setup, seed):
        """The levels ``partition`` builds with ``coarsen_until=8``, each
        fed the one before, stopping where matching stops shrinking."""
        partitioner = MetisLikePartitioner(seed=seed, coarsen_until=8)
        reference = reference_setup.MetisLikePartitioner()
        graph = zoo_graph
        weight = np.ones(graph.num_vertices, dtype=np.int64)
        rng_want, rng_got = (np.random.default_rng(seed) for _ in range(2))
        while graph.num_vertices > partitioner.coarsen_until:
            want = reference._coarsen(graph, weight, rng_want)
            got = partitioner._coarsen(graph, weight, rng_got)
            _assert_same_level(got, want)
            if got[0].num_vertices >= graph.num_vertices:
                break
            graph, _, weight = got
        assert weight.sum() == zoo_graph.num_vertices
        assert rng_got.integers(1 << 62) == rng_want.integers(1 << 62)


def _reference_hash(num_vertices: int, num_parts: int, salt: int) -> list[int]:
    """``HashPartitioner``'s rule, vertex by vertex, in Python integers."""
    parts = []
    for v in range(num_vertices):
        key = v if not salt else ((v + salt) * 0x9E3779B97F4A7C15) % (1 << 64)
        parts.append(key % num_parts)
    return parts


class TestHashExact:
    @pytest.mark.parametrize("salt", [0, 1, 7, (1 << 40) + 3])
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("num_vertices", [0, 5, 150, 4097])
    def test_same_assignment(self, num_vertices, num_parts, salt):
        graph = MemoryGraphStore(from_edge_list([], num_vertices))
        got = HashPartitioner(salt=salt).partition(graph, num_parts)
        assert got.assignment.dtype == np.int64
        assert got.assignment.tolist() == _reference_hash(
            num_vertices, num_parts, salt
        )


def test_degenerate_graphs_match():
    """Empty, all-isolated and more-parts-than-vertices inputs: a CSR
    and a one-vertex-block store give the same assignment, and hash
    gives its closed form."""
    path = from_edge_list([(0, 1), (1, 0), (1, 2), (2, 1)], 4)
    for graph, num_parts in (
        (from_edge_list([], 0), 3),
        (from_edge_list([], 7), 3),
        (from_edge_list([], 300), 4),
        (path, 9),
        (path, 1),
    ):
        for partitioner in (HashPartitioner(), MetisLikePartitioner(seed=1)):
            want = partitioner.partition(MemoryGraphStore(graph), num_parts)
            got = partitioner.partition(
                MemoryGraphStore(graph, block_vertices=1), num_parts
            )
            assert np.array_equal(got.assignment, want.assignment)
            assert got.assignment.dtype == want.assignment.dtype == np.int64
        assert want.part_sizes().sum() == graph.num_vertices
        hashed = HashPartitioner().partition(graph, num_parts).assignment
        assert hashed.tolist() == _reference_hash(
            graph.num_vertices, num_parts, 0
        )


class TestStoreBackedInputs:
    """Memory stores (default and small blocks) and an mmap store all
    give the same assignment, for both partitioners."""

    @pytest.fixture(scope="class", params=["sbm", "parallel-arcs", "wide-weights"])
    def inputs(self, request, tmp_path_factory):
        return _store_inputs(ZOO[request.param](), tmp_path_factory)

    def test_same_assignment(self, inputs):
        for partitioner in (
            HashPartitioner(salt=5), MetisLikePartitioner(seed=2),
        ):
            want = partitioner.partition(inputs[0], 4).assignment
            for graph in inputs[1:]:
                got = partitioner.partition(graph, 4)
                assert np.array_equal(got.assignment, want)


def _store_inputs(csr: CSRGraph, tmp_path_factory) -> tuple:
    disk = to_mmap_bundle(
        _attributed(csr), tmp_path_factory.mktemp("exact") / "g",
        chunk_vertices=37, max_resident_blocks=2,
    )
    return (
        MemoryGraphStore(csr),
        MemoryGraphStore(csr, block_vertices=50),
        disk.adjacency,
    )


class TestMetisOverStores:
    """Every zoo graph, at several part counts: how the topology is
    held does not change the multilevel assignment."""

    @pytest.fixture(scope="class")
    def zoo_inputs(self, zoo_graph, tmp_path_factory):
        return _store_inputs(zoo_graph, tmp_path_factory)

    @pytest.mark.parametrize("num_parts", [2, 3, 5, 8])
    def test_same_assignment(self, zoo_inputs, num_parts):
        partitioner = MetisLikePartitioner(seed=3, coarsen_until=16)
        want = partitioner.partition(zoo_inputs[0], num_parts).assignment
        assert want.min() >= 0 and want.max() < num_parts
        for graph in zoo_inputs[1:]:
            got = partitioner.partition(graph, num_parts)
            assert np.array_equal(got.assignment, want)


# ----------------------------------------------------------------------
# Worker-subgraph extraction
# ----------------------------------------------------------------------
def _assert_same_subgraph(got, want) -> None:
    for name in ("local_vertices", "remote_vertices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # The CSR index arrays come in the dtype scipy's CSR keeps for them
    # (int32 at these sizes; the pre-rewrite extraction made int64), so
    # the worker's ``a_local`` is built over them instead of a copy.
    for name in ("indptr", "indices"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.int32 and np.array_equal(a, b), name
    if want.weights is None:
        assert got.weights is None
    else:
        assert got.weights.dtype == want.weights.dtype
        assert np.array_equal(got.weights, want.weights)


def _assert_same_plan(got: dict, want: dict) -> None:
    # Insertion order is the bit-pinned channel plan order.
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype
        assert np.array_equal(got[key], want[key])


def _assert_same_states(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.worker_id == w.worker_id
        _assert_same_subgraph(g.sub, w.sub)
        assert g.a_local.shape == w.a_local.shape
        for part in ("data", "indices", "indptr"):
            a, b = getattr(g.a_local, part), getattr(w.a_local, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), part
        for name in ("features", "labels", "train_mask", "val_mask",
                     "test_mask"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), name
        _assert_same_plan(g.requests, w.requests)
        _assert_same_plan(g.halo_slots, w.halo_slots)
        _assert_same_plan(g.serves, w.serves)


class TestWorkerStatesExact:
    @pytest.fixture(scope="class", params=["sbm", "rmat", "disconnected"])
    def bundles(self, request, tmp_path_factory):
        graph = _attributed(ZOO[request.param]())
        root = tmp_path_factory.mktemp("workers")
        return {
            "memory": graph,
            "mmap-one-block": to_mmap_bundle(
                graph, root / "one", chunk_vertices=4096
            ),
            "mmap-many-blocks": to_mmap_bundle(
                graph, root / "many", chunk_vertices=29, max_resident_blocks=2
            ),
        }

    @pytest.mark.parametrize("scheme", ["gcn", "row"])
    @pytest.mark.parametrize("method", ["hash", "metis"])
    @pytest.mark.parametrize(
        "backend", ["memory", "mmap-one-block", "mmap-many-blocks"]
    )
    def test_same_worker_states(
        self, bundles, reference_setup, backend, method, scheme
    ):
        graph = bundles[backend]
        partitioner = (
            HashPartitioner() if method == "hash"
            else MetisLikePartitioner(seed=1, coarsen_until=8)
        )
        partition = partitioner.partition(graph.adjacency, 4)
        normalized = normalized_adjacency(graph.adjacency, scheme)
        _assert_same_states(
            build_worker_states(graph, normalized, partition),
            reference_setup.build_worker_states(graph, normalized, partition),
        )

    @pytest.mark.parametrize("backend", ["memory", "mmap-many-blocks"])
    def test_a_worker_that_owns_nothing(
        self, bundles, reference_setup, backend
    ):
        graph = bundles[backend]
        assignment = HashPartitioner().partition(graph.adjacency, 3).assignment
        assignment[assignment == 1] = 2  # worker 1 ends up empty
        partition = Partition(assignment, num_parts=4)  # and so does 3
        normalized = normalized_adjacency(graph.adjacency, "gcn")
        got = build_worker_states(graph, normalized, partition)
        assert got[1].num_local == 0 and got[3].num_local == 0
        _assert_same_states(
            got,
            reference_setup.build_worker_states(graph, normalized, partition),
        )

    def test_induced_subgraph_keeps_the_callers_order(
        self, zoo_graph, reference_setup
    ):
        rng = np.random.default_rng(3)
        n = zoo_graph.num_vertices
        for size in (0, 1, n // 3, n):
            local = rng.permutation(n)[:size]
            _assert_same_subgraph(
                induced_subgraph(MemoryGraphStore(zoo_graph), local),
                reference_setup.induced_subgraph(zoo_graph, local),
            )


# ----------------------------------------------------------------------
# CSR helpers
# ----------------------------------------------------------------------
def _assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if want.weights is None:
        assert got.weights is None
    else:
        assert got.weights.dtype == np.float32
        assert np.array_equal(got.weights, want.weights)


class TestCSRHelpersExact:
    def test_with_self_loops(self, zoo_graph, reference_setup):
        want = reference_setup.with_self_loops(zoo_graph)
        got = zoo_graph.with_self_loops()
        _assert_same_csr(got, want)
        # The appended loop sits in the last slot of its row ...
        src = zoo_graph.sources()
        had_loop = np.zeros(zoo_graph.num_vertices, dtype=bool)
        had_loop[src[src == zoo_graph.indices]] = True
        added = np.flatnonzero(~had_loop)
        assert np.array_equal(got.indices[got.indptr[added + 1] - 1], added)
        # ... and a second application adds nothing.
        again = got.with_self_loops()
        _assert_same_csr(again, got)
        assert again.indices is not got.indices

    def test_empty_rows_and_empty_graph(self, reference_setup):
        for graph in (
            from_edge_list([], 0),
            from_edge_list([], 4),
            from_edge_list([(3, 3), (1, 0)], 5, weights=[2.0, 3.0]),
        ):
            _assert_same_csr(
                graph.with_self_loops(), reference_setup.with_self_loops(graph)
            )

    @pytest.mark.parametrize("scheme", ["gcn", "row"])
    def test_lazy_normalization_still_bit_identical(self, zoo_graph, scheme):
        eager = {"gcn": gcn_normalize, "row": row_normalize}[scheme](
            zoo_graph, add_self_loops=True
        )
        lazy = normalized_adjacency(MemoryGraphStore(zoo_graph), scheme).to_csr()
        _assert_same_csr(lazy, eager)
