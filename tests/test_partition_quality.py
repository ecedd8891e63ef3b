"""What ``MetisLikePartitioner`` promises below its (bit-pinned)
coarsening: it finds planted communities, ``imbalance`` bounds the
result, the same seed gives the same assignment however the graph is
held, and refinement never returns a worse cut than a feasible start.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_partition_exact import ZOO, _attributed

from repro.graph.csr import CSRGraph, from_edge_list
from repro.graph.generators import GraphSpec
from repro.graph.store import MemoryGraphStore, to_mmap_bundle
from repro.graph.streaming import stream_graph
from repro.partition import MetisLikePartitioner, Partition, partition_stats

SRC = Path(__file__).resolve().parents[1] / "src"


def _communities(num_vertices: int, seed: int):
    """Eight planted communities behind noisy labels: the bench's
    ``sbm16`` at a size a test can afford."""
    return stream_graph(GraphSpec(
        name="quality-sbm", num_vertices=num_vertices, avg_degree=16,
        feature_dim=4, num_classes=8, power_law=2.5, homophily=0.8,
        label_noise=0.1, seed=seed,
    ))


def _result_cap(num_vertices: int, num_parts: int, imbalance: float) -> int:
    """``imbalance`` times the ideal, rounded down — or a perfect split,
    rounded up, where even that is more."""
    return max(
        int(imbalance * num_vertices / num_parts),
        -(-num_vertices // num_parts),
    )


class TestFindsTheCommunities:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_vertices", [4096, 16384])
    def test_beats_the_label_lookup(self, num_vertices, seed):
        graph = _communities(num_vertices, seed)
        adjacency = graph.adjacency
        stats = partition_stats(
            adjacency, MetisLikePartitioner(seed=seed).partition(adjacency, 4)
        )
        by_label = partition_stats(adjacency, Partition(graph.labels // 2, 4))
        assert stats.edge_cut_ratio <= 0.18
        assert stats.total_halo <= 0.9 * by_label.total_halo
        assert stats.max_part_halo <= 0.9 * by_label.max_part_halo
        assert stats.balance <= 1.03


class TestImbalanceBoundsTheResult:
    @pytest.mark.parametrize("imbalance", [1.0, 1.03, 1.1])
    @pytest.mark.parametrize("num_parts", [2, 3, 4, 7])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_no_part_above_the_cap(self, name, num_parts, imbalance):
        graph = ZOO[name]()
        partition = MetisLikePartitioner(
            seed=1, coarsen_until=32, imbalance=imbalance
        ).partition(MemoryGraphStore(graph), num_parts)
        assert partition.part_sizes().max() <= _result_cap(
            graph.num_vertices, num_parts, imbalance
        )

    def test_the_old_docstrings_counter_example(self):
        """600-ring, 7 parts, ``imbalance=1.0``: greedy growth used to
        leave an 88-vertex part against a cap of 86."""
        n = 600
        arcs = [(v, (v + 1) % n) for v in range(n)]
        ring = from_edge_list(arcs + [(u, v) for v, u in arcs], n)
        sizes = MetisLikePartitioner(imbalance=1.0).partition(
            MemoryGraphStore(ring), 7
        ).part_sizes()
        assert sizes.max() == 86 and sizes.sum() == n

    def test_repair_does_not_need_refinement_rounds(self):
        """Shedding rounds are not counted against ``refine_passes``."""
        graph = ZOO["sbm"]()
        lopsided = np.zeros(graph.num_vertices, dtype=np.int64)
        lopsided[:30] = np.arange(30) % 3 + 1
        partitioner = MetisLikePartitioner(refine_passes=0)
        weight = np.ones(graph.num_vertices, dtype=np.int64)
        repaired = partitioner._refine(
            graph, weight, lopsided, 4, np.random.default_rng(0)
        )
        assert np.bincount(repaired, minlength=4).max() <= _result_cap(
            graph.num_vertices, 4, partitioner.imbalance
        )

    def test_the_only_allowance_is_for_heavy_coarse_vertices(self):
        """A level whose vertices are heavier than its slack may exceed
        the cap by two of its heaviest vertices (they could not trade
        places otherwise) — and by nothing once weights are units."""
        graph = ZOO["integer-weights"]()
        n = graph.num_vertices
        partitioner = MetisLikePartitioner(imbalance=1.0)
        units = np.ones(n, dtype=np.int64)
        assert partitioner._cap(units, 4) == _result_cap(n, 4, 1.0)

        heavy = units.copy()
        heavy[::10] = 9  # each heavier than the slack of a perfect split
        total = int(heavy.sum())
        assert partitioner._cap(heavy, 4) == -(-total // 4) + 2 * 8
        start = np.zeros(n, dtype=np.int64)
        refined = partitioner._refine(
            graph, heavy, start, 4, np.random.default_rng(0)
        )
        load = np.bincount(refined, weights=heavy, minlength=4)
        assert load.max() <= partitioner._cap(heavy, 4)
        assert load.max() < total  # the one overfull part was repaired


class TestSeededDeterminism:
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_two_calls_agree(self, name):
        graph = MemoryGraphStore(ZOO[name]())
        first = MetisLikePartitioner(seed=4, coarsen_until=16).partition(graph, 3)
        again = MetisLikePartitioner(seed=4, coarsen_until=16).partition(graph, 3)
        assert np.array_equal(first.assignment, again.assignment)

    def test_other_seed_other_assignment(self):
        graph = MemoryGraphStore(ZOO["sbm"]())
        a = MetisLikePartitioner(seed=0).partition(graph, 4).assignment
        b = MetisLikePartitioner(seed=1).partition(graph, 4).assignment
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["sbm", "parallel-arcs", "wide-weights"])
    def test_store_inputs_agree_with_csr(self, name, tmp_path):
        csr = ZOO[name]()
        disk = to_mmap_bundle(
            _attributed(csr), tmp_path / "g", chunk_vertices=37,
            max_resident_blocks=2,
        )
        want = MetisLikePartitioner(seed=2, coarsen_until=8).partition(
            MemoryGraphStore(csr), 4
        )
        for graph in (MemoryGraphStore(csr, block_vertices=50), disk.adjacency):
            got = MetisLikePartitioner(seed=2, coarsen_until=8).partition(graph, 4)
            assert np.array_equal(got.assignment, want.assignment)

    def test_blas_thread_count_does_not_matter(self):
        program = (
            "import hashlib\n"
            "from repro.graph.generators import GraphSpec\n"
            "from repro.graph.streaming import stream_graph\n"
            "from repro.partition import MetisLikePartitioner\n"
            "graph = stream_graph(GraphSpec(name='t', num_vertices=4096,"
            " avg_degree=16, feature_dim=4, num_classes=8, power_law=2.5,"
            " homophily=0.8, seed=3)).adjacency\n"
            "a = MetisLikePartitioner(seed=3).partition(graph, 4).assignment\n"
            "print(hashlib.sha256(a.tobytes()).hexdigest())\n"
        )
        digests = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", program], env=env, timeout=120,
                capture_output=True, text=True, check=True,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1


class TestNeverWorseThanAFeasibleStart:
    @staticmethod
    def _levels(partitioner, graph: CSRGraph, rng):
        """The coarsening ``partition`` would build, finest first."""
        levels, weight = [], np.ones(graph.num_vertices, dtype=np.int64)
        while graph.num_vertices > partitioner.coarsen_until:
            coarse, mapping, coarse_weight = partitioner._coarsen(
                graph, weight, rng
            )
            if coarse.num_vertices >= graph.num_vertices:
                break
            levels.append((graph, mapping, weight))
            graph, weight = coarse, coarse_weight
        return levels, graph, weight

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("num_parts", [2, 3, 4, 7])
    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_at_every_level(self, name, num_parts, seed):
        partitioner = MetisLikePartitioner(seed=seed, coarsen_until=16)
        rng = np.random.default_rng(seed)
        levels, graph, weight = self._levels(partitioner, ZOO[name](), rng)
        assignment = partitioner._initial_partition(
            graph, weight, num_parts, rng
        )
        for graph, mapping, weight in reversed(levels):
            projected = assignment[mapping]
            assignment = partitioner._refine(
                graph, weight, projected, num_parts, rng
            )
            over, cut = partitioner._score(graph, weight, assignment, num_parts)
            over_before, cut_before = partitioner._score(
                graph, weight, projected, num_parts
            )
            assert over <= over_before
            if over_before == 0:
                # The only slack: float64 sums of non-integer arc weights.
                assert cut <= cut_before * (1 + 1e-9)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_from_a_random_feasible_start(self, name):
        graph = ZOO[name]()
        n = graph.num_vertices
        weight = np.ones(n, dtype=np.int64)
        start = np.random.default_rng(6).permutation(n) % 4  # perfectly even
        partitioner = MetisLikePartitioner(imbalance=1.2)
        refined = partitioner._refine(
            graph, weight, start, 4, np.random.default_rng(7)
        )
        over, cut = partitioner._score(graph, weight, refined, 4)
        assert over == 0
        assert cut <= partitioner._score(graph, weight, start, 4)[1] * (1 + 1e-9)
        assert np.array_equal(start, np.random.default_rng(6).permutation(n) % 4)
