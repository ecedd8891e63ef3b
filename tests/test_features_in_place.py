"""Features read in place: a worker's first-layer input rows live once.

On the cached first hop, once the process running a worker's kernels
holds what its first layer reads from the inputs (the constant ``M^1``,
or a persistent ``h0``), the worker's feature shard and halo cache are
released. The graph store holds the same rows, and any later reader
re-reads them by global id. Pinned here:

* after epoch 0 a cached GCN worker holds no input arrays and ``M^1`` is
  bit-equal to the spmm over the store rows; SAGE's ``h0`` is the only
  resident copy; without the cached first hop the shard stays, since it
  is the exchange's source every iteration;
* steady state reads the store zero times, exact evaluation included;
* the multiprocess supervisor releases its arrays once it has forked the
  workers (the children build ``M^1`` from their copy-on-write rows) and
  evaluates bit-equal to sync from the store;
* the crash signal: a crash right after the release still refetches the
  halo, rebuilds ``M^1`` bit-equal and charges the ``recovery`` bytes a
  fetch costs; a crash, and an adoption + rejoin, train to the loss
  curves and meter totals pinned before the release existed, under each
  executor that runs them;
* a respawn after the supervisor's release, on a memory and an mmap
  store: the supervisor re-reads the crashed worker's rows before the
  fork and releases them again after it, and the child rebuilds ``M^1``
  bit-equal from them without one store read;
* the ``feature_bytes{worker}`` gauge is what ``tracemalloc`` sees before
  and after the release and reads 0 on the cached path after epoch 0
  (that publishing it changes no number is
  ``test_reqec_trend_table.py::test_gauges_change_no_number``).
"""

from __future__ import annotations

import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.core.worker import build_worker_states
from repro.engine.workspace import LayerWorkspaces
from repro.faults.config import FaultConfig
from repro.graph.generators import GraphSpec
from repro.graph.normalize import normalized_adjacency
from repro.graph.store import to_mmap_bundle
from repro.graph.streaming import stream_graph
from repro.obs import ObsConfig
from repro.partition.hashing import HashPartitioner

SPEC = ClusterSpec(num_workers=3, num_servers=1)

CRASH = FaultConfig(
    enabled=True, seed=2, crash_schedule=((1, 1),), checkpoint_every=1,
)
ADOPT_AND_REJOIN = FaultConfig(
    enabled=True, seed=1, elastic=True, permanent_failures=((2, 1),),
    rejoin_schedule=((4, 1),), checkpoint_every=1,
)

# Six epochs on ``medium_graph`` (2 layers, hidden 16), captured before
# any worker released its inputs. The crash at epoch 1 and worker 1's
# loss at epoch 2 now both come after the release in epoch 0.
# ``param_pull``/``param_push`` (and ``total_bytes``) carry +8 bytes per
# metered parameter message (gcn crash 48 + 48, sage crash 72 + 72, gcn
# adopt-and-rejoin 40 + 40) since each shard travels as a RAW frame.
_CRASH_GCN = {
    "losses": [
        "1.458814288377762", "1.4071209359169008", "1.371265174150467",
        "1.3407979440689088", "1.3100845992565155", "1.280996378660202",
    ],
    "total_bytes": 99432,
    "categories": {
        "bp_gradients": 9516, "feature_cache": 32224,
        "fp_embeddings": 11900, "param_pull": 17472, "param_push": 17472,
        "recovery": 10848,
    },
    "test": "0.7875",
}
_CRASH_SAGE = {
    "losses": [
        "1.7036130344867706", "1.5628072524070742", "1.4679538786411286",
        "1.383440613746643", "1.3083582746982576", "1.2420446169376373",
    ],
    "total_bytes": 131304,
    "categories": {
        "bp_gradients": 9516, "feature_cache": 32224,
        "fp_embeddings": 11900, "param_pull": 33408, "param_push": 33408,
        "recovery": 10848,
    },
    "test": "0.6875",
}
_ADOPT_AND_REJOIN_GCN = {
    "losses": [
        "1.458814288377762", "1.4071209359169008", "1.3751962780952454",
        "1.3407605016231536", "1.310012813806534", "1.2807809901237488",
    ],
    "total_bytes": 111904,
    "categories": {
        "bp_gradients": 7752, "feature_cache": 32224,
        "fp_embeddings": 10584, "param_pull": 14560, "param_push": 14560,
        "recovery": 32224,
    },
    "test": "0.7875",
}
PINNED = {
    ("gcn", "crash", "sync"): _CRASH_GCN,
    ("gcn", "crash", "multiprocess"): _CRASH_GCN,
    ("sage", "crash", "sync"): _CRASH_SAGE,
    ("sage", "crash", "multiprocess"): _CRASH_SAGE,
    # Elastic membership runs under sync only (multiprocess refuses it).
    ("gcn", "adopt_and_rejoin", "sync"): _ADOPT_AND_REJOIN_GCN,
}


def _trainer(graph, model="gcn", obs=None, **config):
    """Two layers of width 16 over 16 features: layer 1 aggregates first,
    so a cached GCN reads only ``M^1`` (no ``h0`` is planned)."""
    return ECGraphTrainer(
        graph, ModelConfig(model=model, num_layers=2, hidden_dim=16), SPEC,
        ECGraphConfig(seed=3, obs=obs or ObsConfig(), **config),
    )


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _store_cat(graph, state) -> np.ndarray:
    """``[X; X_halo]`` read from the graph store by global id."""
    sub = state.sub
    return graph.feature_store.rows(
        np.concatenate([sub.local_vertices, sub.remote_vertices])
    )


def _count_store_reads(graph, monkeypatch) -> list[int]:
    store, reads = graph.feature_store, [0]
    rows = store.rows

    def counting(ids):
        reads[0] += 1
        return rows(ids)

    monkeypatch.setattr(store, "rows", counting)
    return reads


class TestRelease:
    def test_cached_gcn_holds_no_feature_arrays_after_epoch_0(
        self, medium_graph
    ):
        trainer = _trainer(medium_graph)
        trainer.setup()
        for state in trainer.workers:
            assert state.features is not None
            assert state.halo_features is not None
        trainer.run_epoch(0)
        ws = trainer.engine.ctx.workspaces
        for state in trainer.workers:
            assert state.features is None and state.halo_features is None
            assert state.feature_bytes() == 0
            assert "h0" not in ws.plan_of(state.worker_id).slot_of
            same_bits(
                ws.held_aggregate(state, state.a_local),
                state.a_local @ _store_cat(medium_graph, state),
            )

    def test_sage_h0_is_the_only_resident_copy(self, medium_graph):
        trainer = _trainer(medium_graph, model="sage")
        trainer.run_epoch(0)
        ws = trainer.engine.ctx.workspaces
        for state in trainer.workers:
            assert state.features is None and state.halo_features is None
            assert ws.plan_of(state.worker_id).persistent("h0")
            h_cat = ws.first_input(state)
            assert h_cat is ws.h_cat(state, 0)
            same_bits(h_cat, _store_cat(medium_graph, state))

    def test_uncached_first_hop_keeps_the_exchange_source(
        self, medium_graph
    ):
        trainer = _trainer(medium_graph, cache_first_hop=False)
        trainer.setup()
        shards = [state.features for state in trainer.workers]
        for t in range(2):
            trainer.run_epoch(t)
        for state, shard in zip(trainer.workers, shards):
            assert state.features is shard
            assert state.halo_features is None
            assert state.feature_bytes() == shard.nbytes

    @pytest.mark.parametrize("model", ["gcn", "sage"])
    def test_steady_state_reads_the_store_zero_times(
        self, medium_graph, monkeypatch, model
    ):
        trainer = _trainer(medium_graph, model=model)
        trainer.run_epoch(0)
        reads = _count_store_reads(medium_graph, monkeypatch)
        for t in range(1, 4):
            trainer.run_epoch(t)
        trainer.engine.evaluate_exact()
        assert reads == [0]

    def test_multiprocess_supervisor_releases_after_the_fork(
        self, medium_graph
    ):
        """Kernels run in the worker processes, which fork with the rows
        and build ``M^1`` from them; the supervisor then holds no rows
        after the first iteration, trains like sync and evaluates
        bit-equal to it from the store."""
        inline = _trainer(medium_graph)
        forked = _trainer(medium_graph, execution="multiprocess")
        try:
            forked.setup()
            for state in forked.workers:
                assert state.features is not None
                assert state.halo_features is not None
            curves = [
                [repr(trainer.run_epoch(t).loss) for t in range(3)]
                for trainer in (inline, forked)
            ]
            assert curves[0] == curves[1]
            for trainer in (inline, forked):
                for state in trainer.workers:
                    assert state.features is None
                    assert state.halo_features is None
                    assert state.feature_bytes() == 0
            assert (forked.engine.evaluate_exact()
                    == inline.engine.evaluate_exact())
        finally:
            forked.close()


class TestCrashSignal:
    def test_crash_reset_records_a_released_cache_as_lost(
        self, medium_graph
    ):
        trainer = _trainer(medium_graph)
        trainer.run_epoch(0)
        state = trainer.workers[1]
        assert state.halo_features is None  # released, not lost
        assert not state.halo_lost
        state.crash_reset(2)
        assert state.halo_lost
        with pytest.raises(RuntimeError, match="no halo_features"):
            state.halo_rows()

    def test_uncached_worker_has_no_cache_to_lose(self, medium_graph):
        trainer = _trainer(medium_graph, cache_first_hop=False)
        trainer.run_epoch(0)
        state = trainer.workers[1]
        state.crash_reset(2)
        assert not state.halo_lost

    def test_crash_after_release_refetches_and_rebuilds(self, medium_graph):
        trainer = _trainer(
            medium_graph, faults=FaultConfig(enabled=True, seed=2)
        )
        trainer.run_epoch(0)
        ctx = trainer.engine.ctx
        state = ctx.workers[1]
        assert state.features is None and state.halo_features is None
        meter = trainer.runtime.meter
        before = meter.snapshot().category_bytes.get("recovery", 0)
        trainer.engine.recovery.recover_workers([1])

        # The halo is fetched again (the owners serve store rows), at
        # the price of one fetch: each owner's rows plus 16 bytes.
        same_bits(state.halo_features,
                  medium_graph.feature_store.rows(state.sub.remote_vertices))
        assert not state.halo_lost
        dim = medium_graph.feature_dim
        fetch = sum(
            slots.size * dim * 4 + 16 for slots in state.halo_slots.values()
        )
        charged = meter.snapshot().category_bytes["recovery"] - before
        assert charged == fetch

        # The next forward rebuilds M^1 from it and releases it again.
        trainer.run_epoch(1)
        same_bits(
            ctx.workspaces.held_aggregate(state, state.a_local),
            state.a_local @ _store_cat(medium_graph, state),
        )
        assert state.halo_features is None

    @pytest.mark.parametrize(
        "model,scenario,execution", sorted(PINNED),
        ids=["-".join(key) for key in sorted(PINNED)],
    )
    def test_faults_after_the_release_keep_the_pinned_run(
        self, medium_graph, model, scenario, execution
    ):
        faults = {"crash": CRASH, "adopt_and_rejoin": ADOPT_AND_REJOIN}
        trainer = _trainer(
            medium_graph, model=model, faults=faults[scenario],
            execution=execution,
        )
        try:
            losses = [repr(trainer.run_epoch(t).loss) for t in range(6)]
            test = repr(trainer.engine.evaluate_exact()["test"])
        finally:
            trainer.close()
        meter = trainer.runtime.meter
        got = {
            "losses": losses,
            "total_bytes": int(meter.total_bytes),
            "categories": {
                k: int(v)
                for k, v in sorted(meter.snapshot().category_bytes.items())
            },
            "test": test,
        }
        assert got == PINNED[(model, scenario, execution)]


class TestRespawnAfterTheSupervisorsRelease:
    @pytest.fixture(params=["memory", "mmap"])
    def graph(self, request, medium_graph, tmp_path):
        if request.param == "memory":
            return medium_graph
        return to_mmap_bundle(medium_graph, tmp_path / "g", chunk_vertices=64)

    def test_child_rebuilds_m1_without_a_store_read(
        self, graph, medium_graph, monkeypatch, tmp_path
    ):
        parent = os.getpid()
        child_reads = multiprocessing.get_context("fork").Value("i", 0)
        store = graph.feature_store
        rows = store.rows

        def counting(ids):
            if os.getpid() != parent:
                with child_reads.get_lock():
                    child_reads.value += 1
            return rows(ids)

        first_aggregate = LayerWorkspaces.first_aggregate

        def recorded(self, state, adjacency):
            aggregate = first_aggregate(self, state, adjacency)
            if os.getpid() != parent:
                name = f"m1-w{state.worker_id}-{os.getpid()}.npy"
                np.save(tmp_path / name, aggregate)
            return aggregate

        monkeypatch.setattr(store, "rows", counting)
        monkeypatch.setattr(LayerWorkspaces, "first_aggregate", recorded)
        trainer = _trainer(graph, faults=CRASH, execution="multiprocess")
        try:
            losses, pids = [], []
            for t in range(6):
                losses.append(repr(trainer.run_epoch(t).loss))
                pids.append(trainer.engine.ctx.executor.worker_pids)
                for state in trainer.workers:
                    assert state.features is None
                    assert state.halo_features is None
            test = repr(trainer.engine.evaluate_exact()["test"])
        finally:
            trainer.close()

        # Worker 1 crashed at epoch 1: a new process served epochs 1..5.
        first, respawned = pids[0][1], pids[-1][1]
        assert first != respawned and pids[1][1] == respawned
        assert child_reads.value == 0
        state = trainer.workers[1]
        want = state.a_local @ _store_cat(graph, state)
        for pid in (first, respawned):
            same_bits(np.load(tmp_path / f"m1-w1-{pid}.npy"), want)

        # The pinned run: same losses, bytes (recovery included), test.
        meter = trainer.runtime.meter
        got = {
            "losses": losses,
            "total_bytes": int(meter.total_bytes),
            "categories": {
                k: int(v)
                for k, v in sorted(meter.snapshot().category_bytes.items())
            },
            "test": test,
        }
        assert got == PINNED[("gcn", "crash", "multiprocess")]


# ----------------------------------------------------------------------
# The feature_bytes gauge
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gauge_graph():
    """Large enough that the feature arrays dwarf the Python objects
    around them."""
    return stream_graph(GraphSpec(
        name="feature-gauge", num_vertices=2000, avg_degree=8.0,
        feature_dim=16, num_classes=3, seed=3,
    ))


class TestFeatureGauge:
    def _published(self, trainer) -> list[float]:
        snapshot = trainer.obs.metrics.snapshot()
        return [
            snapshot.gauge("feature_bytes", worker=w)
            for w in range(SPEC.num_workers)
        ]

    def test_gauge_is_what_tracemalloc_sees(self, gauge_graph):
        """Published at the start of epoch 0 (before the release), the
        gauge is what the release frees; at the start of epoch 1 it is
        0, and the states hold nothing left to free."""
        tracemalloc.start()
        try:
            trainer = _trainer(gauge_graph, obs=ObsConfig(enabled=True))
            trainer.setup()
            ws = trainer.engine.ctx.workspaces
            release, freed = ws.release_first_inputs, []

            def measured(state):
                before = tracemalloc.get_traced_memory()[0]
                release(state)
                freed.append(before - tracemalloc.get_traced_memory()[0])

            ws.release_first_inputs = measured
            trainer.run_epoch(0)
            published = self._published(trainer)
            assert all(value > 0 for value in published)
            assert abs(sum(freed) - sum(published)) <= 0.05 * sum(published)

            trainer.run_epoch(1)
            assert self._published(trainer) == [0, 0, 0]
            # A second release frees nothing beyond tracemalloc's noise.
            assert abs(sum(freed[3:])) <= 0.05 * sum(published)
        finally:
            tracemalloc.stop()

    def test_uncached_gauge_counts_the_shard(self, gauge_graph):
        trainer = _trainer(
            gauge_graph, obs=ObsConfig(enabled=True), cache_first_hop=False
        )
        trainer.train(2)
        assert self._published(trainer) == [
            float(state.features.nbytes) for state in trainer.workers
        ]

    def test_a_shared_buffer_counts_once(self, gauge_graph):
        normalized = normalized_adjacency(gauge_graph.adjacency)
        partition = HashPartitioner().partition(gauge_graph.adjacency, 3)
        state = build_worker_states(gauge_graph, normalized, partition)[0]
        state.halo_features = state.features
        assert state.feature_bytes() == state.features.nbytes
        state.halo_features = state.features[:5]
        assert state.feature_bytes() == state.features.nbytes
