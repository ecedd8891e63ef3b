"""Perf invariants of the hot path.

A steady-state iteration allocates nothing of ``h_cat`` size in the
kernel path: the layer workspaces are persistent, so after warm-up no
kernel round (inline, or the multiprocess worker's dispatch of the same
round) may allocate as much as one ``h_cat``. There is one exchange
path and no knob matrix (`halo_buffer_pool` and the thread fan-out are
gone); the budget is what keeps that path allocation-free.
"""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import ECGraphTrainer, ModelConfig
from repro.core.config import ECGraphConfig
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph


class TestKnobDefaults:
    def test_buffer_pool_knob_is_gone(self):
        with pytest.raises(TypeError):
            ECGraphConfig(halo_buffer_pool=True)


# ----------------------------------------------------------------------
# Steady-state allocation budget
# ----------------------------------------------------------------------
ROUNDS = ("forward_kernels", "loss_scan", "backward_local", "backward_reduce")


def _budget_trainer(**config):
    graph = stream_graph(GraphSpec(
        name="budget", num_vertices=1200, avg_degree=10.0, feature_dim=48,
        num_classes=6, power_law=2.2, train=400, val=200, test=400, seed=9,
    ))
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=3, hidden_dim=48),
        ClusterSpec(num_workers=4), ECGraphConfig(seed=1, **config),
    )
    trainer.setup()
    return trainer


def _smallest_h_cat_bytes(trainer) -> int:
    """The smallest ``[H^k; H^k_halo]`` any worker's layer reads."""
    ctx = trainer.engine.ctx
    return min(
        (state.num_local + state.num_halo) * ctx.params.dims[k] * 4
        for state in ctx.workers
        for k in range(ctx.params.num_layers)
    )


class _RoundPeaks:
    """Peak bytes allocated inside each wrapped call (tracemalloc)."""

    def __init__(self):
        self.peaks: dict[str, int] = {}

    def wrap(self, owner, name):
        target = getattr(owner, name)

        def measured(*args, **kwargs):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return target(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                self.peaks[name] = max(
                    self.peaks.get(name, 0), peak - before
                )

        setattr(owner, name, measured)


class TestSteadyStateAllocationBudget:
    @pytest.mark.parametrize("config", [
        dict(fp_mode="raw", bp_mode="raw"),
        dict(),
        dict(transform_first=False),
        dict(cache_first_hop=False, fp_mode="compress"),
    ], ids=["raw", "ec", "aggregate-first", "uncached-first-hop"])
    def test_no_kernel_round_allocates_an_h_cat(self, config):
        trainer = _budget_trainer(**config)
        for t in range(2):  # warm-up: buffers appear, M^1 is computed
            trainer.run_epoch(t)
        budget = _smallest_h_cat_bytes(trainer)
        rounds = _RoundPeaks()
        for name in ROUNDS:
            rounds.wrap(trainer.engine.ctx.executor, name)
        tracemalloc.start()
        try:
            trainer.run_epoch(2)
        finally:
            tracemalloc.stop()
        assert set(rounds.peaks) == set(ROUNDS)
        for name, peak in rounds.peaks.items():
            assert peak < budget, (
                f"{name} allocated {peak} B in one round; "
                f"an h_cat is {budget} B"
            )

    def test_worker_process_dispatch_meets_the_same_budget(self):
        """The multiprocess worker runs its rounds through
        ``mp.worker._dispatch``; driven in-process over the same context
        it must stay inside the budget too."""
        from repro.mp import worker as mp_worker

        trainer = _budget_trainer(fp_mode="raw", bp_mode="raw")
        for t in range(2):
            trainer.run_epoch(t)
        ctx, backend = trainer.engine.ctx, trainer.engine.backend
        budget = _smallest_h_cat_bytes(trainer)
        num_layers = ctx.params.num_layers
        pulled = {
            layer: {
                name: ctx.servers.get(name)
                for name in backend.layer_param_names(layer)
            }
            for layer in range(1, num_layers + 1)
        }
        rounds = _RoundPeaks()
        rounds.wrap(mp_worker, "_dispatch")
        tracemalloc.start()
        try:
            for state in ctx.workers:
                args = (state, backend, ctx)
                mp_worker._dispatch(("begin",), *args)
                for layer in range(1, num_layers + 1):
                    mp_worker._dispatch(
                        ("fwd", layer, layer == num_layers, pulled[layer]),
                        *args,
                    )
                mp_worker._dispatch(("loss",), *args)
                mp_worker._dispatch(("bpl", num_layers, pulled[num_layers]),
                                    *args)
                mp_worker._dispatch(("bpr", num_layers, pulled[num_layers]),
                                    *args)
        finally:
            tracemalloc.stop()
        assert 0 < rounds.peaks["_dispatch"] < budget

    def test_no_input_gradient_round_allocates_a_float_sigma(self):
        """Under ReLU σ' is the one-byte mask the forward kept: beyond
        the ``A·G`` its spmm allocates, an input-gradient kernel
        allocates less than one float32 ``(local, d)`` factor array
        (the float ``(Z > 0)`` it multiplied by before)."""
        trainer = _budget_trainer(fp_mode="raw", bp_mode="raw")
        for t in range(2):
            trainer.run_epoch(t)
        ctx, backend = trainer.engine.ctx, trainer.engine.backend
        dims, reduce_, over = ctx.params.dims, backend.backward_reduce, []

        def measured(state, layer, weights):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            reduce_(state, layer, weights)
            _, peak = tracemalloc.get_traced_memory()
            spmm = state.num_local * dims[layer] * 4
            sigma = state.num_local * dims[layer - 1] * 4
            over.append((peak - before - spmm, sigma))

        backend.backward_reduce = measured
        tracemalloc.start()
        try:
            trainer.run_epoch(2)
        finally:
            tracemalloc.stop()
        assert len(over) == 4 * 2  # workers x layers 3..2
        for extra, sigma in over:
            assert extra < sigma, (
                f"{extra} B beyond the spmm; a float σ' is {sigma} B"
            )

    def test_workspaces_are_the_same_arrays_every_epoch(self):
        trainer = _budget_trainer()
        trainer.run_epoch(0)
        trainer.run_epoch(1)
        ws = trainer.engine.ctx.workspaces
        before = dict(ws._arrays)
        total = sum(buf.nbytes for buf in before.values())
        trainer.run_epoch(2)
        assert ws._arrays.keys() == before.keys()
        assert all(ws._arrays[k] is buf for k, buf in before.items())
        assert sum(ws.held(w)[0] for w in range(4)) == total > 0
        logits = trainer.workers[0].caches[3].output
        assert np.isfinite(logits).all()


# ----------------------------------------------------------------------
# Trend state: one snapshot and one changing rate per exported row
# ----------------------------------------------------------------------
class TestBoundaryRetention:
    """The requesting end derives ``M_cr`` itself, but both ends of the
    one-process simulator read a single table: a boundary exchange
    retains ``h_last`` + one ``M_cr`` per exported row — a private
    requester copy would show here as a third matrix (and as +7..11 %
    ``peak_rss_mb`` on the EC benchmark rows)."""

    def test_boundary_exchange_retains_one_rate_per_channel(self):
        from reqec_owners import bind
        from repro.core.bit_tuner import BitTuner
        from repro.core.messages import ChannelKey
        from repro.core.reqec_fp import ReqECPolicy

        # Fault-free, as in training without fault injection: no prior
        # snapshot is kept for lost boundaries.
        policy = bind(ReqECPolicy(BitTuner(initial_bits=4, enabled=False),
                                  trend_period=2), {(0, 1): 4096},
                      lossy=False)
        key = ChannelKey(layer=1, responder=0, requester=1)
        rng = np.random.default_rng(0)
        snapshots = [
            rng.standard_normal((4096, 64)).astype(np.float32)
            for _ in range(3)
        ]
        matrix = snapshots[0].nbytes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for t, rows in zip((1, 3, 5), snapshots):
                tracemalloc.reset_peak()
                message = policy.respond(key, rows, t)
                result = policy.receive(key, message, t)
                del message, result
                held, peak = tracemalloc.get_traced_memory()
                # h_last + M_cr, read by both ends, updated in place;
                # the payload copy is released with the message.
                assert 2 * matrix <= held - start < 2.1 * matrix
                # Transient: the table + the payload + the rate being
                # formed + the gathered old rows.
                assert peak - start < 5.5 * matrix
        finally:
            tracemalloc.stop()
        assert list(policy._tables) == [(key.responder, key.layer)]


# ----------------------------------------------------------------------
# Set-up path: no per-vertex adjacency calls, no per-worker re-streaming
# ----------------------------------------------------------------------
class TestSetupPathCallCounts:
    """Counts, not clocks: the partitioners stay off the per-vertex
    ``neighbors`` / ``edge_weights`` accessors and ``build_worker_states``
    reads the adjacency once however many workers there are."""

    N = 4096

    @pytest.fixture(scope="class")
    def sbm(self):
        return stream_graph(GraphSpec(
            name="setup-counts", num_vertices=self.N, avg_degree=12.0,
            feature_dim=8, num_classes=4, homophily=0.8, power_law=2.5,
            seed=4,
        ))

    @pytest.mark.parametrize("method", ["metis"])
    def test_partitioning_makes_fewer_than_n_row_calls(
        self, sbm, method, monkeypatch
    ):
        from repro.graph.csr import CSRGraph
        from repro.partition import make_partitioner

        calls = 0
        for owner, name in (
            (CSRGraph, "neighbors"),
            (CSRGraph, "edge_weights"),
        ):
            def counted(self, vertex, _original=getattr(owner, name)):
                nonlocal calls
                calls += 1
                return _original(self, vertex)

            monkeypatch.setattr(owner, name, counted)
        make_partitioner(method, seed=2).partition(sbm.adjacency, 4)
        # The pre-rewrite loops made more than 8 n of these.
        assert calls < self.N

    @pytest.mark.parametrize("num_workers", [2, 8])
    def test_build_worker_states_reads_each_block_at_most_twice(
        self, sbm, num_workers
    ):
        from repro.core.worker import build_worker_states
        from repro.graph.normalize import normalized_adjacency
        from repro.graph.store import MemoryGraphStore
        from repro.partition import HashPartitioner

        pulls: dict[int, int] = {}

        class CountingStore(MemoryGraphStore):
            def adjacency_block(self, start, stop):
                pulls[start] = pulls.get(start, 0) + 1
                return super().adjacency_block(start, stop)

        base = CountingStore(sbm.adjacency.to_csr(), block_vertices=512)
        partition = HashPartitioner().partition(base, num_workers)
        normalized = normalized_adjacency(base, "gcn")  # self-loop scan: 1
        states = build_worker_states(sbm, normalized, partition)  # sweep: 1
        assert len(states) == num_workers
        assert len(pulls) == self.N // 512
        assert max(pulls.values()) <= 2


# ----------------------------------------------------------------------
# Import footprint
# ----------------------------------------------------------------------
def test_import_does_not_load_arpack():
    """``scipy.sparse.linalg`` (ARPACK and SuperLU, ~10 MiB resident) has
    no user in the package; importing it back must be a decision."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    program = (
        "import sys\n"
        "import repro, repro.core, repro.partition, repro.graph, repro.mp\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, timeout=120,
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
