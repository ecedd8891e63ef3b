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
from repro.graph.generators import GraphSpec, generate_graph


class TestKnobDefaults:
    def test_buffer_pool_knob_is_gone(self):
        with pytest.raises(TypeError):
            ECGraphConfig(halo_buffer_pool=True)


# ----------------------------------------------------------------------
# Steady-state allocation budget
# ----------------------------------------------------------------------
ROUNDS = ("forward_kernels", "loss_scan", "backward_local", "backward_reduce")


def _budget_trainer(**config):
    graph = generate_graph(GraphSpec(
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
    ctx = trainer.engine.ctx
    return min(
        ctx.workspaces.h_cat(state, k, ctx.params.dims[k]).nbytes
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
