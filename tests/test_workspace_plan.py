"""The liveness plan behind the layer workspaces.

* the planner (:func:`repro.engine.workspace.plan_slots`): buffers with
  equal shapes, equal sharing and disjoint lives take one slot; nothing
  else ever does;
* what the backends declare: the GCN plan of ``[d, h, h, c]`` folds
  ``h1``, ``h2`` and ``g2`` into one shared slot and ``m2`` with ``g1``
  into one private slot, and holds no ``h0`` on the cached first hop;
* a re-plan (``clear()`` then ``plan_workspaces()``) under either
  executor, which under multiprocess releases the superseded shared
  blocks and respawns the worker processes forked under the old plan.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine.workspace import BufferLife, Timeline, plan_slots
from repro.graph.rmat import RMATSpec
from repro.graph.streaming import stream_rmat_graph
from repro.mp.store import SharedStore

TL = Timeline(3)


def life(name, start, end, shape=(10, 4), shared=False):
    return BufferLife(name, shape, shared, start, end)


class TestTimeline:
    def test_steps_run_forward_then_backward(self):
        assert TL.steps == (
            "fwd1", "fwd2", "fwd3", "loss",
            "bpl3", "halo3", "bpr3", "bpl2", "halo2", "bpr2", "bpl1",
        )

    def test_a_step_reads_before_it_writes(self):
        for step in TL.steps:
            assert TL.read(step) + 1 == TL.write(step)
        assert TL.write("fwd1") < TL.read("fwd2")
        assert TL.always == (0, TL.write("bpl1"))


class TestPlanner:
    def test_disjoint_lives_of_one_shape_share_a_slot(self):
        slot_of, slots = plan_slots([
            life("a", TL.write("fwd1"), TL.read("fwd2")),
            life("b", TL.write("fwd2"), TL.read("bpl3")),
            life("c", TL.write("bpr3"), TL.read("bpr2")),
        ])
        assert slot_of == {"a": 0, "b": 0, "c": 0}
        assert len(slots) == 1
        assert [b.name for b in slots[0].occupants] == ["a", "b", "c"]

    def test_overlapping_lives_never_share(self):
        # A read after the kernel's own write (σ'(Z) once out= is written)
        # sits at the write position: it overlaps what is born there.
        slot_of, _ = plan_slots([
            life("z1", TL.write("fwd1"), TL.write("bpr2")),
            life("g1", TL.write("bpr2"), TL.read("bpl1")),
            life("m2", TL.write("fwd2"), TL.read("bpl2")),
            life("z2", TL.write("fwd2"), TL.write("bpr3")),
        ])
        assert len({slot_of["z1"], slot_of["g1"]}) == 2
        assert len({slot_of["m2"], slot_of["z2"]}) == 2
        # First fit: g1 takes m2's slot, the first one free for it.
        assert slot_of["g1"] == slot_of["m2"]

    @pytest.mark.parametrize("other", [
        dict(shape=(11, 4)), dict(shape=(10, 5)), dict(shared=True),
    ], ids=["rows", "width", "shared-vs-private"])
    def test_different_shapes_or_sharing_never_share(self, other):
        slot_of, slots = plan_slots([
            life("a", TL.write("fwd1"), TL.read("fwd2")),
            life("b", TL.write("bpr3"), TL.read("bpl1"), **other),
        ])
        assert slot_of["a"] != slot_of["b"]
        assert [len(s.occupants) for s in slots] == [1, 1]

    def test_persistent_buffers_never_share(self):
        slot_of, slots = plan_slots([
            life("m1", *TL.always),
            life("z1", TL.write("fwd1"), TL.read("fwd2")),
            life("g1", TL.write("bpr2"), TL.read("bpl1")),
        ])
        assert slot_of["m1"] != slot_of["z1"] == slot_of["g1"]
        assert slots[slot_of["m1"]].occupants == (life("m1", *TL.always),)

    def test_a_name_declared_twice_lives_across_both(self):
        slot_of, slots = plan_slots([
            life("g", TL.write("loss"), TL.read("bpr3")),
            life("x", TL.write("bpr3"), TL.read("bpl2")),
            life("g", TL.write("bpr3"), TL.read("bpr2")),
        ])
        assert slot_of["g"] != slot_of["x"]
        merged = slots[slot_of["g"]].occupants[0]
        assert (merged.start, merged.end) == (
            TL.write("loss"), TL.read("bpr2")
        )

    def test_a_name_cannot_change_shape(self):
        with pytest.raises(ValueError, match="'g'"):
            plan_slots([life("g", 0, 1), life("g", 2, 3, shape=(3, 3))])

    def test_a_slot_costs_one_buffer_of_its_shape(self):
        _, (slot,) = plan_slots([life("a", 1, 2), life("b", 5, 6)])
        assert slot.nbytes == 10 * 4 * 4


# ----------------------------------------------------------------------
# What the backends declare
# ----------------------------------------------------------------------
def _trainer(graph, execution="sync", num_workers=3, **model):
    model = {"num_layers": 3, "hidden_dim": 16, **model}
    return ECGraphTrainer(
        graph, ModelConfig(**model), ClusterSpec(num_workers=num_workers),
        ECGraphConfig(seed=0, execution=execution),
    )


class TestBackendPlans:
    def test_gcn_folds_equal_width_lives_into_two_slots(self, small_graph):
        """dims [12, 16, 16, 3]: both hidden layers aggregate first, the
        last transforms first (its weight gradient re-reads h2)."""
        trainer = _trainer(small_graph)
        trainer.setup()
        ws = trainer.engine.ctx.workspaces
        for state in trainer.workers:
            plan = ws.plan_of(state.worker_id)
            slot = plan.slot_of
            assert "h0" not in slot
            assert slot["h1"] == slot["h2"] == slot["g2"]
            assert slot["m2"] == slot["g1"]
            assert len({slot[n] for n in ("m1", "z1", "m2", "z2")}) == 4
            assert plan.persistent("m1") and not plan.persistent("h1")
            # One slot per name would hold every buffer apart.
            slots = plan.slots
            per_name = sum(s.nbytes * len(s.occupants) for s in slots)
            n_cat = state.num_local + state.num_halo
            assert per_name - ws.held(state.worker_id).planned == (
                2 * n_cat * 16 * 4 + state.num_local * 16 * 4
            )

    @pytest.mark.parametrize("kind, h0", [
        ("sage", "persistent"), ("gat", "persistent"),
        ("online", "persistent"), ("offline", None), ("uncached", "planned"),
    ])
    def test_h0_is_held_where_a_kernel_reads_it_every_iteration(
        self, small_graph, kind, h0
    ):
        """SAGE and GAT read ``[X; X_halo]`` in every forward and weight
        gradient, online sampling rebuilds ``M^1`` from it each iteration,
        and without the cache the exchange refills it; an offline-sampled
        GCN, like a full one, holds only ``M^1``."""
        from repro.engine.backends import GATBackend, SampledGCNBackend

        backend = {
            "gat": GATBackend(num_heads=2),
            "online": SampledGCNBackend([3, 3, 3], online=True),
            "offline": SampledGCNBackend([3, 3, 3]),
        }.get(kind)
        config = ECGraphConfig(
            seed=0, cache_first_hop=kind != "uncached",
            fp_mode="compress" if backend is not None else "reqec",
        )
        trainer = ECGraphTrainer(
            small_graph,
            ModelConfig(model="sage" if kind == "sage" else "gcn",
                        num_layers=3, hidden_dim=16),
            ClusterSpec(num_workers=3), config, backend=backend,
        )
        trainer.setup()
        plan = trainer.engine.ctx.workspaces.plan_of(0)
        if h0 is None:
            assert "h0" not in plan.slot_of
        else:
            assert plan.persistent("h0") == (h0 == "persistent")
        trainer.run_epoch(0)

    def test_every_buffer_a_run_touches_is_planned(self, small_graph):
        trainer = _trainer(small_graph)
        trainer.setup()
        ws = trainer.engine.ctx.workspaces
        with pytest.raises(KeyError, match="'h0' is not in worker 0"):
            ws.buffer("h0", trainer.workers[0])
        trainer.run_epoch(0)
        held = ws.held(0)
        assert held.resident == held.planned


# ----------------------------------------------------------------------
# Re-planning under both executors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def rmat():
    return stream_rmat_graph(RMATSpec(
        scale=8, edge_factor=8, feature_dim=16, num_classes=4, seed=2,
    ))


class TestReplan:
    def test_released_block_name_can_be_made_again(self):
        with SharedStore() as store:
            old = store.allocate("s0w0", (4, 3))
            old[:] = 2.0
            store.release("s0w0")
            new = store.allocate("s0w0", (5, 2))
            assert new.shape == (5, 2) and not new.any()
            assert (old == 2.0).all()  # a view held elsewhere stays valid
            entries = [n for n in os.listdir("/dev/shm") if store.token in n]
            assert len(entries) == 1
        assert not [n for n in os.listdir("/dev/shm") if store.token in n]

    def test_replan_trains_on_under_both_executors(self, rmat):
        """Re-planning mid-run (what a membership change does) neither
        raises nor moves the curve: under multiprocess the superseded
        blocks are released and the workers respawned onto new ones."""

        def curve(execution, replan):
            trainer = _trainer(rmat, execution, num_workers=2, num_layers=2)
            try:
                losses = [trainer.run_epoch(t).loss for t in range(2)]
                if replan:
                    pids = dict(getattr(trainer.engine.ctx.executor,
                                        "worker_pids", {}))
                    trainer.engine.ctx.workspaces.clear()
                    trainer.engine.backend.plan_workspaces()
                losses += [trainer.run_epoch(t).loss for t in range(2, 4)]
                if replan and pids:
                    respawned = trainer.engine.ctx.executor.worker_pids
                    assert all(respawned[w] != pid for w, pid in pids.items())
                return [repr(x) for x in losses]
            finally:
                trainer.close()

        plain = curve("sync", replan=False)
        assert curve("sync", replan=True) == plain
        assert curve("multiprocess", replan=True) == plain
        assert all(np.isfinite([float(x) for x in plain]))
