"""Behavioural tests of the multiprocess execution backend.

Bit-identity against the sync goldens lives in
``test_engine_equivalence.py`` (``TestMultiprocessBitIdentity``); this
module covers everything else the process backend must get right:
shared-memory hygiene (no ``/dev/shm`` residue, even after a worker is
SIGKILLed mid-run), idempotent teardown, real-process crash recovery,
backpressure with payloads larger than a pipe buffer, and the
elastic-membership gate.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults.config import FaultConfig
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph

SHM_DIR = "/dev/shm"


@pytest.fixture(scope="module")
def graph():
    return stream_graph(GraphSpec(
        name="mp", num_vertices=72, avg_degree=5.0, feature_dim=8,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=30, val=12, test=24, seed=11,
    ))


def _mp_trainer(graph, **overrides):
    config = ECGraphConfig(seed=0, execution="multiprocess", **overrides)
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=16),
        ClusterSpec(num_workers=3, num_servers=1), config,
    )


def _shm_entries(token: str) -> list[str]:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux hosts
        pytest.skip("/dev/shm not available")
    return [n for n in os.listdir(SHM_DIR) if token in n]


class TestSharedMemoryHygiene:
    def test_close_unlinks_every_segment(self, graph):
        trainer = _mp_trainer(graph)
        trainer.run_epoch(0)
        token = trainer.engine.ctx.executor.store.token
        assert _shm_entries(token), "expected live segments during training"
        trainer.close()
        assert _shm_entries(token) == []

    def test_killed_worker_leaves_no_residue(self, graph):
        trainer = _mp_trainer(graph)
        trainer.run_epoch(0)
        executor = trainer.engine.ctx.executor
        token = executor.store.token
        victim = executor.worker_pids[0]
        os.kill(victim, signal.SIGKILL)
        # close() must reap the dead process and unlink cleanly: only
        # the supervisor ever unlinks, so a SIGKILLed worker (which
        # never runs teardown) cannot strand a segment.
        trainer.close()
        assert _shm_entries(token) == []

    def test_double_close_is_a_noop(self, graph):
        trainer = _mp_trainer(graph)
        trainer.run_epoch(0)
        trainer.close()
        trainer.close()

    def test_store_double_close_direct(self):
        from repro.mp import SharedStore

        store = SharedStore()
        store.allocate("x", (4, 4))
        store.close()
        store.close()
        assert _shm_entries(store.token) == []


class TestSharedWorkspaces:
    def test_blocks_are_the_planned_shared_slots(self, graph):
        """Every slot an exchange and a kernel share is one block named
        ``s<k>w<worker>``; kernel-private slots stay out of /dev/shm, and
        the cached first hop holds no ``[X; X_halo]`` at all."""
        trainer = _mp_trainer(graph)
        try:
            trainer.run_epoch(0)
            ctx = trainer.engine.ctx
            plans = {w: ctx.workspaces.plan_of(w) for w in range(3)}
            names = set(ctx.executor.store.names())
            assert names == {
                f"s{k}w{w}" for w, plan in plans.items()
                for k, slot in enumerate(plan.slots) if slot.shared
            }
            assert len(names) == 3 * 2  # h1 and g2
            assert all("h0" not in plan.slot_of for plan in plans.values())
            state = trainer.workers[1]
            h1 = ctx.workspaces.h_cat(state, 1)
            block = f"s{plans[1].slot_of['h1']}w1"
            assert h1 is ctx.executor.store.view(block)
            # The worker process wrote H^1 straight into the block the
            # supervisor serves from: no export copy, and it is not zero.
            assert h1[:state.num_local].any()
        finally:
            trainer.close()

    def test_worker_processes_report_what_they_hold(self, graph):
        from repro.obs import ObsConfig

        trainer = _mp_trainer(graph, obs=ObsConfig(enabled=True))
        try:
            for t in range(2):
                trainer.run_epoch(t)
            snapshot = trainer.obs.metrics.snapshot()
            ctx = trainer.engine.ctx
            for state in trainer.workers:
                w = state.worker_id
                held = ctx.workspaces.held(w)
                total = snapshot.gauge("workspace_bytes", worker=w)
                # Shared blocks plus the process-private Z / M / G slots:
                # the worker process holds its whole plan.
                assert total > held.resident > 0
                assert total == held.planned == snapshot.gauge(
                    "workspace_planned_bytes", worker=w
                )
                assert snapshot.gauge("first_aggregate_bytes", worker=w) == (
                    state.num_local * 8 * 4
                )
        finally:
            trainer.close()

    def test_worker_pids_are_a_gauge(self, graph):
        """Each iteration publishes the OS pid of every worker process;
        a crash respawn shows up as a new value."""
        from repro.obs import ObsConfig

        trainer = _mp_trainer(graph, obs=ObsConfig(enabled=True))
        metrics = trainer.obs.metrics
        try:
            trainer.run_epoch(0)
            executor = trainer.engine.ctx.executor
            pids = executor.worker_pids
            for w, pid in pids.items():
                assert metrics.snapshot().gauge("worker_pid", worker=w) == pid
            executor.on_worker_crash(1)
            trainer.run_epoch(1)
            respawned = metrics.snapshot().gauge("worker_pid", worker=1)
            assert respawned == executor.worker_pids[1] != pids[1]
        finally:
            trainer.close()


class TestCrashRecovery:
    def test_crash_respawns_a_fresh_process(self, graph):
        trainer = _mp_trainer(graph)
        trainer.run_epoch(0)
        executor = trainer.engine.ctx.executor
        old_pid = executor.worker_pids[1]
        try:
            executor.on_worker_crash(1)
            new_pid = executor.worker_pids[1]
            assert new_pid != old_pid
            assert os.getpid() not in (old_pid, new_pid)
            # The respawned worker participates in the next epoch.
            result = trainer.run_epoch(1)
            assert result.loss == result.loss  # not NaN
        finally:
            trainer.close()

    def test_chaos_crash_scenario_under_multiprocess(self, graph, tmp_path):
        from repro.faults.chaos import run_chaos

        report = run_chaos(
            graph, "crash", num_workers=3, num_epochs=4, seed=0,
            checkpoint_dir=str(tmp_path), execution="multiprocess",
        )
        assert report.survived
        assert report.counters.crashes >= 1


class TestBackpressure:
    def test_large_payloads_do_not_deadlock(self):
        # W1 alone is 128x128 float64 = 131 KB — past the 64 KB pipe
        # buffer, so a naive broadcast that sends before any worker
        # drains would block forever. The protocol survives because
        # workers park in recv() between rounds; the alarm turns a
        # regression into a failure instead of a hang.
        graph = stream_graph(GraphSpec(
            name="wide", num_vertices=64, avg_degree=4.0, feature_dim=128,
            num_classes=3, homophily=0.9, feature_noise=0.8,
            train=24, val=12, test=16, seed=5,
        ))
        trainer = ECGraphTrainer(
            graph, ModelConfig(num_layers=2, hidden_dim=128),
            ClusterSpec(num_workers=3, num_servers=1),
            ECGraphConfig(seed=0, execution="multiprocess"),
        )
        previous = signal.alarm(180)
        try:
            for t in range(2):
                trainer.run_epoch(t)
        finally:
            signal.alarm(previous)
            trainer.close()


class TestGates:
    """Both elastic refusals come when the config is built — before any
    partitioning, worker build or fork."""

    def test_elastic_membership_is_rejected(self):
        with pytest.raises(ValueError, match="does not support elastic"):
            ECGraphConfig(
                execution="multiprocess",
                faults=FaultConfig(enabled=True, elastic=True),
            )

    def test_elastic_without_fault_injection_is_rejected(self):
        # Under sync this used to train as if elastic were off.
        with pytest.raises(ValueError, match="requires enabled=True"):
            FaultConfig(elastic=True)

    def test_chaos_refuses_before_the_baseline_trains(self, graph, monkeypatch):
        from repro.faults import chaos

        def never(*args, **kwargs):
            raise AssertionError("the baseline trained")

        monkeypatch.setattr(chaos, "run_system", never)
        with pytest.raises(ValueError, match="does not support elastic"):
            chaos.run_chaos(graph, "worker-loss", num_workers=3,
                            num_epochs=4, execution="multiprocess")


class TestConfigSurface:
    def test_unknown_execution_mode_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            ECGraphConfig(execution="threads")

    def test_context_manager_closes(self, graph):
        with _mp_trainer(graph) as trainer:
            trainer.run_epoch(0)
            token = trainer.engine.ctx.executor.store.token
        assert _shm_entries(token) == []
