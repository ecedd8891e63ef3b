"""Elastic membership: permanent loss, adoption, rejoin, watchdog.

Covers the `repro.membership` package end to end: the lease-based
MembershipView, live partition adoption with gradient-gap carry-over,
rejoin reclaim, quorum fail-fast, the convergence watchdog's
rollback/escalation response, checkpoint durability (fsync) and the
both-generations-corrupt fail-fast — plus the invariant that matters
most: an elastic-enabled run with *no* scheduled fault is bit-identical
to a non-elastic run (loss curve AND traffic meter).
"""

import math

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.checkpoint import CheckpointError, save_checkpoint
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig
from repro.faults.config import (
    HEARTBEAT_INTERVAL_S,
    LEASE_GRACE_S,
    MAX_CONSECUTIVE_ROLLBACKS,
    WATCHDOG_BURST,
    WATCHDOG_WINDOW,
)
from repro.faults.chaos import run_chaos
from repro.membership import (
    ConvergenceWatchdog,
    DivergenceError,
    MembershipView,
    QuorumLostError,
)
from repro.obs import ObsConfig

OBS = ObsConfig(enabled=True)


def _train(graph, faults, epochs=12, workers=3, **config_overrides):
    """Train with a FaultConfig; returns (trainer, run)."""
    config = ECGraphConfig(faults=faults, **config_overrides)
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=workers), config,
    )
    return trainer, trainer.train(epochs)


def _event_kinds(trainer):
    return [e["kind"] for e in trainer.membership_events]


# ----------------------------------------------------------------------
# MembershipView unit behaviour
# ----------------------------------------------------------------------
class TestMembershipView:
    FAULTS = FaultConfig(enabled=True, elastic=True)

    def test_starts_fully_alive(self):
        view = MembershipView(4, self.FAULTS)
        assert view.alive_workers() == [0, 1, 2, 3]
        assert view.alive_count == 4
        assert all(view.is_alive(w) for w in range(4))

    def test_mark_dead_and_detection_stall(self, monkeypatch):
        view = MembershipView(3, self.FAULTS)
        stall = view.mark_dead(2, 1)
        # The lease is a whole number of heartbeats.
        assert stall == pytest.approx(LEASE_GRACE_S)
        assert stall == pytest.approx(
            math.ceil(LEASE_GRACE_S / HEARTBEAT_INTERVAL_S)
            * HEARTBEAT_INTERVAL_S
        )
        assert not view.is_alive(1)
        assert view.alive_workers() == [0, 2]
        # The constants divide evenly, so rounding up shows only under a
        # heartbeat that does not: ceil(1.0 / 0.3) = 4 beats of 0.3 s.
        monkeypatch.setattr("repro.membership.view.HEARTBEAT_INTERVAL_S", 0.3)
        assert MembershipView(3, self.FAULTS).mark_dead(2, 1) == (
            pytest.approx(4 * 0.3)
        )

    def test_double_death_rejected(self):
        view = MembershipView(2, self.FAULTS)
        view.mark_dead(0, 1)
        with pytest.raises(ValueError, match="already dead"):
            view.mark_dead(1, 1)

    def test_mark_alive_roundtrip(self):
        view = MembershipView(2, self.FAULTS)
        assert not view.mark_alive(0, 1)  # never died: no-op
        view.mark_dead(1, 1)
        assert view.mark_alive(2, 1)
        assert view.alive_workers() == [0, 1]

    def test_quorum_fail_fast(self):
        faults = FaultConfig(enabled=True, elastic=True,
                             quorum_fraction=0.5)
        view = MembershipView(4, faults)
        view.mark_dead(0, 3)
        view.require_quorum(0)  # 3/4 alive: fine
        view.mark_dead(1, 2)
        view.require_quorum(1)  # 2/4 = exactly the quorum: fine
        view.mark_dead(2, 1)
        with pytest.raises(QuorumLostError, match="quorum lost"):
            view.require_quorum(2)  # 1/4 < 0.5
        assert view.events[-1].kind == "quorum_lost"

    def test_timeline_is_ordered_and_serializable(self):
        view = MembershipView(3, self.FAULTS)
        view.mark_dead(1, 2)
        view.record(1, "partition_adopted", 2, adopter=0, vertices=10)
        view.mark_alive(4, 2)
        kinds = [e.kind for e in view.events]
        assert kinds == ["worker_lost", "partition_adopted",
                         "worker_rejoined"]
        as_dicts = [e.as_dict() for e in view.events]
        assert as_dicts[1] == {"epoch": 1, "kind": "partition_adopted",
                               "worker": 2, "adopter": 0, "vertices": 10}


# ----------------------------------------------------------------------
# ConvergenceWatchdog unit behaviour
# ----------------------------------------------------------------------
class TestConvergenceWatchdog:

    def test_nan_trips_even_unarmed(self):
        dog = ConvergenceWatchdog()
        assert dog.observe(0, 1.0) is None
        assert dog.observe(1, float("nan")) == "nan_loss"
        assert dog.observe(2, 1.0, grad_norm=float("inf")) == "nan_grad"

    def test_divergence_only_while_armed(self):
        dog = ConvergenceWatchdog()
        for t in range(3):
            assert dog.observe(t, 1.0) is None
        # 100x the median, but unarmed: steady-state wobble never trips.
        assert dog.observe(3, 100.0) is None
        dog.arm(4, "membership_change")
        assert dog.observe(4, 1.0) is None
        assert dog.observe(5, 100.0) == "divergence"

    def test_armed_window_expires(self):
        dog = ConvergenceWatchdog()
        dog.arm(0, "membership_change")
        assert dog.is_armed(WATCHDOG_WINDOW)
        assert not dog.is_armed(WATCHDOG_WINDOW + 1)

    def test_healthy_epoch_resets_consecutive(self):
        dog = ConvergenceWatchdog()
        dog.observe(0, float("nan"))
        assert dog.consecutive == 1
        dog.observe(1, 1.0)
        assert dog.consecutive == 0
        assert not dog.exhausted

    def test_exhaustion_after_consecutive_trips(self):
        dog = ConvergenceWatchdog()
        for t in range(MAX_CONSECUTIVE_ROLLBACKS - 1):
            dog.observe(t, float("nan"))
            assert not dog.exhausted
        dog.observe(MAX_CONSECUTIVE_ROLLBACKS, float("nan"))
        assert dog.exhausted


# ----------------------------------------------------------------------
# Bit-identity: configured-but-inert elasticity must change nothing
# ----------------------------------------------------------------------
class TestElasticInertBitIdentity:
    @pytest.mark.parametrize("inert", [
        FaultConfig(enabled=True, elastic=True),
        FaultConfig(enabled=True, elastic=True, checkpoint_every=1),
        FaultConfig(enabled=True, elastic=True, quorum_fraction=0.9),
    ], ids=["bare", "checkpointed", "tuned"])
    def test_inert_elastic_run_bit_identical(self, small_graph, inert):
        """Elasticity with no scheduled fault must be invisible: the
        loss curve AND the traffic/time accounting match a non-elastic
        run exactly (not approximately)."""
        _, base = _train(small_graph, FaultConfig(enabled=True))
        trainer, run = _train(small_graph, inert)
        assert [e.loss for e in base.epochs] == [e.loss for e in run.epochs]
        assert base.total_bytes() == run.total_bytes()
        assert [e.breakdown.comm_seconds for e in base.epochs] == [
            e.breakdown.comm_seconds for e in run.epochs
        ]
        # The machinery is wired but recorded nothing.
        assert trainer.membership_events == []
        counters = trainer.fault_counters
        assert counters.permanent_failures == 0
        assert counters.watchdog_trips == 0

    def test_inert_run_is_deterministic(self, small_graph):
        faults = FaultConfig(enabled=True, elastic=True,
                             checkpoint_every=1)
        _, r1 = _train(small_graph, faults)
        _, r2 = _train(small_graph, faults)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]


# ----------------------------------------------------------------------
# Permanent loss and adoption
# ----------------------------------------------------------------------
class TestPermanentLossAdoption:
    def _lose(self, graph, lose_at=5, victim=1, epochs=12, **kw):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            permanent_failures=((lose_at, victim),), **kw,
        )
        return _train(graph, faults, epochs=epochs)

    def test_survives_all_epochs(self, small_graph):
        trainer, run = self._lose(small_graph)
        assert len(run.epochs) == 12
        assert np.isfinite(run.epochs[-1].loss)
        counters = trainer.fault_counters
        assert counters.permanent_failures == 1
        assert counters.adoptions == 1
        assert counters.faults_injected >= 1

    def test_partition_moves_to_a_survivor(self, small_graph):
        trainer, _ = self._lose(small_graph, victim=1)
        reassigner = trainer.engine.recovery.reassigner
        membership = trainer.engine.recovery.membership
        assert not membership.is_alive(1)
        # Nothing is assigned to the dead worker any more...
        assert not (reassigner.assignment == 1).any()
        # ...the adopter holds the orphaned vertices...
        adopter = membership.custodian[1]
        assert adopter != 1 and membership.is_alive(adopter)
        moved = reassigner.original == 1
        assert (reassigner.assignment[moved] == adopter).all()
        # ...and the dead slot is an empty shell, not a hole.
        assert trainer.workers[1].num_local == 0

    def test_detection_stall_charged_to_survivors(self, small_graph):
        trainer, _ = self._lose(small_graph)
        membership = trainer.engine.recovery.membership
        stall = membership.detection_seconds()
        assert stall == pytest.approx(LEASE_GRACE_S)
        extra = trainer.fault_counters.extra_seconds
        # Each of the 2 survivors waited out the lease, plus the
        # adopter's recovery stall.
        assert extra >= 2 * stall

    def test_event_timeline(self, small_graph):
        trainer, _ = self._lose(small_graph)
        kinds = _event_kinds(trainer)
        assert kinds[:3] == ["worker_lost", "partition_adopted",
                             "exchange_rebuilt"]
        lost = trainer.membership_events[0]
        assert lost["worker"] == 1
        assert lost["detection_seconds"] > 0

    def test_loss_is_deterministic(self, small_graph):
        t1, r1 = self._lose(small_graph)
        t2, r2 = self._lose(small_graph)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]
        assert t1.fault_counters.as_dict() == t2.fault_counters.as_dict()

    def test_quorum_loss_fails_fast(self, small_graph):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            quorum_fraction=0.5,
            permanent_failures=((3, 1), (5, 2)),
        )
        config = ECGraphConfig(faults=faults)
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), config,
        )
        # Losing 2 of 3 leaves 1/3 < 0.5: the second loss must abort.
        with pytest.raises(QuorumLostError):
            trainer.train(10)

    def test_relaxed_quorum_survives_cascade(self, small_graph):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            quorum_fraction=0.25,
            permanent_failures=((3, 1), (6, 2)),
        )
        trainer, run = _train(small_graph, faults, epochs=12)
        assert len(run.epochs) == 12
        assert trainer.fault_counters.adoptions == 2
        assert trainer.engine.recovery.membership.alive_workers() == [0]


# ----------------------------------------------------------------------
# Rejoin
# ----------------------------------------------------------------------
class TestRejoin:
    def _cycle(self, graph, lose_at=3, back_at=7, victim=1, epochs=12):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            permanent_failures=((lose_at, victim),),
            rejoin_schedule=((back_at, victim),),
        )
        return _train(graph, faults, epochs=epochs)

    def test_rejoin_reclaims_original_partition(self, small_graph):
        trainer, run = self._cycle(small_graph)
        assert len(run.epochs) == 12
        reassigner = trainer.engine.recovery.reassigner
        membership = trainer.engine.recovery.membership
        assert membership.is_alive(1)
        assert membership.custodian[1] == 1
        np.testing.assert_array_equal(
            reassigner.assignment, reassigner.original
        )
        assert trainer.workers[1].num_local > 0
        counters = trainer.fault_counters
        assert counters.rejoins == 1
        assert counters.adoptions == 1

    def test_rejoin_timeline_names_the_custodian(self, small_graph):
        trainer, _ = self._cycle(small_graph)
        events = trainer.membership_events
        adopted = next(e for e in events if e["kind"] == "partition_adopted")
        reclaimed = next(
            e for e in events if e["kind"] == "partition_reclaimed"
        )
        assert reclaimed["reclaimed_from"] == [adopted["adopter"]]
        assert reclaimed["vertices"] == adopted["vertices"]

    def test_unscheduled_rejoin_is_ignored(self, small_graph):
        # Rejoin for a worker that never died: recorded, not applied.
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            rejoin_schedule=((4, 2),),
        )
        trainer, run = _train(small_graph, faults, epochs=8)
        assert len(run.epochs) == 8
        assert trainer.fault_counters.rejoins == 0
        assert "rejoin_ignored" in _event_kinds(trainer)


# ----------------------------------------------------------------------
# Interleavings: transient crashes x permanent losses (satellite)
# ----------------------------------------------------------------------
class TestCrashLossInterleavings:
    @pytest.mark.parametrize("crash_at,lose_at", [
        (3, 6),   # crash first, permanent loss later
        (6, 3),   # loss first, crash of a survivor later
        (5, 5),   # same epoch: crash recovery then membership change
    ], ids=["crash-then-loss", "loss-then-crash", "same-epoch"])
    def test_interleaving_survives(self, small_graph, crash_at, lose_at):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            crash_schedule=((crash_at, 2),),
            permanent_failures=((lose_at, 1),),
        )
        trainer, run = _train(small_graph, faults, epochs=12)
        assert len(run.epochs) == 12
        assert np.isfinite(run.epochs[-1].loss)
        counters = trainer.fault_counters
        assert counters.crashes == 1
        assert counters.permanent_failures == 1
        assert counters.adoptions == 1
        assert not trainer.engine.recovery.membership.is_alive(1)

    def test_crash_of_the_already_dead_worker_epoch(self, small_graph):
        # The same worker crashes (transient) and is then lost for good.
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            crash_schedule=((3, 1),),
            permanent_failures=((6, 1),),
        )
        trainer, run = _train(small_graph, faults, epochs=12)
        assert len(run.epochs) == 12
        assert trainer.fault_counters.crashes == 1
        assert trainer.fault_counters.adoptions == 1

    def test_interleaving_is_deterministic(self, small_graph):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            crash_schedule=((3, 2),), permanent_failures=((6, 1),),
            drop_prob=0.05,
        )
        _, r1 = _train(small_graph, faults)
        _, r2 = _train(small_graph, faults)
        assert [e.loss for e in r1.epochs] == [e.loss for e in r2.epochs]


# ----------------------------------------------------------------------
# Watchdog response through the engine
# ----------------------------------------------------------------------
class TestWatchdogResponse:
    def _elastic_trainer(self, graph, epochs=4, **faults_kw):
        faults = FaultConfig(enabled=True, elastic=True,
                             checkpoint_every=1, **faults_kw)
        return _train(graph, faults, epochs=epochs, obs=OBS)

    def test_nan_loss_triggers_rollback_and_escalation(self, small_graph):
        trainer, _ = self._elastic_trainer(small_graph)
        recovery = trainer.engine.recovery
        before = {
            name: trainer.servers.get(name).copy()
            for name in trainer.servers.parameter_names()
        }
        # Poison the live parameters, then feed the watchdog a NaN loss:
        # the response must restore the checkpointed values and escalate
        # every channel to the widest rung.
        for name in trainer.servers.parameter_names():
            trainer.servers.set(
                name, np.full_like(before[name], np.nan)
            )
        recovery.observe_convergence(4, float("nan"))
        counters = trainer.fault_counters
        assert counters.watchdog_trips == 1
        assert counters.watchdog_rollbacks == 1
        assert counters.watchdog_escalations > 0
        for name, value in before.items():
            np.testing.assert_array_equal(trainer.servers.get(name), value)
        kinds = _event_kinds(trainer)
        assert "watchdog_trip" in kinds
        assert "watchdog_rollback" in kinds
        assert "watchdog_escalation" in kinds

    def test_consecutive_trips_raise_divergence_error(self, small_graph):
        trainer, _ = self._elastic_trainer(small_graph)
        recovery = trainer.engine.recovery
        for t in range(4, 4 + MAX_CONSECUTIVE_ROLLBACKS - 1):
            recovery.observe_convergence(t, float("nan"))
        with pytest.raises(DivergenceError, match="watchdog exhausted"):
            recovery.observe_convergence(
                4 + MAX_CONSECUTIVE_ROLLBACKS - 1, float("nan")
            )

    def test_healthy_loss_never_trips(self, small_graph):
        trainer, run = self._elastic_trainer(small_graph, epochs=10)
        assert trainer.fault_counters.watchdog_trips == 0
        assert all(math.isfinite(e.loss) for e in run.epochs)

    def test_corruption_burst_arms_the_watchdog(self, small_graph):
        trainer, _ = self._elastic_trainer(
            small_graph, epochs=10, corrupt_prob=0.6,
        )
        assert trainer.fault_counters.corruptions > 0
        armed = [e for e in trainer.membership_events
                 if e["kind"] == "watchdog_armed"]
        assert armed and armed[0]["reason"] == "corruption_burst"
        assert armed[0]["corruptions"] >= WATCHDOG_BURST

    def test_metrics_mirror_watchdog_counters(self, small_graph):
        trainer, _ = self._elastic_trainer(small_graph)
        trainer.engine.recovery.observe_convergence(4, float("nan"))
        counters = trainer.fault_counters
        snap = trainer.obs.metrics.snapshot()
        assert snap.counter_total("watchdog_trips") == counters.watchdog_trips
        assert snap.counter_total("watchdog_rollbacks") == (
            counters.watchdog_rollbacks
        )
        assert snap.counter_total("watchdog_escalations") == (
            counters.watchdog_escalations
        )


# ----------------------------------------------------------------------
# Observability mirror: the report's timeline, metrics, Prometheus names
# ----------------------------------------------------------------------
class TestMembershipObservability:
    def _run(self, graph):
        faults = FaultConfig(
            enabled=True, elastic=True, checkpoint_every=1,
            permanent_failures=((3, 1),), rejoin_schedule=((7, 1),),
        )
        return _train(graph, faults, epochs=10, obs=OBS)

    def test_metrics_mirror_membership_counters(self, small_graph):
        trainer, run = self._run(small_graph)
        counters = trainer.fault_counters
        snap = run.telemetry.metrics
        assert snap.counter_total("membership_lost") == (
            counters.permanent_failures
        )
        assert snap.counter_total("membership_adoptions") == (
            counters.adoptions
        )
        assert snap.counter_total("membership_rejoins") == counters.rejoins
        assert counters.permanent_failures == 1
        assert counters.rejoins == 1

    def test_telemetry_carries_the_event_timeline(self, small_graph):
        trainer, run = self._run(small_graph)
        events = list(run.telemetry.membership_events)
        assert events == trainer.membership_events
        kinds = [e["kind"] for e in events]
        assert kinds[:2] == ["worker_lost", "partition_adopted"]
        assert "worker_rejoined" in kinds
        assert "partition_reclaimed" in kinds
        assert events[0]["epoch"] == 3
        assert run.telemetry.as_dict()["membership_events"] == events

    def test_prometheus_names_carry_the_ecgraph_prefix(self, small_graph):
        from repro.obs import metrics_to_prometheus

        trainer, run = self._run(small_graph)
        text = metrics_to_prometheus(run.telemetry.metrics)
        assert "ecgraph_membership_lost" in text
        assert "ecgraph_membership_adoptions" in text
        assert "ecgraph_membership_rejoins" in text

    def test_report_surfaces_membership_timeline(self, small_graph):
        from repro.obs.report import build_report, render_html, render_markdown

        trainer, run = self._run(small_graph)
        data = build_report(run)
        kinds = [e["kind"] for e in data["membership_events"]]
        assert "partition_adopted" in kinds
        assert "Membership timeline" in render_markdown(data)
        assert "Membership timeline" in render_html(data)

    def test_report_timeline_is_the_membership_view(self, small_graph):
        """On the lose-and-rejoin chaos scenario the report's timeline
        is exactly the MembershipView's — the one timeline, including
        the transitions only the view records."""
        from repro.faults.scenarios import build_scenario
        from repro.obs.report import build_report

        faults = build_scenario("lose-and-rejoin", 24, 3, seed=0)
        trainer, run = _train(small_graph, faults, epochs=24, obs=OBS)
        timeline = build_report(run)["membership_events"]
        assert timeline == trainer.membership_events
        kinds = {e["kind"] for e in timeline}
        assert {"worker_lost", "partition_adopted", "exchange_rebuilt",
                "worker_rejoined", "partition_reclaimed"} <= kinds


# ----------------------------------------------------------------------
# Checkpoint durability and the both-corrupt fail-fast (satellites)
# ----------------------------------------------------------------------
class TestCheckpointDurability:
    def test_save_fsyncs_file_and_directory(self, small_graph, tmp_path,
                                            monkeypatch):
        import os as os_module

        synced: list[int] = []
        real_fsync = os_module.fsync
        monkeypatch.setattr(
            "os.fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2), ECGraphConfig(),
        )
        save_checkpoint(trainer, tmp_path / "ckpt.npz", epoch=0)
        # One fsync for the temp file's contents, one for the directory
        # entry created by os.replace.
        assert len(synced) >= 2

    def test_save_survives_fsync_refusal_on_directory(
        self, small_graph, tmp_path, monkeypatch
    ):
        import os as os_module

        real_fsync = os_module.fsync

        def picky_fsync(fd):
            # Refuse directory handles the way some filesystems do.
            import stat

            if stat.S_ISDIR(os_module.fstat(fd).st_mode):
                raise OSError("fsync: invalid argument")
            real_fsync(fd)

        monkeypatch.setattr("os.fsync", picky_fsync)
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=2), ECGraphConfig(),
        )
        save_checkpoint(trainer, tmp_path / "ckpt.npz", epoch=0)
        assert (tmp_path / "ckpt.npz").exists()


class TestBothGenerationsCorrupt:
    def _trained(self, graph, tmp_path, epochs=4):
        faults = FaultConfig(enabled=True, checkpoint_every=1,
                             checkpoint_dir=str(tmp_path))
        return _train(graph, faults, epochs=epochs)

    def test_both_corrupt_raises_checkpoint_error(self, small_graph,
                                                  tmp_path):
        trainer, _ = self._trained(small_graph, tmp_path)
        assert (tmp_path / "latest.npz").exists()
        assert (tmp_path / "previous.npz").exists()
        (tmp_path / "latest.npz").write_bytes(b"garbage")
        (tmp_path / "previous.npz").write_bytes(b"garbage")
        recovery = trainer.engine.recovery
        recovery.param_snapshot = None  # no in-memory fallback either
        with pytest.raises(CheckpointError, match="every checkpoint"):
            recovery.restore_latest_checkpoint()
        assert trainer.fault_counters.corrupt_checkpoints == 2

    def test_single_corrupt_still_recovers(self, small_graph, tmp_path):
        trainer, _ = self._trained(small_graph, tmp_path)
        (tmp_path / "latest.npz").write_bytes(b"garbage")
        trainer.engine.recovery.param_snapshot = None
        assert trainer.engine.recovery.restore_latest_checkpoint()
        assert trainer.fault_counters.corrupt_checkpoints == 1

    def test_snapshot_rescues_corrupt_disk(self, small_graph, tmp_path):
        trainer, _ = self._trained(small_graph, tmp_path)
        (tmp_path / "latest.npz").write_bytes(b"garbage")
        (tmp_path / "previous.npz").write_bytes(b"garbage")
        # The in-memory snapshot still exists: restore must succeed.
        assert trainer.engine.recovery.restore_latest_checkpoint()

    def test_cli_maps_checkpoint_error_to_exit_2(self, capsys, monkeypatch):
        import repro.__main__ as cli

        def explode(*args, **kwargs):
            raise CheckpointError(
                "cannot restore parameters: every checkpoint generation "
                "in /ckpts is corrupt (latest.npz, previous.npz) and no "
                "in-memory snapshot exists"
            )

        monkeypatch.setattr(cli, "load_dataset", explode)
        code = cli.main(["--profile", "tiny", "train", "--epochs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot restore parameters")
        assert "Traceback" not in err


# ----------------------------------------------------------------------
# Chaos scenario acceptance
# ----------------------------------------------------------------------
class TestElasticChaosAcceptance:
    @pytest.mark.parametrize("scenario,losses,rejoins", [
        ("worker-loss", 1, 0),
        ("cascading-loss", 2, 0),
        ("lose-and-rejoin", 1, 1),
    ])
    def test_scenario_survives_within_two_points(
        self, small_graph, scenario, losses, rejoins
    ):
        """ISSUE acceptance: permanent losses must complete every epoch
        with final accuracy within 2 points of the fault-free twin."""
        report = run_chaos(
            small_graph, scenario, num_workers=3, num_epochs=24, seed=0,
        )
        assert report.survived
        assert report.counters.permanent_failures == losses
        assert report.counters.adoptions == losses
        assert report.counters.rejoins == rejoins
        assert report.accuracy_gap <= 0.02
        assert report.slowdown >= 1.0
        kinds = [e["kind"] for e in report.membership_events]
        assert kinds.count("worker_lost") == losses
        assert kinds.count("partition_adopted") == losses

    def test_report_round_trips_membership_events(self, small_graph):
        report = run_chaos(
            small_graph, "worker-loss", num_workers=3, num_epochs=12,
            seed=0,
        )
        payload = report.as_dict()
        assert payload["counters"]["permanent_failures"] == 1
        assert payload["membership_events"] == [
            dict(e) for e in report.membership_events
        ]
