"""Stage timeline profiler: unit attribution plus engine integration.

Unit tests drive the profiler the way the engine does — through
:meth:`Telemetry.epoch` / :meth:`Telemetry.stage` — against a real
:class:`~repro.cluster.engine.ClusterRuntime` with hand-charged compute
and traffic, so the attribution claims (straggler worker, bottleneck
link, meter-exact byte deltas) are checked against known inputs.
Integration tests assert the staged engine profiles all five pipeline
stages per epoch with near-airtight wall coverage, each stage timed
once by its span.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.cluster.engine import ClusterRuntime
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.obs import (
    ENGINE_STAGES,
    NULL_TELEMETRY,
    ObsConfig,
    StageProfile,
    Telemetry,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _runtime(**spec_overrides) -> ClusterRuntime:
    spec = dict(num_workers=4, workers_per_machine=2)
    spec.update(spec_overrides)
    return ClusterRuntime(ClusterSpec(**spec))


def _trainer(graph, obs, **overrides):
    config = ECGraphConfig(seed=1, obs=obs, **overrides)
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=4, workers_per_machine=2), config,
    )


def _profile_one(runtime, stage, body, t=0) -> Telemetry:
    """One epoch holding one stage; ``body`` charges the runtime."""
    tel = Telemetry(ObsConfig(enabled=True))
    with tel.epoch(t, runtime):
        with tel.stage(stage, t):
            body()
        runtime.end_epoch()
    return tel


class TestComputeAttribution:
    def test_compute_deltas_match_charges(self):
        runtime = _runtime()

        def charge():
            runtime.add_compute(0, 0.5)
            runtime.add_compute(2, 2.0)

        tel = _profile_one(runtime, "forward", charge)
        (timeline,) = tel.profiler.profile().epochs
        (sample,) = timeline.samples
        assert sample.stage == "forward"
        assert sample.compute_seconds == pytest.approx((0.5, 0.0, 2.0, 0.0))
        assert sample.bottleneck_worker == 2
        assert sample.max_compute_seconds == pytest.approx(2.0)
        assert sample.wall_seconds > 0

    def test_heterogeneous_speeds_pick_the_slow_worker(self):
        # Equal raw seconds; worker 0 runs at 1x, worker 1 at 4x, so
        # worker 0's barrier time is 4x longer and it is the straggler.
        runtime = _runtime(
            num_workers=2, workers_per_machine=1, worker_speeds=(1.0, 4.0)
        )

        def charge():
            runtime.add_compute(0, 1.0)
            runtime.add_compute(1, 1.0)

        tel = _profile_one(runtime, "backward", charge)
        (sample,) = tel.profiler.profile().epochs[0].samples
        assert sample.compute_seconds == pytest.approx((1.0, 0.25))
        assert sample.bottleneck_worker == 0

    def test_no_compute_means_no_straggler(self):
        tel = _profile_one(_runtime(), "halo_plan", lambda: None)
        (sample,) = tel.profiler.profile().epochs[0].samples
        assert sample.bottleneck_worker is None
        assert sample.comm_seconds == 0.0
        assert sample.bytes_sent == 0
        assert sample.messages == 0


class TestCommAttribution:
    def test_traffic_delta_matches_meter_arithmetic(self):
        # 6 workers / 3 machines: 0->2 and 2->4 cross machine
        # boundaries, 0->1 stays local (free and invisible).
        runtime = _runtime(num_workers=6)
        network = runtime.spec.network

        def send():
            runtime.send_worker_to_worker(0, 2, 1000, "fp_embeddings")
            runtime.send_worker_to_worker(2, 4, 4000, "fp_embeddings")
            runtime.send_worker_to_worker(0, 1, 9999, "fp_embeddings")

        tel = _profile_one(runtime, "forward", send)
        (sample,) = tel.profiler.profile().epochs[0].samples
        # Send-side bytes only (each wire message charged at its source).
        assert sample.bytes_sent == 5000
        assert sample.messages == 2  # wire messages, not endpoint events
        # Machine 1 both received 1000 and sent 4000 (2 endpoint
        # events); its 4000-byte send direction is the busiest link.
        expected = network.link_busy_seconds(4000, 1000, 2)
        assert sample.comm_seconds == pytest.approx(expected)
        assert sample.bottleneck_machine == 1

    def test_stage_deltas_are_independent(self):
        runtime = _runtime()
        tel = Telemetry(ObsConfig(enabled=True))
        with tel.epoch(0, runtime):
            with tel.stage("forward", 0):
                runtime.send_worker_to_worker(0, 2, 100, "fp_embeddings")
            with tel.stage("backward", 0):
                runtime.send_worker_to_worker(2, 0, 300, "bp_gradients")
            runtime.end_epoch()

        forward, backward = tel.profiler.profile().epochs[0].samples
        assert forward.bytes_sent == 100
        assert backward.bytes_sent == 300
        assert forward.messages == backward.messages == 1


class TestProfileAggregation:
    def _two_epochs(self) -> StageProfile:
        runtime = _runtime()
        tel = Telemetry(ObsConfig(enabled=True))
        for t in range(2):
            with tel.epoch(t, runtime):
                with tel.stage("forward", t):
                    runtime.add_compute(1, 1.0)
                with tel.stage("backward", t):
                    runtime.add_compute(3, 2.0)
                    runtime.send_worker_to_worker(3, 0, 500, "bp_gradients")
                runtime.end_epoch()
        return tel.profiler.profile()

    def test_stage_totals_in_pipeline_order(self):
        profile = self._two_epochs()
        totals = profile.stage_totals()
        assert list(totals) == ["forward", "backward"]
        assert totals["forward"]["count"] == 2
        assert totals["forward"]["compute_seconds"] == pytest.approx(2.0)
        assert totals["backward"]["bytes_sent"] == 1000
        assert totals["backward"]["messages"] == 2

    def test_straggler_counts(self):
        profile = self._two_epochs()
        assert profile.straggler_counts() == {1: 2, 3: 2}

    def test_epoch_timeline_envelope(self):
        profile = self._two_epochs()
        assert [t.epoch for t in profile.epochs] == [0, 1]
        for timeline in profile.epochs:
            assert timeline.critical_stage() in {"forward", "backward"}
            assert timeline.modelled_seconds > 0
            assert 0.0 < timeline.coverage <= 1.0 + 1e-9

    def test_as_dict_is_json_serializable(self):
        profile = self._two_epochs()
        data = json.loads(json.dumps(profile.as_dict()))
        assert data["stage_totals"]["backward"]["bytes_sent"] == 1000
        assert data["straggler_counts"] == {"1": 2, "3": 2}
        assert len(data["epochs"]) == 2

    def test_reset_drops_everything(self):
        tel = _profile_one(_runtime(), "forward", lambda: None)
        tel.reset()
        assert tel.profiler.profile().epochs == ()

    def test_empty_profile_is_safe(self):
        profile = StageProfile()
        assert profile.coverage() == 0.0
        assert profile.stage_totals() == {}
        assert profile.straggler_counts() == {}


class TestOneClock:
    def test_stage_wall_is_its_span_duration(self):
        """The sample's wall time and the span's duration are the same
        measurement, not two clocks read back to back."""
        runtime = _runtime()
        tel = Telemetry(ObsConfig(enabled=True))
        for t in range(2):
            with tel.epoch(t, runtime):
                for stage in ENGINE_STAGES:
                    with tel.stage(stage, t):
                        runtime.add_compute(0, 0.1)
                runtime.end_epoch()
        spans = tel.tracer.spans
        for timeline in tel.profiler.profile().epochs:
            (epoch_span,) = [
                s for s in spans
                if s.name == "epoch" and s.attrs["epoch"] == timeline.epoch
            ]
            assert timeline.wall_seconds == epoch_span.duration_s
            stage_spans = [s for s in spans if s.parent == epoch_span.index]
            assert [s.duration_s for s in stage_spans] == [
                s.wall_seconds for s in timeline.samples
            ]

    def test_a_failed_epoch_freezes_no_timeline(self):
        runtime = _runtime()
        tel = Telemetry(ObsConfig(enabled=True))
        with pytest.raises(RuntimeError):
            with tel.epoch(0, runtime):
                with tel.stage("forward", 0):
                    raise RuntimeError("boom")
        assert tel.profiler.profile().epochs == ()
        # The span itself is still recorded, like any other.
        assert [s.name for s in tel.tracer.spans] == ["forward", "epoch"]

    def test_epoch_that_closes_no_runtime_epoch_has_no_modelled_time(self):
        """An envelope the runtime closed no epoch inside gets 0.0, not
        the modelled time of the epoch before it."""
        runtime = _runtime()
        tel = Telemetry(ObsConfig(enabled=True))
        with tel.epoch(0, runtime):
            runtime.add_compute(0, 1.0)
            runtime.end_epoch()
        with tel.epoch(1, runtime):
            runtime.add_compute(0, 1.0)
        first, second = tel.profiler.profile().epochs
        assert first.modelled_seconds > 0
        assert second.modelled_seconds == 0.0

    def test_disabled_contexts_are_one_shared_noop(self):
        epoch = NULL_TELEMETRY.epoch(0, None)
        assert NULL_TELEMETRY.stage("forward", 0) is epoch
        with epoch, NULL_TELEMETRY.stage("eval", 0):
            pass
        assert NULL_TELEMETRY.profiler is None
        assert NULL_TELEMETRY.report().profile is None

    def test_profiler_module_imports_no_clock(self):
        tree = ast.parse((SRC / "obs" / "profiler.py").read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } | {
            node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        }
        assert not imported & {"time", "monotonic_now", "perf_counter"}

    def test_engine_opens_each_stage_with_one_context(self):
        tree = ast.parse((SRC / "engine" / "core.py").read_text())
        run_epoch = next(
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_run_epoch"
        )
        stages = [
            node for node in ast.walk(run_epoch)
            if isinstance(node, ast.With)
            and "obs.stage(" in ast.unparse(node.items[0])
        ]
        assert [ast.unparse(w.items[0].context_expr) for w in stages] == [
            f"obs.stage('{stage}', t)" for stage in ENGINE_STAGES
        ]
        assert all(len(w.items) == 1 for w in stages)


class TestEngineIntegration:
    @pytest.fixture
    def profiled_run(self, small_graph):
        trainer = _trainer(small_graph, ObsConfig(enabled=True))
        run = trainer.train(3)
        return trainer, run

    def test_every_epoch_profiles_all_five_stages(self, profiled_run):
        _, run = profiled_run
        profile = run.telemetry.profile
        assert profile is not None
        assert len(profile.epochs) == 3
        for timeline in profile.epochs:
            assert tuple(s.stage for s in timeline.samples) == ENGINE_STAGES

    def test_stage_walls_cover_the_epoch(self, profiled_run):
        _, run = profiled_run
        profile = run.telemetry.profile
        # The five stages should account for nearly all of the epoch
        # envelope; the remainder is end_epoch bookkeeping and timer
        # jitter. Gate the *best* epoch: a scheduler hiccup in the gap
        # between stages of a sub-millisecond envelope only lowers
        # coverage, so the least-disturbed epoch is the honest one, and
        # 0.90 sits deliberately below the ~0.95 typically seen.
        assert max(t.coverage for t in profile.epochs) >= 0.90
        for timeline in profile.epochs:
            assert timeline.stage_wall_seconds <= timeline.wall_seconds + 1e-9

    def test_halo_traffic_lands_in_forward_and_backward(self, profiled_run):
        _, run = profiled_run
        totals = run.telemetry.profile.stage_totals()
        assert totals["forward"]["bytes_sent"] > 0
        assert totals["backward"]["bytes_sent"] > 0
        # Planning and optimize put nothing on the worker-worker wire
        # (optimize traffic is push/pull, which this config routes
        # through the same epoch, so just check plan stays silent).
        assert totals["halo_plan"]["bytes_sent"] == 0

    def test_modelled_seconds_track_epoch_breakdowns(self, profiled_run):
        trainer, run = profiled_run
        history = trainer.runtime.epoch_history
        profile = run.telemetry.profile
        modelled = [t.modelled_seconds for t in profile.epochs]
        assert modelled == [b.total_seconds for b in history[:3]]

    def test_epoch_span_is_the_envelope(self, profiled_run):
        trainer, run = profiled_run
        epochs = [s for s in trainer.obs.tracer.spans if s.name == "epoch"]
        assert [t.wall_seconds for t in run.telemetry.profile.epochs] == [
            s.duration_s for s in epochs
        ]
