"""Integration tests: telemetry wired through a real training run.

The two contract properties: enabling telemetry must not change the
training computation (identical loss curve), and the mirrored byte
counters must agree with the traffic meter byte-for-byte.
"""

import dataclasses
import json

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend
from repro.faults import FaultConfig
from repro.obs import ObsConfig
from repro.obs.report import write_report


def _trainer(graph, obs, **overrides):
    config = ECGraphConfig(seed=1, obs=obs, **overrides)
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=4, workers_per_machine=2), config,
    )


@pytest.fixture
def instrumented_run(small_graph):
    trainer = _trainer(small_graph, ObsConfig(enabled=True))
    run = trainer.train(3)
    return trainer, run


class TestNoBehaviourChange:
    def test_loss_curve_identical(self, small_graph):
        run_off = _trainer(small_graph, ObsConfig()).train(3)
        run_on = _trainer(small_graph, ObsConfig(enabled=True)).train(3)
        assert [e.loss for e in run_on.epochs] == [
            e.loss for e in run_off.epochs
        ]
        assert [e.test_accuracy for e in run_on.epochs] == [
            e.test_accuracy for e in run_off.epochs
        ]
        # Same wire bytes too: the profiler and ledger only observe.
        assert run_on.total_bytes() == run_off.total_bytes()

    def test_disabled_run_attaches_nothing(self, small_graph):
        run = _trainer(small_graph, ObsConfig()).train(2)
        assert run.telemetry is None
        assert all(e.telemetry is None for e in run.epochs)


class TestSpans:
    def test_layer_spans_nest_inside_epoch(self, instrumented_run):
        trainer, _ = instrumented_run
        spans = trainer.obs.tracer.spans
        epochs = [s for s in spans if s.name == "epoch"]
        layers = [s for s in spans if s.name == "layer"]
        assert epochs and layers
        for epoch_span in epochs:
            inside = [
                s for s in layers
                if s.start_s >= epoch_span.start_s
                and s.start_s + s.duration_s
                <= epoch_span.start_s + epoch_span.duration_s + 1e-9
            ]
            # 2 forward + 2 backward layer spans per 2-layer iteration.
            assert len(inside) == 4
            assert sum(s.duration_s for s in inside) \
                <= epoch_span.duration_s + 1e-9

    def test_expected_phases_present(self, instrumented_run):
        _, run = instrumented_run
        assert set(run.telemetry.phase_totals) >= {
            "epoch", "halo_plan", "forward", "backward", "optimize",
            "eval", "layer", "kernel", "halo_exchange", "encode",
            "decode", "loss", "param_pull", "param_push", "server_apply",
        }

    def test_epoch_encloses_every_stage_recovery_and_checkpoint(
        self, small_graph
    ):
        """``epoch`` is the only root span: the five stages, crash
        recovery and the end-of-epoch checkpoint all nest directly in
        it (``eval`` and ``checkpoint`` used to open as roots)."""
        trainer = _trainer(
            small_graph, ObsConfig(enabled=True),
            faults=FaultConfig(enabled=True, checkpoint_every=1,
                               crash_schedule=((1, 0),)),
        )
        trainer.train(2)
        spans = trainer.obs.tracer.spans
        roots = [s for s in spans if s.parent == -1]
        assert [s.name for s in roots] == ["epoch", "epoch"]
        epochs = {s.index: s.attrs["epoch"] for s in roots}
        children = {t: [] for t in epochs.values()}
        for span in spans:
            if span.parent in epochs:
                children[epochs[span.parent]].append(span.name)
        assert children == {
            0: ["halo_plan", "forward", "backward", "optimize",
                "checkpoint", "eval"],
            1: ["recovery", "halo_plan", "forward", "backward", "optimize",
                "checkpoint", "eval"],
        }

    def test_nothing_dropped(self, instrumented_run):
        _, run = instrumented_run
        assert run.telemetry.dropped_spans == 0
        assert run.telemetry.num_spans > 0


class TestMetricsMatchMeter:
    def test_comm_bytes_exactly_match_meter(self, instrumented_run):
        trainer, run = instrumented_run
        meter = trainer.runtime.meter
        snap = run.telemetry.metrics
        assert snap.counter_total("comm_bytes") == meter.total_bytes
        assert snap.counter_total("comm_messages") == meter.total_messages
        for category, nbytes in meter.snapshot().category_bytes.items():
            assert snap.counter("comm_bytes", category=category) == nbytes

    def test_epoch_snapshots_sum_to_lifetime(self, instrumented_run):
        _, run = instrumented_run
        per_epoch = sum(
            e.telemetry.counter_total("comm_bytes") for e in run.epochs
        )
        lifetime = run.telemetry.metrics.counter_total("comm_bytes")
        # Lifetime additionally covers setup traffic (feature cache).
        setup = run.telemetry.metrics.counter(
            "comm_bytes", category="feature_cache"
        )
        assert per_epoch + setup == lifetime

    def test_worker_topology_gauges(self, instrumented_run):
        _, run = instrumented_run
        gauges = run.telemetry.metrics
        total_local = sum(
            gauges.gauge("worker_local_vertices", worker=w) for w in range(4)
        )
        assert total_local == 96  # small_graph vertex count


class TestTraceExport:
    def test_chrome_trace_from_run_is_valid(self, instrumented_run, tmp_path):
        _, run = instrumented_run
        paths = write_report(run, tmp_path)
        doc = json.loads(paths["trace.json"].read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert len(events) == run.telemetry.num_spans
        for event in events:
            assert {"name", "ph", "ts", "dur"} <= event.keys()

    def test_health_report_attached(self, instrumented_run):
        _, run = instrumented_run
        health = run.telemetry.health
        assert health is not None
        # ReqEC-FP ran, so the selector tallied every halo element.
        assert sum(health.candidate_fractions.values()) == pytest.approx(1.0)
        # ResEC-BP recorded residuals for the backward layers.
        assert health.residual_checks


class TestSamplingMode:
    def test_sampling_span_recorded(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=2),
            ECGraphConfig(
                fp_mode="compress", bp_mode="resec", seed=1,
                obs=ObsConfig(enabled=True),
            ),
            backend=SampledGCNBackend([4, 4], online=True),
        )
        run = trainer.train(2)
        assert "sampling" in run.telemetry.phase_totals
        assert run.telemetry.metrics.counter("resamples") == 2


class TestObsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(max_spans=0)

    def test_one_switch(self):
        assert [f.name for f in dataclasses.fields(ObsConfig)] == [
            "enabled", "max_spans",
        ]

    def test_enabled_turns_every_collector_on(self, instrumented_run):
        _, run = instrumented_run
        tel = run.telemetry
        assert tel.num_spans > 0
        assert tel.health is not None
        assert tel.profile is not None and tel.profile.epochs
        assert tel.ledger is not None and tel.ledger.channels
        assert tel.metrics.counter_total("comm_bytes") > 0
        assert all(e.telemetry is not None for e in run.epochs)
