"""The ``repro report`` renderer: build_report and both formats.

Renders one instrumented run (and one un-instrumented run — the
summary must still come out) and asserts the sections the CI smoke
check depends on: all five engine stages present, the waterfall keyed
by channel, and the HTML artifact self-contained with a parseable
embedded JSON payload.
"""

import json

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig
from repro.obs import ENGINE_STAGES, ObsConfig
from repro.obs.report import (
    _fmt_bytes,
    build_report,
    missing_stages,
    render_html,
    render_markdown,
    write_report,
)


def _trainer(graph, obs, **overrides):
    config = ECGraphConfig(seed=1, obs=obs, **overrides)
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=8),
        ClusterSpec(num_workers=4, workers_per_machine=2), config,
    )


@pytest.fixture(scope="module")
def instrumented(small_graph_module):
    trainer = _trainer(small_graph_module, ObsConfig(enabled=True))
    return trainer.train(3)


@pytest.fixture(scope="module")
def small_graph_module():
    from repro.graph.generators import GraphSpec
    from repro.graph.streaming import stream_graph
    return stream_graph(GraphSpec(
        name="unit-small", num_vertices=96, avg_degree=6.0, feature_dim=12,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=40, val=16, test=32, seed=7,
    ))


class TestResidentBuffers:
    def test_workspace_gauges_reach_the_report(self, instrumented):
        metrics = instrumented.telemetry.metrics
        data = build_report(instrumented)
        assert sorted(data["resources"]) == ["0", "1", "2", "3"]
        for worker, held in data["resources"].items():
            planned = metrics.gauge("workspace_planned_bytes", worker=worker)
            total = metrics.gauge("workspace_bytes", worker=worker)
            first = metrics.gauge("first_aggregate_bytes", worker=worker)
            assert held == {
                "workspace_planned_bytes": planned,
                "workspace_bytes": total, "first_aggregate_bytes": first,
                "feature_bytes": metrics.gauge("feature_bytes", worker=worker),
                "csr_bytes": metrics.gauge("csr_bytes", worker=worker),
                "trend_table_bytes": metrics.gauge(
                    "trend_table_bytes", worker=worker),
                "residual_bytes": metrics.gauge(
                    "residual_bytes", worker=worker),
            }
            # After the first iteration the inline workers hold it all,
            # and the cached GCN path no feature rows.
            assert 0 < first < total == planned
            assert held["feature_bytes"] == 0
            assert held["csr_bytes"] > 0
        markdown, html = render_markdown(data), render_html(data)
        assert "## Resident buffers" in markdown
        assert ("| worker | planned workspaces | resident workspaces "
                "| first-layer aggregate | feature rows | adjacency rows "
                "| trend tables | ResEC residuals |") in markdown
        assert "<h2>Resident buffers</h2>" in html
        assert ("<th>planned workspaces</th><th>resident workspaces</th>"
                in html)

    def test_planned_and_resident_columns_differ_before_kernels_run(
        self, small_graph_module
    ):
        """The gauges are read at the start of an iteration: at the first
        one only the shared slots exist, the kernel-private ones do not
        yet, and the table shows both numbers."""
        data = build_report(
            _trainer(small_graph_module, ObsConfig(enabled=True)).train(1)
        )
        markdown, html = render_markdown(data), render_html(data)
        for worker, held in data["resources"].items():
            planned = held["workspace_planned_bytes"]
            resident = held["workspace_bytes"]
            assert 0 < resident < planned
            row = (worker, _fmt_bytes(planned), _fmt_bytes(resident))
            assert f"| {' | '.join(row)} |" in markdown
            assert "".join(f"<td>{cell}</td>" for cell in row) in html

    def test_gauges_are_what_the_workspaces_hold(self, small_graph_module):
        trainer = _trainer(small_graph_module, ObsConfig(enabled=True))
        trainer.train(2)
        snapshot = trainer.obs.metrics.snapshot()
        for state in trainer.workers:
            w = state.worker_id
            held = trainer.engine.ctx.workspaces.held(w)
            assert snapshot.gauge("workspace_bytes", worker=w) == held.resident
            assert snapshot.gauge(
                "workspace_planned_bytes", worker=w
            ) == held.planned
            assert snapshot.gauge("first_aggregate_bytes", worker=w) == (
                state.num_local * 12 * 4
            )

    def test_uninstrumented_run_has_no_table(self, small_graph_module):
        run = _trainer(small_graph_module, ObsConfig()).train(1)
        data = build_report(run)
        assert data["resources"] == {}
        assert "Resident buffers" not in render_markdown(data)


class TestBuildReport:
    def test_sections_populated(self, instrumented):
        data = build_report(instrumented)
        assert data["summary"]["epochs"] == 3
        assert data["summary"]["total_bytes"] > 0
        assert len(data["loss_curve"]) == 3
        assert set(data["stages"]) == set(ENGINE_STAGES)
        assert data["coverage"] > 0.5
        assert data["channels"]
        assert set(data["directions"]) >= {"fp", "bp"}
        assert data["health"] is not None
        assert data["dropped_spans"] == 0

    def test_epoch_kinds_partition_the_stage_totals(
        self, small_graph_module
    ):
        """Regular + boundary stage totals add up to the stage totals;
        the split follows T_tr for ReqEC-FP and is all-regular without."""
        run = _trainer(
            small_graph_module, ObsConfig(enabled=True), trend_period=2
        ).train(5)  # boundaries at t = 1, 3
        data = build_report(run)
        regular, boundary = (
            data["epoch_kinds"][kind] for kind in ("regular", "boundary")
        )
        for stage, total in data["stages"].items():
            assert regular[stage]["count"] == 3
            assert boundary[stage]["count"] == 2
            for field in ("bytes_sent", "messages"):
                assert regular[stage][field] + boundary[stage][field] == (
                    total[field]
                )
        per_epoch = lambda agg: agg["bytes_sent"] / agg["count"]  # noqa: E731
        assert per_epoch(boundary["forward"]) > per_epoch(regular["forward"])

        raw = _trainer(
            small_graph_module, ObsConfig(enabled=True), trend_period=2,
            fp_mode="raw",
        ).train(4)
        kinds = build_report(raw)["epoch_kinds"]
        assert kinds["boundary"] == {}
        assert kinds["regular"]["forward"]["count"] == 4

    def test_no_engine_stage_missing(self, instrumented):
        assert missing_stages(build_report(instrumented)) == []

    def test_channel_keys_are_human_readable(self, instrumented):
        data = build_report(instrumented)
        for ch in data["channels"]:
            responder_consumer, layer, direction = ch["channel"].split("/")
            assert "->" in responder_consumer
            assert layer.startswith("L")
            assert direction in {"fp", "bp"}

    def test_is_json_serializable(self, instrumented):
        data = build_report(instrumented)
        assert json.loads(json.dumps(data, sort_keys=True)) == data

    def test_uninstrumented_run_still_summarizes(self, small_graph_module):
        run = _trainer(small_graph_module, ObsConfig()).train(2)
        data = build_report(run)
        assert run.telemetry is None
        assert data["summary"]["epochs"] == 2
        assert data["stages"] == {}
        assert data["channels"] == []
        assert missing_stages(data) == list(ENGINE_STAGES)

    def test_fault_counters_surface(self, small_graph_module):
        trainer = _trainer(
            small_graph_module, ObsConfig(enabled=True),
            faults=FaultConfig(enabled=True, seed=5, drop_prob=0.3,
                               max_retries=1),
        )
        data = build_report(trainer.train(3))
        assert data["faults"].get("fault_retries", 0) > 0
        assert "fault_degraded" in data["faults"]


class TestMarkdown:
    def test_contains_stage_table(self, instrumented):
        text = render_markdown(build_report(instrumented))
        assert text.startswith("# Epoch report:")
        assert "## Stage timeline" in text
        for stage in ENGINE_STAGES:
            assert f"| {stage} |" in text
        assert "## Bandwidth waterfall" in text
        assert "## Compression frontier" in text

    def test_uninstrumented_markdown_renders(self, small_graph_module):
        run = _trainer(small_graph_module, ObsConfig()).train(2)
        text = render_markdown(build_report(run))
        assert "## Run summary" in text
        assert "## Stage timeline" not in text


class TestHtml:
    def test_self_contained_document(self, instrumented):
        text = render_html(build_report(instrumented))
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text
        # No external assets: one file must open anywhere.
        assert "http://" not in text and "https://" not in text
        for stage in ENGINE_STAGES:
            assert f"<td>{stage}</td>" in text

    def test_embedded_json_payload_round_trips(self, instrumented):
        data = build_report(instrumented)
        text = render_html(data)
        marker = "<script type='application/json' id='report-data'>"
        start = text.index(marker) + len(marker)
        end = text.index("</script>", start)
        assert json.loads(text[start:end]) == data


class TestWriteReport:
    def test_writes_both_formats(self, instrumented, tmp_path):
        html = write_report(instrumented, tmp_path / "html")
        md = write_report(instrumented, tmp_path / "md", fmt="markdown")
        assert html["epoch_report.html"].read_text().startswith(
            "<!DOCTYPE html>"
        )
        assert md["epoch_report.md"].read_text().startswith(
            "# Epoch report:"
        )

    def test_writes_the_telemetry_exports_beside_it(
        self, instrumented, tmp_path
    ):
        paths = write_report(instrumented, tmp_path)
        assert sorted(paths) == sorted(p.name for p in tmp_path.iterdir())
        assert sorted(paths) == [
            "epoch_report.html", "metrics.jsonl", "metrics.prom",
            "spans.jsonl", "telemetry.json", "trace.json",
        ]
        tel = instrumented.telemetry
        assert json.loads(paths["telemetry.json"].read_text()) == json.loads(
            json.dumps(tel.as_dict())
        )
        spans = paths["spans.jsonl"].read_text().splitlines()
        assert len(spans) == tel.num_spans
        # One snapshot per epoch, then the lifetime total.
        records = paths["metrics.jsonl"].read_text().splitlines()
        assert len(records) == instrumented.num_epochs + 1
        assert json.loads(records[-1])["scope"] == "total"

    def test_uninstrumented_run_gets_the_report_alone(
        self, small_graph_module, tmp_path
    ):
        run = _trainer(small_graph_module, ObsConfig()).train(1)
        assert list(write_report(run, tmp_path)) == ["epoch_report.html"]

    def test_rejects_unknown_format(self, instrumented, tmp_path):
        with pytest.raises(ValueError):
            write_report(instrumented, tmp_path, fmt="pdf")


class TestSections:
    """One list of sections, rendered three ways."""

    def test_every_section_reaches_every_format(self, small_graph_module):
        """A run that crosses a trend boundary: each section's title and
        each table row's first cell show in the text, the markdown and
        the HTML rendering alike."""
        import html

        from repro.obs.report import render_text, report_sections

        data = build_report(_trainer(
            small_graph_module, ObsConfig(enabled=True), trend_period=2,
        ).train(3))
        sections = report_sections(data)
        text, markdown, page = (
            render_text(data), render_markdown(data), render_html(data)
        )
        titles = [section.title for section in sections]
        assert "Regular vs trend-boundary epochs" in titles
        assert "Telemetry: wall time by phase" in titles
        assert "Telemetry: inter-machine traffic" in titles
        for section in sections:
            assert section.title in text
            assert f"## {section.title}\n" in markdown
            assert f"<h2>{html.escape(section.title)}</h2>" in page
            for row in section.rows:
                assert len(row) == len(section.headers)
                assert row[0] in text
                assert f"| {row[0]} |" in markdown
                assert f"<td>{html.escape(row[0])}</td>" in page
        kinds = next(s for s in sections if s.headers[:2] == (
            "direction", "epoch kind"))
        assert {row[1] for row in kinds.rows} == {"regular", "boundary"}

    def test_payload_survives_a_hostile_run_name(self, small_graph_module):
        name = "float16 </script><b>x</b>"
        data = build_report(_trainer(
            small_graph_module, ObsConfig(enabled=True),
        ).train(1, name=name))
        text = render_html(data)
        assert text.count("<script") == 1
        marker = "<script type='application/json' id='report-data'>"
        start = text.index(marker) + len(marker)
        end = text.index("</script>", start)
        assert json.loads(text[start:end]) == data
        assert json.loads(text[start:end])["name"] == name

    def test_epoch_kinds_follow_the_policy_not_the_config(
        self, small_graph_module
    ):
        """``fp_policy=`` replaces the config's ReqEC-FP: the run has no
        trend boundaries, whatever ``trend_period`` says."""
        from repro.core.policies import Float16Policy

        trainer = ECGraphTrainer(
            small_graph_module, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=4, workers_per_machine=2),
            ECGraphConfig(seed=1, obs=ObsConfig(enabled=True),
                          trend_period=2),
            fp_policy=Float16Policy(),
        )
        run = trainer.train(4)
        assert run.meta["trend_period"] is None
        kinds = build_report(run)["epoch_kinds"]
        assert kinds["boundary"] == {}
        assert kinds["regular"]["forward"]["count"] == 4
