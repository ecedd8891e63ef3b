"""Unit tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.system == "ecgraph"
        assert args.dataset == "cora"
        assert args.workers == 6

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--system", "spark"])

    def test_profile_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--profile", "huge", "datasets"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "mixed"
        assert args.max_accuracy_gap == pytest.approx(0.02)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "meteor-strike"])

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.system == "ecgraph"
        assert args.format == "html"
        assert args.out == "reports"
        assert not args.smoke

    def test_report_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--format", "pdf"])

    def test_trace_command_is_gone(self, capsys):
        """``repro report`` is the one telemetry command."""
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--smoke"])
        assert exc.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["--profile", "tiny", "datasets"]) == 0
        out = capsys.readouterr().out
        assert "cora" in out and "ogbn-papers" in out
        assert "111,059,956" in out  # paper statistics shown

    def test_train(self, capsys):
        code = main([
            "--profile", "tiny", "train", "--dataset", "cora",
            "--workers", "2", "--epochs", "5", "--hidden", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best acc" in out

    def test_compare(self, capsys):
        code = main([
            "--profile", "tiny", "compare", "--dataset", "cora",
            "--systems", "ecgraph", "noncp",
            "--workers", "2", "--epochs", "5", "--hidden", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ecgraph" in out and "noncp" in out

    def test_partition(self, capsys):
        code = main([
            "--profile", "tiny", "partition", "--dataset", "cora",
            "--workers", "3", "--methods", "hash", "metis",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out

    def test_report_smoke_writes_every_artifact(self, capsys, tmp_path):
        import json

        code = main(["report", "--smoke", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry: wall time by phase" in out
        assert "Compression health" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "epoch_report.html", "metrics.jsonl", "metrics.prom",
            "spans.jsonl", "telemetry.json", "trace.json",
        ]
        doc = json.loads((tmp_path / "trace.json").read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "dur"} <= event.keys()
        report = json.loads((tmp_path / "telemetry.json").read_text())
        assert report["metrics"]["scope"] == "total"
        assert report["health"] is not None

    def test_report_smoke_span_names_pinned(self, capsys, tmp_path):
        """Regression pin: the exact span vocabulary of a plain
        instrumented run. A missing name means a stage lost its span;
        a new name means the trace docs need updating."""
        import json

        assert main(["report", "--smoke", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        names = {
            json.loads(line)["name"]
            for line in (tmp_path / "spans.jsonl").read_text().splitlines()
        }
        assert names == {
            "epoch", "halo_plan", "forward", "backward", "optimize",
            "eval", "layer", "kernel", "loss", "halo_exchange",
            "encode", "decode", "param_pull", "param_push",
            "server_apply",
        }

    def test_report_smoke_writes_metric_exports(self, capsys, tmp_path):
        import json

        assert main(["report", "--smoke", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE ecgraph_comm_bytes counter" in prom
        assert "ecgraph_epochs_completed" in prom
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        # One snapshot per epoch plus the lifetime total as last line.
        assert records[-1]["scope"] == "total"
        per_epoch = sum(
            r["counters"].get("comm_bytes{category=fp_embeddings}", 0)
            for r in records[:-1]
        )
        total = records[-1]["counters"]["comm_bytes{category=fp_embeddings}"]
        assert per_epoch == total

    def test_report_smoke_html(self, capsys, tmp_path):
        code = main(["report", "--smoke", "--out", str(tmp_path)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Stage timeline" in stdout
        assert "coverage" in stdout
        text = (tmp_path / "epoch_report.html").read_text()
        assert text.startswith("<!DOCTYPE html>")
        for stage in ("halo_plan", "forward", "backward", "optimize",
                      "eval"):
            assert f"<td>{stage}</td>" in text

    def test_report_prints_regular_vs_boundary_rows(self, capsys, tmp_path):
        """12 epochs at the default T_tr = 10 cross one trend boundary:
        the burst is a printed row, per direction, with its modelled
        comm — no outside knowledge of the schedule needed."""
        code = main([
            "--profile", "tiny", "report", "--epochs", "12", "--workers",
            "3", "--out", str(tmp_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "Regular vs trend-boundary epochs" in stdout
        rows = {
            (cells[0], cells[1]): cells[2:]
            for cells in (
                [c.strip() for c in line.split("|")]
                for line in stdout.splitlines() if line.count("|") == 4
            )
        }
        assert rows[("fp", "regular")][0] == "11"
        assert rows[("fp", "boundary")][0] == "1"
        assert rows[("bp", "boundary")][0] == "1"
        kb = lambda cell: float(cell.removesuffix("KB"))  # noqa: E731
        assert kb(rows[("fp", "boundary")][1]) > 2 * kb(
            rows[("fp", "regular")][1]
        )
        assert rows[("bp", "boundary")][1] == rows[("bp", "regular")][1]

    def test_report_smoke_markdown(self, capsys, tmp_path):
        code = main([
            "report", "--smoke", "--format", "markdown",
            "--out", str(tmp_path),
        ])
        assert code == 0
        capsys.readouterr()
        text = (tmp_path / "epoch_report.md").read_text()
        assert text.startswith("# Epoch report:")
        assert "## Bandwidth waterfall" in text
        assert not (tmp_path / "epoch_report.html").exists()

    def test_report_refuses_a_file_as_out(self, capsys, tmp_path):
        out = tmp_path / "report.html"
        out.write_text("")
        assert main(["report", "--smoke", "--out", str(out)]) == 1
        assert "is not a directory" in capsys.readouterr().err

    def test_chaos_smoke(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "chaos.json"
        code = main([
            "chaos", "--smoke", "--workers", "2",
            "--json-out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survived" in out
        assert "Faults injected" in out
        report = json.loads(out_path.read_text())
        assert report["survived"] is True
        assert report["completed_epochs"] == report["scheduled_epochs"]
        assert report["counters"]["crashes"] == 1


class TestOperationalErrors:
    def test_invalid_config_value_one_line_error(self, capsys):
        code = main([
            "--profile", "tiny", "train", "--dataset", "cora",
            "--workers", "2", "--epochs", "2", "--layers", "0",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_missing_path_one_line_error(self, capsys, tmp_path, monkeypatch):
        # A missing dataset/checkpoint path surfaces as FileNotFoundError
        # from inside a command; main() must turn it into one line.
        import repro.__main__ as cli

        def explode(*args, **kwargs):
            raise FileNotFoundError(
                f"checkpoint not found: {tmp_path / 'nope.npz'}"
            )

        monkeypatch.setattr(cli, "load_dataset", explode)
        code = cli.main(["--profile", "tiny", "train", "--epochs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint not found")
        assert "Traceback" not in err
