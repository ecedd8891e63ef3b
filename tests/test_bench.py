"""Tests for the ``repro bench`` harness: report structure, baseline
comparison, and the CLI exit codes CI relies on."""

import json

import pytest

from repro.bench import (
    compare_reports,
    load_report,
    parse_percent,
    run_bench,
    write_report,
)
from repro.bench.harness import SCHEMA, best_seconds
from repro.bench.reference import pack_bits_reference, unpack_bits_reference


class TestReferenceKernels:
    @pytest.mark.parametrize("bits", [1, 3, 4, 8, 11, 16])
    def test_reference_matches_new_kernels(self, bits):
        import numpy as np

        from repro.compression.quantization import pack_bits, unpack_bits

        rng = np.random.default_rng(bits)
        ids = rng.integers(0, 1 << bits, size=777, dtype=np.uint32)
        packed = pack_bits_reference(ids, bits)
        np.testing.assert_array_equal(packed, pack_bits(ids, bits))
        np.testing.assert_array_equal(
            unpack_bits_reference(packed, bits, ids.size),
            unpack_bits(packed, bits, ids.size),
        )


class TestBestSeconds:
    def test_returns_positive_float(self):
        assert best_seconds(lambda: sum(range(100)), repeats=2) > 0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            best_seconds(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            best_seconds(lambda: None, repeats=1, inner=0)


class TestParsePercent:
    @pytest.mark.parametrize("text,expected", [
        ("15%", 0.15), ("15", 0.15), (" 200% ", 2.0), ("0%", 0.0),
    ])
    def test_parses(self, text, expected):
        assert parse_percent(text) == pytest.approx(expected)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_percent("fast")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            parse_percent("-5%")


class TestReportIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = {"schema": SCHEMA, "kernels": {}}
        path = write_report(report, tmp_path / "r.json")
        assert load_report(path) == report

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path / "absent.json")

    def test_load_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)


def _report(ns_by_kernel):
    return {
        "schema": SCHEMA,
        "kernels": {
            name: {"ns_per_element": ns}
            for name, ns in ns_by_kernel.items()
        },
    }


class TestCompareReports:
    def test_no_regression_within_limit(self):
        current = _report({"pack_bits[bits=4]": 1.10})
        baseline = _report({"pack_bits[bits=4]": 1.00})
        assert compare_reports(current, baseline, 0.15) == []

    def test_regression_reported(self):
        current = _report({"pack_bits[bits=4]": 2.0})
        baseline = _report({"pack_bits[bits=4]": 1.0})
        lines = compare_reports(current, baseline, 0.15)
        assert len(lines) == 1
        assert "pack_bits[bits=4]" in lines[0]
        assert "+100%" in lines[0]

    def test_kernels_missing_on_either_side_skipped(self):
        current = _report({"only_current": 9.0, "shared": 1.0})
        baseline = _report({"only_baseline": 0.1, "shared": 1.0})
        assert compare_reports(current, baseline, 0.0) == []

    def test_improvement_never_fails(self):
        current = _report({"k": 0.5})
        baseline = _report({"k": 5.0})
        assert compare_reports(current, baseline, 0.0) == []


class TestStageBreakdownLines:
    def _epoch_report(self, stages):
        return {"schema": SCHEMA, "epoch": {"stages": stages}}

    def test_sorted_by_absolute_delta(self):
        from repro.bench import stage_breakdown_lines

        lines = stage_breakdown_lines(
            self._epoch_report({"forward": 0.030, "backward": 0.010}),
            self._epoch_report({"forward": 0.020, "backward": 0.015}),
        )
        assert len(lines) == 2
        assert lines[0].startswith("forward:")  # |+10ms| > |-5ms|
        assert "+50%" in lines[0]
        assert lines[1].startswith("backward:")

    def test_baseline_without_stages_is_silent(self):
        from repro.bench import stage_breakdown_lines

        current = self._epoch_report({"forward": 0.030})
        assert stage_breakdown_lines(current, {"epoch": {}}) == []
        assert stage_breakdown_lines(current, {}) == []


class TestSpeedupFlagLines:
    """Sub-1.0 ``speedup_*`` entries are surfaced, never hidden."""

    def test_flags_only_sub_unity_speedups(self):
        from repro.bench import speedup_flag_lines

        report = {
            "schema": SCHEMA,
            "epoch": {
                "speedup_vs_reference_codec": 0.70, "default_seconds": 0.1,
            },
            "epoch_multiprocess": {
                "speedup_multiprocess": 0.24, "host_cpus": 1,
            },
            "future_suite": {"speedup_anything": 1.8},
        }
        lines = speedup_flag_lines(report)
        assert len(lines) == 2
        assert any(
            "epoch.speedup_vs_reference_codec = 0.70x" in x for x in lines
        )
        assert any(
            "epoch_multiprocess.speedup_multiprocess = 0.24x" in x
            for x in lines
        )
        # The honest >1.0 claim is not flagged.
        assert not any("= 1.80x" in x for x in lines)

    def test_clean_report_produces_no_flags(self):
        from repro.bench import speedup_flag_lines

        report = {
            "epoch": {"speedup_vs_reference_codec": 1.3}, "schema": SCHEMA,
        }
        assert speedup_flag_lines(report) == []


class TestRunBenchSmoke:
    """One real smoke run, shared by the structural assertions."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(smoke=True)

    def test_schema_and_profile(self, report):
        assert report["schema"] == SCHEMA
        assert report["profile"] == "smoke"

    def test_kernel_entries(self, report):
        for bits in (2, 4, 8):
            for op in ("pack_bits", "unpack_bits"):
                entry = report["kernels"][f"{op}[bits={bits}]"]
                assert entry["ns_per_element"] > 0
                assert entry["reference_ns_per_element"] > 0
                assert entry["speedup_vs_reference"] > 0

    def test_exchange_and_epoch_sections(self, report):
        assert report["exchange"]["sequential_seconds"] > 0
        for key in ("reference_codec_seconds", "default_seconds",
                    "speedup_vs_reference_codec"):
            assert report["epoch"][key] > 0

    def test_metrics_snapshot_included(self, report):
        assert "bench_kernel_ns" in json.dumps(report["metrics"])
        assert "bench_stage_seconds" in json.dumps(report["metrics"])

    def test_stage_profile_section(self, report):
        from repro.obs import ENGINE_STAGES

        stages = report["epoch"]["stages"]
        assert set(stages) == set(ENGINE_STAGES)
        for seconds in stages.values():
            assert seconds > 0
        assert report["epoch"]["stage_coverage"] >= 0.90

    def test_stage_walls_sum_close_to_epoch_wall(self, report):
        # ISSUE acceptance: per-stage times must account for the epoch
        # to within a few percent. The profiled trainer is a separate
        # instance from the wall-clock one, so compare stage sum against
        # the profiler's own envelope via the coverage ratio.
        coverage = report["epoch"]["stage_coverage"]
        assert 0.90 <= coverage <= 1.0 + 1e-6

    def test_multiprocess_section(self, report):
        mp = report["epoch_multiprocess"]
        assert mp["host_cpus"] >= 1
        for key in ("sequential_seconds", "multiprocess_seconds"):
            assert mp[key] > 0
        assert mp["speedup_multiprocess"] > 0

    def test_report_is_json_serializable(self, report, tmp_path):
        path = write_report(report, tmp_path / "smoke.json")
        assert load_report(path)["profile"] == "smoke"

    def test_peak_rss_recorded(self, report):
        assert report["peak_rss_bytes"] > 0


class TestRunBenchLargeSmoke:
    """The out-of-core tier, at smoke scale (seconds, not minutes)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(smoke=True, profile="large")

    def test_schema_and_profile(self, report):
        assert report["schema"] == SCHEMA
        assert report["profile"] == "large-smoke"

    def test_pipeline_steps_timed(self, report):
        large = report["large"]
        for key in ("generate_seconds", "partition_seconds",
                    "stats_seconds", "subgraph_seconds", "gather_seconds"):
            assert large[key] > 0

    def test_store_and_rss_accounting(self, report):
        large = report["large"]
        assert large["num_vertices"] == 1 << 14
        assert large["num_edges"] > large["num_vertices"]
        assert large["feature_bytes_on_disk"] > 0
        assert large["store_bytes_on_disk"] > large["feature_bytes_on_disk"]
        assert report["peak_rss_bytes"] > 0
        assert large["rss_to_feature_ratio"] > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            run_bench(smoke=True, profile="galactic")


class TestBenchCLI:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        assert load_report(out)["profile"] == "smoke"
        assert "Codec micro-kernels" in capsys.readouterr().out

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        from repro.__main__ import main

        # A baseline claiming every kernel once took ~0 ns forces every
        # real measurement to read as a regression.
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        report = load_report(out)
        for stats in report["kernels"].values():
            stats["ns_per_element"] = stats["ns_per_element"] / 1e6
        baseline_path = write_report(report, tmp_path / "baseline.json")
        code = main([
            "bench", "--smoke", "--out", str(out),
            "--compare", str(baseline_path), "--max-regress", "15%",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_execution_multiprocess_scopes_the_run(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "mp.json"
        code = main([
            "bench", "--smoke", "--execution", "multiprocess",
            "--out", str(out),
        ])
        assert code == 0
        report = load_report(out)
        assert "epoch_multiprocess" in report
        assert "kernels" not in report
        assert "Multiprocess execution" in capsys.readouterr().out

    def test_compare_passes_against_self(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        # Re-compare against the report just produced with a huge
        # allowance: machine noise alone cannot trip a 10000% limit.
        code = main([
            "bench", "--smoke", "--out", str(tmp_path / "second.json"),
            "--compare", str(out), "--max-regress", "10000%",
        ])
        assert code == 0
