"""Tests for ``repro bench``: the out-of-core tier's report and the CLI
surface that runs it."""

import json

import pytest

from repro.bench import run_bench


class TestReferenceKernels:
    @pytest.mark.parametrize("bits", [1, 3, 4, 8, 11, 16])
    def test_reference_matches_new_kernels(
        self, bits, reference_pack_bits, reference_unpack_bits
    ):
        import numpy as np

        from repro.compression.quantization import (
            SUPPORTED_BITS,
            pack_bits,
            unpack_bits,
        )

        rng = np.random.default_rng(bits)
        ids = rng.integers(0, 1 << bits, size=777, dtype=np.uint32)
        packed = reference_pack_bits(ids, bits)
        if bits not in SUPPORTED_BITS:
            # Only the reference packs an off-ladder width.
            with pytest.raises(ValueError, match="bits must be in"):
                pack_bits(ids, bits)
            with pytest.raises(ValueError, match="bits must be in"):
                unpack_bits(packed, bits, ids.size)
            return
        np.testing.assert_array_equal(packed, pack_bits(ids, bits))
        np.testing.assert_array_equal(
            reference_unpack_bits(packed, bits, ids.size),
            unpack_bits(packed, bits, ids.size),
        )

    @pytest.mark.parametrize("bits", [0, 17])
    @pytest.mark.parametrize("op", ["pack", "unpack"])
    def test_width_outside_range_rejected_by_both(
        self, op, bits, reference_pack_bits, reference_unpack_bits
    ):
        import numpy as np

        from repro.compression.quantization import pack_bits, unpack_bits

        if op == "pack":
            calls = [lambda f=f: f(np.zeros(4, dtype=np.uint32), bits)
                     for f in (reference_pack_bits, pack_bits)]
        else:
            calls = [lambda f=f: f(np.zeros(8, dtype=np.uint8), bits, 4)
                     for f in (reference_unpack_bits, unpack_bits)]
        for call in calls:
            with pytest.raises(ValueError, match="bits must be in"):
                call()

    @pytest.mark.parametrize("bits", [1, 4, 8, 16])
    def test_overflowing_value_rejected_by_both(
        self, bits, reference_pack_bits
    ):
        import numpy as np

        from repro.compression.quantization import pack_bits

        values = np.array([0, 1 << bits, 1], dtype=np.uint32)
        for pack in (reference_pack_bits, pack_bits):
            with pytest.raises(ValueError, match=f"does not fit in {bits}"):
                pack(values, bits)


# A scale-10 twin of the smoke tier, for tests that run bench_large more
# than once or under patched conditions.
_TINY = dict(scale=10, edge_factor=4, feature_dim=8, num_workers=4,
             chunk_vertices=256, resident_blocks=2, gather_parts=2)


class TestBenchLarge:
    def test_store_removed_after_the_run(self, tmp_path, monkeypatch):
        import tempfile

        from repro.bench import bench_large

        made = []
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *a, **kw: made.append(mkdtemp(*a, **kw))
                            or made[-1])
        bench_large(_TINY)
        assert made and all(p.startswith(str(tmp_path)) for p in made)
        assert list(tmp_path.iterdir()) == []

    def test_graph_and_partition_are_deterministic(self):
        from repro.bench import bench_large

        keys = ("num_edges", "edge_cut_ratio", "total_halo",
                "part0_local", "part0_remote", "gather_rows",
                "feature_bytes_on_disk", "store_bytes_on_disk")
        first, second = bench_large(_TINY), bench_large(_TINY)
        assert {k: first[k] for k in keys} == {k: second[k] for k in keys}

    def test_gather_parts_clamped_to_num_workers(self):
        from repro.bench import bench_large

        large = bench_large(dict(_TINY, gather_parts=99))
        assert large["gather_rows"] == large["num_vertices"]

    @pytest.mark.parametrize("smoke,profile,scale", [
        (True, "large-smoke", 14), (False, "large", 20),
    ], ids=["smoke", "full"])
    def test_run_bench_picks_the_tier(self, smoke, profile, scale,
                                      monkeypatch):
        from repro.bench import suites

        seen = []
        monkeypatch.setattr(suites, "bench_large",
                            lambda params: seen.append(params) or {})
        assert run_bench(smoke=smoke) == {"profile": profile, "large": {}}
        assert [params["scale"] for params in seen] == [scale]


class TestPeakRss:
    @pytest.mark.parametrize("platform,expected", [
        ("linux", 1000 * 1024), ("darwin", 1000),
    ])
    def test_ru_maxrss_unit_per_platform(self, platform, expected,
                                         monkeypatch):
        import resource
        import sys
        from types import SimpleNamespace

        from repro.bench import peak_rss_bytes

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage",
                            lambda who: SimpleNamespace(ru_maxrss=1000))
        assert peak_rss_bytes() == expected

    def test_high_water_mark_never_drops(self):
        import numpy as np

        from repro.bench import peak_rss_bytes

        before = peak_rss_bytes()
        block = np.ones(1 << 22, dtype=np.uint8)  # 4 MiB, touched
        after = peak_rss_bytes()
        del block
        assert after >= before > 0


class TestRunBenchLargeSmoke:
    """The out-of-core tier, at smoke scale (seconds, not minutes)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_bench(smoke=True)

    def test_profile(self, report):
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
        assert large["peak_rss_bytes"] > 0
        assert large["rss_to_feature_ratio"] > 0

    def test_feature_bytes_match_the_matrix_shape(self, report):
        large = report["large"]
        assert large["feature_bytes_on_disk"] == (
            large["num_vertices"] * large["feature_dim"] * 4
        )

    def test_rss_verdict_follows_the_ratio(self, report):
        large = report["large"]
        assert large["rss_to_feature_ratio"] == pytest.approx(
            large["peak_rss_bytes"] / large["feature_bytes_on_disk"]
        )
        assert large["rss_below_features"] == (
            large["rss_to_feature_ratio"] < 1.0
        )

    def test_hash_parts_are_round_robin_shares(self, report):
        large = report["large"]
        share = large["num_vertices"] // large["num_workers"]
        assert large["part0_local"] == share
        assert large["gather_rows"] == 2 * share
        assert large["part0_remote"] > 0
        assert large["total_halo"] >= large["part0_remote"]
        assert 0.0 < large["edge_cut_ratio"] < 1.0

    def test_feature_cache_stays_within_budget(self, report):
        cache = report["large"]["feature_cache"]
        assert cache["budget_blocks"] == 4
        assert cache["resident_blocks"] <= cache["budget_blocks"]
        assert cache["misses"] > 0

    def test_report_survives_a_json_round_trip(self, report):
        assert json.loads(json.dumps(report)) == report


class TestCommittedReport:
    """``BENCH_core.json`` is what the full tier writes, nothing more."""

    @pytest.fixture(scope="class")
    def committed(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_core.json"
        return json.loads(path.read_text())

    def test_holds_only_the_large_record(self, committed):
        assert set(committed) == {"profile", "large"}
        assert committed["profile"] == "large"

    def test_has_every_key_the_tier_writes(self, committed):
        written = run_bench(smoke=True)["large"]
        assert set(committed["large"]) == set(written)

    def test_full_tier_stayed_out_of_core(self, committed):
        large = committed["large"]
        assert large["num_vertices"] == 1 << 20
        assert large["feature_bytes_on_disk"] == 512 << 20
        assert large["rss_below_features"] is True


def _fake_report(below):
    steps = ("generate", "partition", "stats", "subgraph", "gather")
    large = {f"{step}_seconds": 0.5 for step in steps}
    large.update(num_vertices=16, num_edges=64, num_workers=2,
                 peak_rss_bytes=10**8, feature_bytes_on_disk=2 * 10**8,
                 rss_to_feature_ratio=0.5 if below else 2.0,
                 rss_below_features=below)
    return {"profile": "large-smoke", "large": large}


class TestBenchCLI:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["large"]["num_vertices"] == 1 << 14
        assert "Out-of-core tier" in capsys.readouterr().out

    def test_report_written_sorted_into_a_new_directory(self, tmp_path):
        from repro.__main__ import main

        out = tmp_path / "nested" / "dir" / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        text = out.read_text()
        report = json.loads(text)
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("below,verdict", [
        (True, "0.50x, OK"), (False, "2.00x, ABOVE"),
    ], ids=["below", "above"])
    def test_rss_verdict_printed(self, below, verdict, tmp_path,
                                 monkeypatch, capsys):
        import repro.bench
        from repro.__main__ import main

        monkeypatch.setattr(repro.bench, "run_bench",
                            lambda smoke: _fake_report(below))
        out = tmp_path / "bench.json"
        assert main(["bench", "--smoke", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"({verdict})" in printed
        assert ("FLAG: peak RSS exceeded" in printed) is not below
        assert json.loads(out.read_text()) == _fake_report(below)

    def test_bench_takes_out_and_smoke_only(self):
        from repro.__main__ import build_parser

        parser = build_parser()
        bench = parser._subparsers._group_actions[0].choices["bench"]
        flags = {
            flag for action in bench._actions
            for flag in action.option_strings
        }
        assert flags == {"-h", "--help", "--out", "--smoke"}
        args = parser.parse_args(["bench"])
        assert (args.out, args.smoke) == ("BENCH_core.json", False)

    def test_profile_choices(self):
        from repro.__main__ import build_parser

        profile = next(
            action for action in build_parser()._actions
            if "--profile" in action.option_strings
        )
        assert profile.choices == ["tiny", "bench", "full"]

    @pytest.mark.parametrize("flag", [
        ["--compare", "BENCH_core.json"], ["--execution", "multiprocess"],
        ["--max-regress", "15%"],
    ], ids=["compare", "execution", "max-regress"])
    def test_retired_flags_rejected(self, flag, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "--smoke", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_large_profile_rejected(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--profile", "large", "bench", "--smoke"])
        assert exc.value.code == 2
        assert "invalid choice: 'large'" in capsys.readouterr().err
