"""Smoke tier of the benchmark: ``python -m pytest bench -q`` (< 20 s).

Not in the repository's ``testpaths``, so tier-1 never collects it.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def session_members(session: int) -> list[str]:
    """``/proc/<pid>/stat`` of every process in the session."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue  # ended while we were looking
            # pid (comm) state ppid pgrp session ...
            if int(stat.rpartition(") ")[2].split()[3]) == session:
                members.append(stat)
    return members


def smoke(workload: str, trace: int, seed: int = 1) -> dict:
    """One smoke run in a session of its own, so that whatever it started
    and left behind can be told from every other process on the host."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, _ = child.communicate(timeout=120)
    assert session_members(child.pid) == [], "a process outlived the run"
    assert child.returncode == 0
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_manifest_matches_the_metric_tables(manifest: dict) -> None:
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] \
        == list(PER_LAYER)
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    for name, unit, _ in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_schema_and_determinism(workload: str) -> None:
    first, second = smoke(workload, 0), smoke(workload, 0)
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 11
        assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
        for (name, unit, _) in END_TO_END:
            metric = result["metrics"][name]
            assert set(metric) == {"value", "unit"} and metric["unit"] == unit
            assert metric["value"] > 0, name
    for name in DETERMINISTIC:
        assert json.dumps(first["metrics"][name]) == json.dumps(second["metrics"][name])
    other_seed = smoke(workload, 0, seed=2)
    assert other_seed["metrics"]["wire_bytes_per_epoch"]["value"] \
        != first["metrics"]["wire_bytes_per_epoch"]["value"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_traced_pass(workload: str) -> None:
    result = smoke(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.missing"] == 0
    assert values["engine.stage_coverage"] >= 0.9
    assert values["epoch.samples"] == 10
    exercised_mp = workload.endswith("-mp")
    assert (values["mp.speedup_vs_sync"] > 0) == exercised_mp
    assert (values["store.bytes_on_disk"] > 0) == workload.endswith("-mmap")


def test_tracer_self_time_and_missing_wrap_points() -> None:
    from tracer import Tracer

    class Layer:
        def outer(self) -> None:
            self.inner()
            self.inner()

        def inner(self) -> None:
            pass

    tracer, layer = Tracer(), Layer()
    tracer.wrap(layer, "inner", "layer.inner")
    tracer.wrap(layer, "outer", "layer.outer")
    tracer.wrap(layer, "renamed", "layer.renamed")
    tracer.wrap(None, "run", "engine.gone")
    with tracer.span("epoch"):
        layer.outer()
    (table,) = tracer.per_root("epoch")
    assert tracer.missing == ["layer.renamed", "engine.gone"]
    assert table["layer.inner"]["calls"] == 2 and table["layer.outer"]["calls"] == 1
    outer, inner = table["layer.outer"], table["layer.inner"]
    assert outer["self"] == pytest.approx(outer["total"] - inner["total"])
    assert table["epoch"]["self"] == pytest.approx(
        table["epoch"]["total"] - outer["total"]
    )


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    """In a directory holding only the benchmark there is nothing to
    measure: no result line, non-zero exit."""
    import shutil

    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".pytest_cache"
    ))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
