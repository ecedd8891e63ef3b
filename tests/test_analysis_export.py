"""Unit tests for run export (JSON)."""

import json

import pytest

from repro.analysis.export import export_json, run_to_records
from repro.cluster.engine import EpochBreakdown
from repro.core.results import ConvergenceRun, EpochResult


def _run(name="r", epochs=3):
    run = ConvergenceRun(name=name, preprocessing_seconds=0.1,
                         meta={"dataset": "unit"})
    for i in range(epochs):
        run.epochs.append(EpochResult(
            epoch=i, loss=1.0 / (i + 1), train_accuracy=0.5,
            val_accuracy=0.6, test_accuracy=0.7,
            breakdown=EpochBreakdown(0.01, 0.02, 0.03, 100, {"x": 100}),
        ))
    run.final_test_accuracy = 0.7
    return run


class TestRecords:
    def test_one_record_per_epoch(self):
        records = run_to_records(_run(epochs=4))
        assert len(records) == 4
        assert records[0]["run"] == "r"
        assert records[2]["loss"] == pytest.approx(1 / 3)


class TestJSON:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "runs.json"
        export_json([_run("a")], path)
        document = json.loads(path.read_text())
        assert document[0]["name"] == "a"
        assert document[0]["meta"] == {"dataset": "unit"}
        assert document[0]["final_test_accuracy"] == 0.7
        assert len(document[0]["epochs"]) == 3
        assert document[0]["total_bytes"] == 300


class TestRealRunExport:
    def test_export_real_training_run(self, small_graph, tmp_path):
        from repro import train_ecgraph

        run = train_ecgraph(small_graph, num_workers=2, num_epochs=3,
                            hidden_dim=4)
        export_json([run], tmp_path / "real.json")
        document = json.loads((tmp_path / "real.json").read_text())
        assert len(document[0]["epochs"]) == 3
