"""Export convergence runs to JSON.

Benchmark and example outputs are printed as ASCII tables; these helpers
persist the underlying numbers so downstream analysis (plotting,
regression tracking between library versions) has machine-readable data.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.results import ConvergenceRun

__all__ = ["run_to_records", "export_json"]

def run_to_records(run: ConvergenceRun) -> list[dict]:
    """Flatten one run into per-epoch dict records."""
    records = []
    for result in run.epochs:
        records.append({
            "run": run.name,
            "epoch": result.epoch,
            "loss": result.loss,
            "train_accuracy": result.train_accuracy,
            "val_accuracy": result.val_accuracy,
            "test_accuracy": result.test_accuracy,
            "compute_seconds": result.breakdown.compute_seconds,
            "comm_seconds": result.breakdown.comm_seconds,
            "total_seconds": result.breakdown.total_seconds,
            "bytes_sent": result.breakdown.bytes_sent,
        })
    return records


def export_json(runs: list[ConvergenceRun], path: str | Path) -> None:
    """Write runs (records + summary metadata) as a JSON document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = []
    for run in runs:
        document.append({
            "name": run.name,
            "meta": run.meta,
            "preprocessing_seconds": run.preprocessing_seconds,
            "final_test_accuracy": run.final_test_accuracy,
            "avg_epoch_seconds": run.avg_epoch_seconds(),
            "total_bytes": run.total_bytes(),
            "epochs": run_to_records(run),
        })
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, default=str)
