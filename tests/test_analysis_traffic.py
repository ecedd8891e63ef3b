"""Tests for traffic breakdowns."""

from repro.analysis.traffic import (
    dominant_category,
    traffic_by_category,
    traffic_table,
)
from repro.cluster.engine import EpochBreakdown
from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.results import ConvergenceRun, EpochResult
from repro.core.trainer import ECGraphTrainer


def _run_with_categories(name, per_epoch):
    run = ConvergenceRun(name=name)
    for i, categories in enumerate(per_epoch):
        run.epochs.append(EpochResult(
            epoch=i, loss=0.5, train_accuracy=0.5, val_accuracy=0.5,
            test_accuracy=0.5,
            breakdown=EpochBreakdown(
                0.0, 0.0, 0.0, sum(categories.values()), categories,
            ),
        ))
    return run


class TestTrafficBreakdown:
    def test_totals_accumulate_over_epochs(self):
        run = _run_with_categories("a", [
            {"fp": 100, "bp": 50},
            {"fp": 200},
        ])
        assert traffic_by_category(run) == {"fp": 300, "bp": 50}

    def test_dominant(self):
        run = _run_with_categories("a", [{"fp": 10, "bp": 90}])
        assert dominant_category(run) == "bp"

    def test_dominant_empty_run(self):
        assert dominant_category(ConvergenceRun(name="x")) is None

    def test_table_orders_by_grand_total(self):
        runs = [
            _run_with_categories("a", [{"fp": 1 << 21, "bp": 1024}]),
            _run_with_categories("b", [{"bp": 2048}]),
        ]
        table = traffic_table(runs)
        assert table.index("fp") < table.index("bp")
        assert "2.0MB" in table
        assert "2.0KB" in table

    def test_real_run_categories(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=4),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        run = trainer.train(3)
        totals = traffic_by_category(run)
        assert set(totals) >= {"fp_embeddings", "bp_gradients",
                               "param_pull", "param_push"}
        assert dominant_category(run) in totals
