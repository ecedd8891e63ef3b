"""Unit tests for the analysis package (costs, theory, reporting,
convergence summaries)."""

import numpy as np
import pytest

from repro.analysis.convergence import (
    convergence_target,
    summarize,
)
from repro.analysis.costs import CostParameters, ecgraph_costs, ml_centered_costs
from repro.analysis.reporting import format_series, format_table
from repro.analysis.theory import (
    estimate_alpha,
    simulate_error_feedback,
    theorem1_bound,
)
from repro.cluster.engine import EpochBreakdown
from repro.compression.quantization import BucketQuantizer
from repro.core.results import ConvergenceRun, EpochResult


def _params(**overrides):
    fields = dict(
        avg_degree=50.0,
        avg_dim=128.0,
        input_dim=100.0,
        num_layers=3,
        num_iterations=100,
        avg_remote_neighbors=5.0,
        bits=2,
    )
    fields.update(overrides)
    return CostParameters(**fields)


class TestCostModel:
    def test_ml_memory_exponential_in_layers(self):
        two = ml_centered_costs(_params(num_layers=2)).memory
        three = ml_centered_costs(_params(num_layers=3)).memory
        assert three == pytest.approx(two * 50.0)

    def test_ecgraph_memory_constant_in_layers(self):
        two = ecgraph_costs(_params(num_layers=2)).memory
        four = ecgraph_costs(_params(num_layers=4)).memory
        assert two == four

    def test_ecgraph_compute_linear_in_layers(self):
        two = ecgraph_costs(_params(num_layers=2)).computation
        four = ecgraph_costs(_params(num_layers=4)).computation
        assert four == pytest.approx(2 * two)

    def test_compression_divides_communication(self):
        full = ecgraph_costs(_params(bits=32)).communication
        compressed = ecgraph_costs(_params(bits=2)).communication
        assert compressed == pytest.approx(full / 16)

    def test_table2_crossover_direction(self):
        """For deep models on dense graphs the ML-centered memory explodes
        past EC-Graph's — the paper's core scalability argument."""
        p = _params(num_layers=4)
        assert ml_centered_costs(p).memory > 1000 * ecgraph_costs(p).memory

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            _params(bits=64)


class TestTheorem1:
    def test_bound_positive_and_finite(self):
        bound = theorem1_bound(alpha=0.3, grad_norm_bound=2.0,
                               num_layers=3, layer=1)
        assert 0 < bound < np.inf

    def test_bound_grows_toward_lower_layers(self):
        upper = theorem1_bound(0.3, 1.0, num_layers=4, layer=4)
        lower = theorem1_bound(0.3, 1.0, num_layers=4, layer=1)
        assert lower > upper  # (1 + alpha)^(L - l) factor

    def test_alpha_domain_enforced(self):
        with pytest.raises(ValueError):
            theorem1_bound(alpha=0.9, grad_norm_bound=1.0,
                           num_layers=2, layer=1)
        with pytest.raises(ValueError):
            theorem1_bound(alpha=0.3, grad_norm_bound=1.0,
                           num_layers=2, layer=1, rho=0.5)

    def test_estimated_alpha_decreases_with_bits(self):
        a2 = estimate_alpha(BucketQuantizer(2), samples=16)
        a8 = estimate_alpha(BucketQuantizer(8), samples=16)
        assert a8 < a2 < 1.0

    def test_measured_residual_below_bound(self):
        """The headline check: replaying ResEC-BP on bounded gradient
        streams keeps the residual below the Theorem 1 bound."""
        quantizer = BucketQuantizer(4)
        alpha = max(estimate_alpha(quantizer, samples=32), 1e-3)
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal((16, 8)).astype(np.float32)
                 for _ in range(60)]
        trace = simulate_error_feedback(quantizer, grads)
        grad_bound = np.sqrt(trace.max_gradient_sq())
        bound = theorem1_bound(alpha, grad_bound, num_layers=3, layer=3)
        assert trace.max_residual_sq() <= bound

    def test_trace_lengths(self):
        trace = simulate_error_feedback(
            BucketQuantizer(2), [np.ones((2, 2), dtype=np.float32)] * 5
        )
        assert len(trace.residual_norms) == 5
        assert len(trace.gradient_norms) == 5


class TestReporting:
    def test_table_contains_cells(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "2.5000" in text and "x" in text

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_series_subsamples(self):
        points = [(i, i / 100) for i in range(100)]
        text = format_series("curve", points, max_points=10)
        assert "curve" in text
        assert "99:0.990" in text  # last point always kept

    def test_empty_series(self):
        assert "(empty)" in format_series("x", [])


def _fake_run(name, accuracies, epoch_seconds=1.0, preprocessing=0.5):
    run = ConvergenceRun(name=name, preprocessing_seconds=preprocessing)
    for i, acc in enumerate(accuracies):
        run.epochs.append(
            EpochResult(
                epoch=i, loss=1.0 - acc, train_accuracy=acc,
                val_accuracy=acc, test_accuracy=acc,
                breakdown=EpochBreakdown(
                    compute_seconds=epoch_seconds / 2,
                    comm_seconds=epoch_seconds / 2,
                    total_seconds=epoch_seconds,
                    bytes_sent=1000,
                    category_bytes={},
                ),
            )
        )
    run.final_test_accuracy = accuracies[-1] if accuracies else None
    return run


class TestConvergenceSummaries:
    def test_target_is_slack_of_best(self):
        runs = [_fake_run("a", [0.5, 0.9]), _fake_run("b", [0.6])]
        assert convergence_target(runs, slack=0.9) == pytest.approx(0.81)

    def test_summary_time_to_target(self):
        run = _fake_run("a", [0.2, 0.5, 0.8, 0.9])
        summary = summarize(run, target=0.8)
        assert summary.epochs_to_target == 3
        assert summary.seconds_to_target == pytest.approx(0.5 + 3.0)

    def test_summary_never_converged(self):
        run = _fake_run("a", [0.1, 0.2])
        summary = summarize(run, target=0.9)
        assert summary.epochs_to_target is None
        assert summary.seconds_to_target is None

    def test_run_helpers(self):
        run = _fake_run("a", [0.3, 0.6, 0.5])
        assert run.best_test_accuracy() == 0.6
        assert run.avg_epoch_seconds() == pytest.approx(1.0)
        assert run.total_bytes() == 3000
        assert run.accuracy_curve()[1] == (1, 0.6)
        assert run.time_to_accuracy(0.99) is None
