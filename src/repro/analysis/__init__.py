"""Analysis utilities: the Table II cost model, the Theorem 1 error bound,
convergence summaries and ASCII reporting for the benchmarks.
"""

from repro.analysis.convergence import (
    ConvergenceSummary,
    convergence_target,
    summarize,
)
from repro.analysis.export import export_json, run_to_records
from repro.analysis.costs import (
    CostEstimate,
    CostParameters,
    ecgraph_costs,
    ml_centered_costs,
)
from repro.analysis.reporting import format_series, format_table
from repro.analysis.traffic import dominant_category, traffic_by_category, traffic_table
from repro.analysis.theory import (
    ErrorFeedbackTrace,
    estimate_alpha,
    simulate_error_feedback,
    theorem1_bound,
)

__all__ = [
    "ConvergenceSummary",
    "convergence_target",
    "summarize",
    "export_json",
    "run_to_records",
    "CostEstimate",
    "CostParameters",
    "ecgraph_costs",
    "ml_centered_costs",
    "dominant_category",
    "traffic_by_category",
    "traffic_table",
    "format_series",
    "format_table",
    "ErrorFeedbackTrace",
    "estimate_alpha",
    "simulate_error_feedback",
    "theorem1_bound",
]
