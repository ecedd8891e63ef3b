"""Traffic breakdowns: where the bytes of a training run went.

The paper's core argument is about message volume; these helpers slice a
run's traffic per category (forward embeddings, backward gradients,
parameter pulls/pushes, sampling, caches) so experiments can show *which*
traffic a technique removed, not just the total.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.reporting import format_table
from repro.core.results import ConvergenceRun

__all__ = [
    "traffic_by_category",
    "traffic_table",
    "dominant_category",
]


def traffic_by_category(run: ConvergenceRun) -> dict[str, int]:
    """Total bytes per message category over a whole run."""
    totals: dict[str, int] = defaultdict(int)
    for epoch in run.epochs:
        for category, nbytes in epoch.breakdown.category_bytes.items():
            totals[category] += nbytes
    return dict(totals)


def dominant_category(run: ConvergenceRun) -> str | None:
    """The category carrying the most bytes (None for a silent run)."""
    totals = traffic_by_category(run)
    if not totals:
        return None
    return max(totals, key=totals.get)


def traffic_table(runs: list[ConvergenceRun]) -> str:
    """ASCII table: one row per run, one column per observed category.

    Categories are ordered by their total across runs, largest first,
    so the table leads with what matters.
    """
    per_run = {run.name: traffic_by_category(run) for run in runs}
    grand: dict[str, int] = defaultdict(int)
    for totals in per_run.values():
        for category, nbytes in totals.items():
            grand[category] += nbytes
    categories = sorted(grand, key=grand.get, reverse=True)

    def _fmt(nbytes: int) -> str:
        if nbytes >= 1 << 20:
            return f"{nbytes / (1 << 20):.1f}MB"
        if nbytes >= 1 << 10:
            return f"{nbytes / (1 << 10):.1f}KB"
        return f"{nbytes}B"

    rows = []
    for run in runs:
        totals = per_run[run.name]
        rows.append(
            [run.name]
            + [_fmt(totals.get(category, 0)) for category in categories]
            + [_fmt(sum(totals.values()))]
        )
    return format_table(
        ["run"] + categories + ["total"], rows,
        title="Traffic by category",
    )
