"""ASCII table/series rendering used by every benchmark.

The benchmarks print the same rows and series the paper's tables and
figures report; these helpers keep the formatting consistent and make
the output easy to diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "format_table",
    "format_series",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a fixed-width ASCII table.

    Cells are stringified; floats get 4 significant decimals unless they
    are already strings. Columns are sized to their widest cell.
    """
    def _cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    str_rows = [[_cell(c) for c in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [len(h) for h in str_headers]
    for row in str_rows:
        if len(row) != len(str_headers):
            raise ValueError(
                f"row width {len(row)} does not match {len(str_headers)} headers"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def _line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(_line(str_headers))
    lines.append(separator)
    lines.extend(_line(row) for row in str_rows)
    return "\n".join(lines)


def format_series(
    name: str,
    points: Sequence[tuple[float, float]],
    x_label: str = "epoch",
    y_label: str = "accuracy",
    max_points: int = 20,
) -> str:
    """Render an (x, y) series compactly, subsampled to ``max_points``.

    Used for the accuracy-vs-epoch curves of Figs. 6 and 7.
    """
    if not points:
        return f"{name}: (empty)"
    if len(points) > max_points:
        step = max(1, len(points) // max_points)
        sampled = list(points[::step])
        if sampled[-1] != points[-1]:
            sampled.append(points[-1])
    else:
        sampled = list(points)
    body = "  ".join(f"{x:g}:{y:.3f}" for x, y in sampled)
    return f"{name} [{x_label}:{y_label}]  {body}"
