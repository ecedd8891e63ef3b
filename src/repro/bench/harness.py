"""Timing, report I/O and baseline comparison for the bench suites.

Reports are plain JSON (``BENCH_core.json`` at the repo root):

* ``kernels`` — per micro-kernel ``ns_per_element`` (best-of-repeats),
  plus the reference kernel's time and the resulting speedup where a
  reference exists;
* ``exchange`` / ``epoch`` — measured wall seconds for the macro suites.

:func:`compare_reports` gates CI: every kernel present in both the
current report and the baseline must be no more than ``max_regress``
slower (ratio on ``ns_per_element``). Macro timings are reported but
not gated — they wander too much across machines to be a useful tripwire.
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable

__all__ = [
    "SCHEMA",
    "best_seconds",
    "parse_percent",
    "write_report",
    "load_report",
    "compare_reports",
    "stage_breakdown_lines",
    "speedup_flag_lines",
]

SCHEMA = "ecgraph-bench/1"


def best_seconds(
    fn: Callable[[], object], repeats: int = 5, inner: int = 1
) -> float:
    """Best wall time of ``fn`` over ``repeats`` runs of ``inner`` calls.

    Best-of (not mean) is the standard micro-benchmark estimator: every
    slowdown source — scheduler preemption, cache eviction, GC — is
    additive noise, so the minimum is the closest observable to the
    kernel's true cost.
    """
    if repeats < 1 or inner < 1:
        raise ValueError("repeats and inner must be >= 1")
    fn()  # warm-up: first call pays allocator / code-path setup costs
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def parse_percent(text: str) -> float:
    """``"15%"`` or ``"15"`` -> 0.15; used by ``--max-regress``."""
    cleaned = text.strip()
    if cleaned.endswith("%"):
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError:
        raise ValueError(f"cannot parse percentage {text!r}") from None
    if value < 0:
        raise ValueError(f"percentage must be non-negative, got {text!r}")
    return value / 100.0


def write_report(report: dict, path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | pathlib.Path) -> dict:
    path = pathlib.Path(path)
    if not path.exists():
        raise FileNotFoundError(f"bench report {path} does not exist")
    report = json.loads(path.read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path} is not a bench report (schema "
            f"{report.get('schema')!r}, expected {SCHEMA!r})"
        )
    return report


def compare_reports(
    current: dict, baseline: dict, max_regress: float
) -> list[str]:
    """Kernel-level regressions of ``current`` against ``baseline``.

    Returns one human-readable line per kernel whose ``ns_per_element``
    grew by more than ``max_regress`` (a fraction: 0.15 = 15%). Kernels
    present on only one side are skipped — suites may grow between
    baselines, and a stale baseline shouldn't fail on new kernels.
    """
    regressions = []
    base_kernels = baseline.get("kernels", {})
    for name, stats in sorted(current.get("kernels", {}).items()):
        base = base_kernels.get(name)
        if base is None:
            continue
        cur_ns = stats.get("ns_per_element")
        base_ns = base.get("ns_per_element")
        if not cur_ns or not base_ns:
            continue
        ratio = cur_ns / base_ns - 1.0
        if ratio > max_regress:
            regressions.append(
                f"{name}: {cur_ns:.2f} ns/element vs baseline "
                f"{base_ns:.2f} (+{ratio:.0%}, limit {max_regress:.0%})"
            )
    return regressions


def speedup_flag_lines(report: dict) -> list[str]:
    """Within-report sanity flags: every ``speedup_*`` below 1.0.

    A ``speedup_*`` entry is a suite's claim that its "optimized"
    configuration beats its own baseline; below 1.0 the claim is false
    on the machine that produced the report, and silently rendering it
    as a speedup row is how the GIL-bound thread fan-out (0.88x,
    since removed) masqueraded as a fast path. Informational (no
    exit-code change):
    e.g. a single-CPU host legitimately measures
    ``speedup_multiprocess`` < 1.0.
    """
    flags = []
    for suite, data in sorted(report.items()):
        if not isinstance(data, dict):
            continue
        for key, value in sorted(data.items()):
            if not key.startswith("speedup"):
                continue
            if isinstance(value, (int, float)) and value < 1.0:
                flags.append(
                    f"{suite}.{key} = {value:.2f}x — this 'optimized' "
                    "configuration is SLOWER than its own baseline"
                )
    return flags


def stage_breakdown_lines(current: dict, baseline: dict) -> list[str]:
    """Per-stage epoch-time deltas of ``current`` against ``baseline``.

    Purely informational (stage walls are macro timings and are not
    gated): one line per engine stage present in both reports, sorted by
    absolute delta so the stage that moved the epoch leads. Baselines
    written before the stage profile existed produce no lines.
    """
    cur_stages = current.get("epoch", {}).get("stages") or {}
    base_stages = baseline.get("epoch", {}).get("stages") or {}
    deltas = []
    for stage in cur_stages:
        base_s = base_stages.get(stage)
        cur_s = cur_stages[stage]
        if base_s is None or not base_s or not cur_s:
            continue
        deltas.append((cur_s - base_s, stage, cur_s, base_s))
    deltas.sort(key=lambda item: -abs(item[0]))
    return [
        f"{stage}: {cur_s * 1e3:.2f}ms vs baseline {base_s * 1e3:.2f}ms "
        f"({(cur_s / base_s - 1.0):+.0%})"
        for delta, stage, cur_s, base_s in deltas
    ]
