"""One-page epoch reports: the ``repro report`` renderer.

Takes one instrumented :class:`~repro.core.results.ConvergenceRun` and
renders everything its :class:`~repro.obs.telemetry.TelemetryReport`
collected into a single self-contained artifact:

* the **stage timeline** — per-stage wall/modelled time with critical
  stage and straggler attribution (:mod:`repro.obs.profiler`);
* the **bandwidth waterfall** — heaviest channels by wire bytes with
  effective bit-widths (:mod:`repro.obs.ledger`);
* the **compression frontier** — ReqEC candidate-win fractions and the
  Bit-Tuner width trajectory (:mod:`repro.obs.health`);
* **fault and recovery counters** and the per-worker **resident
  buffers** (layer-workspace bytes) mirrored from the metrics registry.

Two formats: GitHub-flavoured markdown, and a single HTML file with
inline CSS (no external assets, so it uploads as one CI artifact and
opens anywhere). Both render from the same :func:`build_report` dict,
which is also what the tests assert against. :func:`write_report` is
the one writer behind ``repro report --out DIR``: the report plus the
run's trace and metrics exports, side by side.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path

from repro.obs.export import (
    write_chrome_trace,
    write_jsonl,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.obs.profiler import ENGINE_STAGES

__all__ = [
    "build_report",
    "missing_stages",
    "render_markdown",
    "render_html",
    "write_report",
]


# ----------------------------------------------------------------------
# Data extraction
# ----------------------------------------------------------------------

_FAULT_COUNTERS = (
    "fault_retries",
    "fault_delays",
    "fault_message_failures",
    "fault_crashes",
    "fault_checkpoint_corrupt",
    "fault_params_rolled_back",
    "fault_residual_compensations",
    # Elastic membership / convergence watchdog (exported to Prometheus
    # with the ``ecgraph_`` prefix, satisfying the ``ecgraph_membership_*``
    # / ``ecgraph_watchdog_*`` naming contract).
    "membership_lost",
    "membership_adoptions",
    "membership_rejoins",
    "watchdog_trips",
    "watchdog_rollbacks",
    "watchdog_escalations",
)


# Per-worker workspace gauges, in "Resident buffers" column order.
_RESOURCE_GAUGES = (
    "workspace_planned_bytes", "workspace_bytes", "first_aggregate_bytes",
)
_RESOURCE_COLUMNS = (
    "worker", "planned workspaces", "resident workspaces",
    "first-layer aggregate",
)


def build_report(run) -> dict:
    """Distill one run into the JSON-ready dict the renderers consume.

    ``run`` is a :class:`~repro.core.results.ConvergenceRun`; its
    ``telemetry`` may be ``None`` (un-instrumented run), in which case
    the observability sections come out empty but the convergence
    summary still renders.
    """
    tel = run.telemetry
    data: dict = {
        "name": run.name,
        "meta": dict(run.meta),
        "summary": {
            "epochs": run.num_epochs,
            "training_seconds": run.training_seconds(),
            "preprocessing_seconds": run.preprocessing_seconds,
            "avg_epoch_seconds": run.avg_epoch_seconds(),
            "total_bytes": run.total_bytes(),
            "best_test_accuracy": run.best_test_accuracy(),
            "final_loss": run.epochs[-1].loss if run.epochs else None,
        },
        "loss_curve": [
            {"epoch": e.epoch, "loss": e.loss, "test_accuracy": e.test_accuracy}
            for e in run.epochs
        ],
        "stages": {},
        "epoch_kinds": {},
        "epoch_timelines": [],
        "straggler_counts": {},
        "coverage": None,
        "channels": [],
        "directions": {},
        "health": None,
        "faults": {},
        "resources": {},
        "membership_events": [],
        "dropped_spans": 0,
    }
    if tel is None:
        return data

    data["dropped_spans"] = tel.dropped_spans

    profile = tel.profile
    if profile is not None and profile.epochs:
        data["stages"] = profile.stage_totals()
        # Split by epoch kind: ReqEC-FP ships exact rows every T_tr epochs.
        reqec = run.meta.get("fp_mode") == "reqec"
        period = run.meta.get("trend_period") if reqec else None

        def boundary(t: int) -> bool:
            return bool(period) and (t + 1) % period == 0

        data["epoch_kinds"] = {
            "regular": profile.stage_totals(lambda t: not boundary(t)),
            "boundary": profile.stage_totals(boundary),
        }
        data["coverage"] = profile.coverage()
        data["straggler_counts"] = {
            str(w): c for w, c in sorted(profile.straggler_counts().items())
        }
        data["epoch_timelines"] = [
            {
                "epoch": t.epoch,
                "wall_seconds": t.wall_seconds,
                "modelled_seconds": t.modelled_seconds,
                "critical_stage": t.critical_stage(),
            }
            for t in profile.epochs
        ]

    data["membership_events"] = [dict(e) for e in tel.membership_events]
    ledger = tel.ledger
    if ledger is not None and ledger.channels:
        data["directions"] = ledger.direction_totals()
        data["channels"] = [
            {
                "channel": f"{responder}->{consumer}/L{layer}/{direction}",
                **record.as_dict(),
            }
            for (responder, consumer, layer, direction), record
            in ledger.top_channels(15)
        ]

    if tel.health is not None:
        data["health"] = tel.health.as_dict()

    metrics = tel.metrics
    faults = {}
    for name in _FAULT_COUNTERS:
        total = metrics.counter_total(name)
        if total:
            faults[name] = total
    degraded = metrics.counters_by_label("fault_degraded", "kind")
    if degraded:
        faults["fault_degraded"] = {
            kind: degraded[kind] for kind in sorted(degraded)
        }
    data["faults"] = faults
    for (name, labels), value in sorted(metrics.gauges.items()):
        if name in _RESOURCE_GAUGES:
            worker = dict(labels)["worker"]
            data["resources"].setdefault(worker, {})[name] = value
    return data


def missing_stages(data: dict) -> list[str]:
    """Engine stages absent from the report's profile section.

    A healthy instrumented run profiles all of
    :data:`~repro.obs.profiler.ENGINE_STAGES`; anything returned here
    means the profiler lost a stage (CI fails on it in ``--smoke``).
    """
    present = set(data.get("stages", {}))
    return [stage for stage in ENGINE_STAGES if stage not in present]


# ----------------------------------------------------------------------
# Shared formatting helpers
# ----------------------------------------------------------------------

def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1e3:.3f}ms"


def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return (
                f"{value:.0f}{unit}" if unit == "B" else f"{value:.2f}{unit}"
            )
        value /= 1024
    return f"{value:.2f}GiB"


def _resource_rows(data: dict) -> list[tuple[str, ...]]:
    """(worker, the plan's slot bytes, what the worker holds of them, of
    which the first-layer aggregate)."""
    return [
        (worker, *(_fmt_bytes(held.get(name, 0)) for name in _RESOURCE_GAUGES))
        for worker, held in sorted(data.get("resources", {}).items())
    ]


def _stage_rows(data: dict) -> list[tuple]:
    rows = []
    stages = data.get("stages", {})
    for stage in list(ENGINE_STAGES) + sorted(set(stages) - set(ENGINE_STAGES)):
        agg = stages.get(stage)
        if agg is None:
            continue
        rows.append((
            stage, agg["count"], agg["wall_seconds"], agg["compute_seconds"],
            agg["comm_seconds"], agg["bytes_sent"], agg["messages"],
        ))
    return rows


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------

def render_markdown(data: dict) -> str:
    """Render the report dict as GitHub-flavoured markdown."""
    lines: list[str] = [f"# Epoch report: {data['name']}", ""]
    summary = data["summary"]
    lines += [
        "## Run summary",
        "",
        f"- epochs: {summary['epochs']}",
        f"- modelled training time: {_fmt_seconds(summary['training_seconds'])}"
        f" (avg epoch {_fmt_seconds(summary['avg_epoch_seconds'])})",
        f"- inter-machine traffic: {_fmt_bytes(summary['total_bytes'])}",
        f"- best test accuracy: {summary['best_test_accuracy']:.4f}",
    ]
    if summary["final_loss"] is not None:
        lines.append(f"- final loss: {summary['final_loss']:.6f}")
    if data["dropped_spans"]:
        lines.append(f"- **dropped spans: {data['dropped_spans']}** "
                     "(trace truncated; raise ObsConfig.max_spans)")
    lines.append("")

    rows = _stage_rows(data)
    if rows:
        lines += ["## Stage timeline", ""]
        if data["coverage"] is not None:
            lines.append(f"Stage coverage of epoch wall time: "
                         f"{data['coverage'] * 100:.1f}%")
            lines.append("")
        lines.append(
            "| stage | runs | wall | modelled compute | modelled comm |"
            " bytes | msgs |"
        )
        lines.append("|---|---:|---:|---:|---:|---:|---:|")
        for stage, count, wall, compute, comm, nbytes, msgs in rows:
            lines.append(
                f"| {stage} | {count} | {_fmt_seconds(wall)} |"
                f" {_fmt_seconds(compute)} | {_fmt_seconds(comm)} |"
                f" {_fmt_bytes(nbytes)} | {msgs} |"
            )
        lines.append("")
        if data["straggler_counts"]:
            pairs = ", ".join(
                f"worker {w}: {c}"
                for w, c in data["straggler_counts"].items()
            )
            lines.append(f"Stage barriers bounded by: {pairs}")
            lines.append("")
        if data["epoch_timelines"]:
            crit: dict[str, int] = {}
            for t in data["epoch_timelines"]:
                if t["critical_stage"]:
                    crit[t["critical_stage"]] = (
                        crit.get(t["critical_stage"], 0) + 1
                    )
            pairs = ", ".join(f"{s} ({c} epochs)" for s, c in crit.items())
            lines.append(f"Critical stage per epoch: {pairs}")
            lines.append("")

    if data["channels"]:
        lines += ["## Bandwidth waterfall (top channels)", ""]
        lines.append(
            "| channel | wire | metered | frames | retries | degraded |"
            " eff. bits/elem |"
        )
        lines.append("|---|---:|---:|---:|---:|---:|---:|")
        for ch in data["channels"]:
            degraded = (
                ch["degraded_predicted"] + ch["degraded_cached"]
                + ch["degraded_zero"]
            )
            lines.append(
                f"| {ch['channel']} | {_fmt_bytes(ch['wire_bytes'])} |"
                f" {_fmt_bytes(ch['metered_bytes'])} | {ch['frames']} |"
                f" {ch['retries']} | {degraded} |"
                f" {ch['effective_bits']:.2f} |"
            )
        lines.append("")
        if data["directions"]:
            lines.append("Direction totals:")
            lines.append("")
            for direction, agg in sorted(data["directions"].items()):
                lines.append(
                    f"- `{direction}`: {_fmt_bytes(agg['metered_bytes'])} "
                    f"metered over {agg['channels']} channels, "
                    f"{agg['frames']} frames, {agg['retries']} retries"
                )
            lines.append("")

    health = data["health"]
    if health is not None:
        lines += ["## Compression frontier", ""]
        fractions = health.get("candidate_fractions", {})
        if fractions:
            parts = ", ".join(
                f"{name}: {frac * 100:.1f}%"
                for name, frac in sorted(fractions.items())
            )
            lines.append(f"- ReqEC-FP candidate wins — {parts}")
        bits_current = health.get("bits_current", {})
        if bits_current:
            parts = ", ".join(
                f"{pair}: {bits}b" for pair, bits in sorted(bits_current.items())
            )
            lines.append(f"- Bit-Tuner current widths — {parts}")
        events = health.get("bits_events", [])
        lines.append(f"- Bit-Tuner width changes: {len(events)}")
        violations = health.get("violations", [])
        if violations:
            lines.append("- **Theorem-1 violations:**")
            for violation in violations:
                lines.append(f"  - {violation}")
        else:
            lines.append("- Theorem-1 residual checks: all within bound")
        lines.append("")

    if data["faults"]:
        lines += ["## Faults and recovery", ""]
        for name, value in sorted(data["faults"].items()):
            if isinstance(value, dict):
                inner = ", ".join(f"{k}: {v:.0f}" for k, v in value.items())
                lines.append(f"- {name}: {inner}")
            else:
                lines.append(f"- {name}: {value:.0f}")
        lines.append("")

    if data.get("resources"):
        lines += ["## Resident buffers", "",
                  f"| {' | '.join(_RESOURCE_COLUMNS)} |",
                  "|---:|---:|---:|---:|"]
        lines += [f"| {' | '.join(row)} |" for row in _resource_rows(data)]
        lines.append("")

    if data.get("membership_events"):
        lines += ["## Membership timeline", ""]
        lines.append("| epoch | event | details |")
        lines.append("|---:|---|---|")
        for event in data["membership_events"]:
            details = ", ".join(
                f"{k}={v}" for k, v in sorted(event.items())
                if k not in ("kind", "epoch")
            )
            lines.append(
                f"| {event['epoch']} | {event['kind']} | {details} |"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1b1f24; }
h1 { border-bottom: 2px solid #d0d7de; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem;
         font-size: .9rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f6f8fa; }
.bar { display: inline-block; height: .7rem; background: #4c9aff;
       vertical-align: middle; margin-right: .4rem; }
.bar.comm { background: #ff8f73; }
.warn { color: #b42318; font-weight: 600; }
.ok { color: #1a7f37; }
ul { line-height: 1.6; }
"""


def _bar(value: float, biggest: float, cls: str = "bar") -> str:
    if biggest <= 0:
        return ""
    width = max(1.0, 220.0 * value / biggest)
    return f'<span class="{cls}" style="width:{width:.0f}px"></span>'


def render_html(data: dict) -> str:
    """Render the report dict as one self-contained HTML document."""
    esc = _html.escape
    parts: list[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Epoch report: {esc(data['name'])}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Epoch report: {esc(data['name'])}</h1>",
    ]
    summary = data["summary"]
    parts.append("<h2>Run summary</h2><ul>")
    parts.append(f"<li>epochs: {summary['epochs']}</li>")
    parts.append(
        "<li>modelled training time: "
        f"{_fmt_seconds(summary['training_seconds'])} (avg epoch "
        f"{_fmt_seconds(summary['avg_epoch_seconds'])})</li>"
    )
    parts.append(
        f"<li>inter-machine traffic: "
        f"{_fmt_bytes(summary['total_bytes'])}</li>"
    )
    parts.append(
        f"<li>best test accuracy: {summary['best_test_accuracy']:.4f}</li>"
    )
    if summary["final_loss"] is not None:
        parts.append(f"<li>final loss: {summary['final_loss']:.6f}</li>")
    if data["dropped_spans"]:
        parts.append(
            f"<li class='warn'>dropped spans: {data['dropped_spans']}"
            " (trace truncated; raise ObsConfig.max_spans)</li>"
        )
    parts.append("</ul>")

    rows = _stage_rows(data)
    if rows:
        parts.append("<h2>Stage timeline</h2>")
        if data["coverage"] is not None:
            parts.append(
                f"<p>Stage coverage of epoch wall time: "
                f"{data['coverage'] * 100:.1f}%</p>"
            )
        biggest = max(r[2] for r in rows)
        parts.append(
            "<table><tr><th>stage</th><th>wall</th><th>runs</th>"
            "<th>modelled compute</th><th>modelled comm</th>"
            "<th>bytes</th><th>msgs</th></tr>"
        )
        for stage, count, wall, compute, comm, nbytes, msgs in rows:
            parts.append(
                f"<tr><td>{esc(stage)}</td>"
                f"<td>{_bar(wall, biggest)}{_fmt_seconds(wall)}</td>"
                f"<td>{count}</td><td>{_fmt_seconds(compute)}</td>"
                f"<td>{_fmt_seconds(comm)}</td>"
                f"<td>{_fmt_bytes(nbytes)}</td><td>{msgs}</td></tr>"
            )
        parts.append("</table>")
        if data["straggler_counts"]:
            pairs = ", ".join(
                f"worker {esc(w)}: {c}"
                for w, c in data["straggler_counts"].items()
            )
            parts.append(f"<p>Stage barriers bounded by: {pairs}</p>")

    if data["channels"]:
        parts.append("<h2>Bandwidth waterfall (top channels)</h2>")
        biggest = max(ch["wire_bytes"] for ch in data["channels"])
        parts.append(
            "<table><tr><th>channel</th><th>wire</th><th>metered</th>"
            "<th>frames</th><th>retries</th><th>degraded</th>"
            "<th>eff. bits/elem</th></tr>"
        )
        for ch in data["channels"]:
            degraded = (
                ch["degraded_predicted"] + ch["degraded_cached"]
                + ch["degraded_zero"]
            )
            parts.append(
                f"<tr><td>{esc(ch['channel'])}</td>"
                f"<td>{_bar(ch['wire_bytes'], biggest, 'bar comm')}"
                f"{_fmt_bytes(ch['wire_bytes'])}</td>"
                f"<td>{_fmt_bytes(ch['metered_bytes'])}</td>"
                f"<td>{ch['frames']}</td><td>{ch['retries']}</td>"
                f"<td>{degraded}</td>"
                f"<td>{ch['effective_bits']:.2f}</td></tr>"
            )
        parts.append("</table>")

    health = data["health"]
    if health is not None:
        parts.append("<h2>Compression frontier</h2><ul>")
        fractions = health.get("candidate_fractions", {})
        if fractions:
            inner = ", ".join(
                f"{esc(name)}: {frac * 100:.1f}%"
                for name, frac in sorted(fractions.items())
            )
            parts.append(f"<li>ReqEC-FP candidate wins &mdash; {inner}</li>")
        bits_current = health.get("bits_current", {})
        if bits_current:
            inner = ", ".join(
                f"{esc(pair)}: {bits}b"
                for pair, bits in sorted(bits_current.items())
            )
            parts.append(f"<li>Bit-Tuner current widths &mdash; {inner}</li>")
        parts.append(
            f"<li>Bit-Tuner width changes: "
            f"{len(health.get('bits_events', []))}</li>"
        )
        violations = health.get("violations", [])
        if violations:
            parts.append("<li class='warn'>Theorem-1 violations:<ul>")
            for violation in violations:
                parts.append(f"<li>{esc(violation)}</li>")
            parts.append("</ul></li>")
        else:
            parts.append(
                "<li class='ok'>Theorem-1 residual checks: "
                "all within bound</li>"
            )
        parts.append("</ul>")

    if data["faults"]:
        parts.append("<h2>Faults and recovery</h2><ul>")
        for name, value in sorted(data["faults"].items()):
            if isinstance(value, dict):
                inner = ", ".join(
                    f"{esc(k)}: {v:.0f}" for k, v in value.items()
                )
                parts.append(f"<li>{esc(name)}: {inner}</li>")
            else:
                parts.append(f"<li>{esc(name)}: {value:.0f}</li>")
        parts.append("</ul>")

    if data.get("resources"):
        parts.append(
            "<h2>Resident buffers</h2><table><tr>"
            + "".join(f"<th>{name}</th>" for name in _RESOURCE_COLUMNS)
            + "</tr>"
        )
        parts += [
            "<tr>" + "".join(f"<td>{esc(cell)}</td>" for cell in row) + "</tr>"
            for row in _resource_rows(data)
        ]
        parts.append("</table>")

    if data.get("membership_events"):
        parts.append("<h2>Membership timeline</h2>")
        parts.append(
            "<table><tr><th>epoch</th><th>event</th><th>details</th></tr>"
        )
        for event in data["membership_events"]:
            details = ", ".join(
                f"{k}={v}" for k, v in sorted(event.items())
                if k not in ("kind", "epoch")
            )
            parts.append(
                f"<tr><td>{event['epoch']}</td>"
                f"<td>{esc(event['kind'])}</td>"
                f"<td>{esc(details)}</td></tr>"
            )
        parts.append("</table>")

    parts.append(
        "<script type='application/json' id='report-data'>"
        + json.dumps(data, sort_keys=True)
        + "</script>"
    )
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report(
    run, directory: str | Path, fmt: str = "html", data: dict | None = None
) -> dict[str, Path]:
    """Write the epoch report and every telemetry export into ``directory``.

    The artifacts are ``epoch_report.html`` (``epoch_report.md`` with
    ``fmt="markdown"``), ``trace.json`` (Chrome trace), ``spans.jsonl``,
    ``telemetry.json`` (:meth:`TelemetryReport.as_dict`),
    ``metrics.prom`` (Prometheus text of the lifetime metrics) and
    ``metrics.jsonl`` (one snapshot per epoch, then the lifetime total).
    An un-instrumented run gets the report alone. ``data`` is the run's
    :func:`build_report` dict when the caller already holds it. Returns
    ``{file name: path}``.
    """
    if fmt not in ("html", "markdown"):
        raise ValueError(f"fmt must be 'html' or 'markdown', got {fmt!r}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if data is None:
        data = build_report(run)
    name = "epoch_report.html" if fmt == "html" else "epoch_report.md"
    paths = {name: directory / name}
    paths[name].write_text(
        render_html(data) if fmt == "html" else render_markdown(data)
    )
    tel = run.telemetry
    if tel is None:
        return paths
    paths.update({
        export: directory / export
        for export in ("trace.json", "spans.jsonl", "telemetry.json",
                       "metrics.prom", "metrics.jsonl")
    })
    write_chrome_trace(tel.spans, paths["trace.json"])
    write_jsonl(tel.spans, paths["spans.jsonl"])
    paths["telemetry.json"].write_text(
        json.dumps(tel.as_dict(), indent=2) + "\n"
    )
    write_prometheus(tel.metrics, paths["metrics.prom"])
    write_metrics_jsonl(
        [e.telemetry for e in run.epochs if e.telemetry is not None]
        + [tel.metrics],
        paths["metrics.jsonl"],
    )
    return paths
