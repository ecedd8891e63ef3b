"""One-page epoch reports: the ``repro report`` renderer.

Takes one instrumented :class:`~repro.core.results.ConvergenceRun` and
renders everything its :class:`~repro.obs.telemetry.TelemetryReport`
collected:

* the **stage timeline** — per-stage wall/modelled time with critical
  stage and straggler attribution (:mod:`repro.obs.profiler`), and the
  same stages split into regular and ReqEC-FP trend-boundary epochs;
* the span **phase totals** and the per-category **traffic** counters;
* the **bandwidth waterfall** — heaviest channels by wire bytes with
  effective bit-widths (:mod:`repro.obs.ledger`);
* the **compression frontier** — ReqEC candidate-win fractions and the
  Bit-Tuner width trajectory (:mod:`repro.obs.health`);
* **fault and recovery counters**, the per-worker **resident buffers**
  (layer-workspace bytes) and the **membership timeline**.

:func:`build_report` distills the run into one JSON-ready dict (what
the tests assert against); :func:`report_sections` turns that dict into
the ordered list of sections, each written once. Three thin renderers
format the list: plain text (what ``repro report`` prints),
GitHub-flavoured markdown, and a single HTML file with inline CSS (no
external assets, so it uploads as one CI artifact and opens anywhere).
:func:`write_report` is the one writer behind ``repro report --out
DIR``: the report plus the run's trace and metrics exports, side by
side.
"""

from __future__ import annotations

import html as _html
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.core.reqec_fp import is_trend_boundary
from repro.obs.export import (
    write_chrome_trace,
    write_jsonl,
    write_metrics_jsonl,
    write_prometheus,
)
from repro.obs.profiler import ENGINE_STAGES

__all__ = [
    "Section",
    "build_report",
    "missing_stages",
    "report_sections",
    "render_text",
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


# Per-worker resident-buffer gauges, in "Resident buffers" column order.
_RESOURCE_GAUGES = (
    "workspace_planned_bytes", "workspace_bytes", "first_aggregate_bytes",
    "feature_bytes", "csr_bytes", "trend_table_bytes", "residual_bytes",
)
_RESOURCE_COLUMNS = (
    "worker", "planned workspaces", "resident workspaces",
    "first-layer aggregate", "feature rows", "adjacency rows",
    "trend tables", "ResEC residuals",
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
        "phases": {},
        "traffic": {},
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
        # Split by epoch kind: ReqEC-FP ships exact rows every T_tr epochs
        # (the run records T_tr only when its forward policy is ReqEC-FP).
        period = run.meta.get("trend_period")
        data["epoch_kinds"] = {
            "regular": profile.stage_totals(
                lambda t: not is_trend_boundary(t, period)
            ),
            "boundary": profile.stage_totals(
                lambda t: is_trend_boundary(t, period)
            ),
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

    data["phases"] = {
        name: {"count": count, "seconds": seconds}
        for name, (count, seconds) in sorted(tel.phase_totals.items())
    }
    metrics = tel.metrics
    messages = metrics.counters_by_label("comm_messages", "category")
    data["traffic"] = {
        category: {"bytes": int(nbytes),
                   "messages": int(messages.get(category, 0))}
        for category, nbytes in sorted(
            metrics.counters_by_label("comm_bytes", "category").items()
        )
    }
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
# Sections: every format renders this one list
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


@dataclass(frozen=True)
class Section:
    """One titled block of the report: bullet lines, then an optional
    table whose cells are already formatted strings."""

    title: str
    bullets: tuple[str, ...] = ()
    headers: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()


def report_sections(data: dict) -> list[Section]:
    """The report dict as an ordered list of sections, each written once.

    Sections with nothing to show (an un-instrumented run, a run without
    faults or membership changes) are left out.
    """
    sections: list[Section] = []

    def add(title, bullets=(), headers=(), rows=()):
        sections.append(Section(
            title, tuple(bullets), tuple(headers),
            tuple(tuple(str(cell) for cell in row) for row in rows),
        ))

    summary = data["summary"]
    bullets = [
        f"epochs: {summary['epochs']}",
        f"modelled training time: {_fmt_seconds(summary['training_seconds'])}"
        f" (avg epoch {_fmt_seconds(summary['avg_epoch_seconds'])})",
        f"inter-machine traffic: {_fmt_bytes(summary['total_bytes'])}",
        f"best test accuracy: {summary['best_test_accuracy']:.4f}",
    ]
    if summary["final_loss"] is not None:
        bullets.append(f"final loss: {summary['final_loss']:.6f}")
    if data["dropped_spans"]:
        bullets.append(f"dropped spans: {data['dropped_spans']} "
                       "(trace truncated; raise ObsConfig.max_spans)")
    add("Run summary", bullets)

    stages = data["stages"]
    if stages:
        bullets = []
        if data["coverage"] is not None:
            bullets.append(f"Stage coverage of epoch wall time: "
                           f"{data['coverage'] * 100:.1f}%")
        if data["straggler_counts"]:
            bullets.append("Stage barriers bounded by: " + ", ".join(
                f"worker {w}: {c}" for w, c in data["straggler_counts"].items()
            ))
        critical: dict[str, int] = {}
        for timeline in data["epoch_timelines"]:
            if timeline["critical_stage"]:
                stage = timeline["critical_stage"]
                critical[stage] = critical.get(stage, 0) + 1
        if critical:
            bullets.append("Critical stage per epoch: " + ", ".join(
                f"{s} ({c} epochs)" for s, c in critical.items()
            ))
        order = list(ENGINE_STAGES) + sorted(set(stages) - set(ENGINE_STAGES))
        add("Stage timeline", bullets,
            ("stage", "runs", "wall", "modelled compute", "modelled comm",
             "bytes", "msgs"),
            [(stage, agg["count"], _fmt_seconds(agg["wall_seconds"]),
              _fmt_seconds(agg["compute_seconds"]),
              _fmt_seconds(agg["comm_seconds"]),
              _fmt_bytes(agg["bytes_sent"]), agg["messages"])
             for stage in order if (agg := stages.get(stage))])

    if data["epoch_kinds"]:
        period = data["meta"].get("trend_period")
        add("Regular vs trend-boundary epochs",
            [f"ReqEC-FP ships exact rows when (t + 1) % {period} == 0"
             if period else "no trend boundaries: the forward policy is not "
             "ReqEC-FP"],
            ("direction", "epoch kind", "epochs", "bytes/epoch",
             "comm/epoch"),
            [(direction, kind, agg["count"],
              f"{agg['bytes_sent'] / agg['count'] / 1e3:.1f}KB",
              _fmt_seconds(agg["comm_seconds"] / agg["count"]))
             for direction, stage in (("fp", "forward"), ("bp", "backward"))
             for kind, totals in data["epoch_kinds"].items()
             if (agg := totals.get(stage))])

    if data["phases"]:
        add("Telemetry: wall time by phase",
            ["spans nest, so phases overlap (an epoch contains its forward)"],
            ("phase", "count", "seconds", "mean"),
            [(name, agg["count"], _fmt_seconds(agg["seconds"]),
              _fmt_seconds(agg["seconds"] / agg["count"]))
             for name, agg in sorted(data["phases"].items(),
                                     key=lambda item: -item[1]["seconds"])])

    traffic = data["traffic"]
    if traffic:
        add("Telemetry: inter-machine traffic", (),
            ("category", "bytes", "messages"),
            [(category, _fmt_bytes(agg["bytes"]), agg["messages"])
             for category, agg in sorted(traffic.items(),
                                         key=lambda item: -item[1]["bytes"])]
            + [("total",
                _fmt_bytes(sum(agg["bytes"] for agg in traffic.values())),
                sum(agg["messages"] for agg in traffic.values()))])

    if data["channels"]:
        add("Bandwidth waterfall (top channels)",
            [f"{direction}: {_fmt_bytes(agg['metered_bytes'])} metered over "
             f"{agg['channels']} channels, {agg['frames']} frames, "
             f"{agg['retries']} retries"
             for direction, agg in sorted(data["directions"].items())],
            ("channel", "wire", "metered", "frames", "retries", "degraded",
             "eff. bits/elem"),
            [(ch["channel"], _fmt_bytes(ch["wire_bytes"]),
              _fmt_bytes(ch["metered_bytes"]), ch["frames"], ch["retries"],
              ch["degraded_predicted"] + ch["degraded_cached"]
              + ch["degraded_zero"],
              f"{ch['effective_bits']:.2f}")
             for ch in data["channels"]])

    health = data["health"]
    if health is not None:
        violations = health.get("violations", [])
        bullets = [
            f"Compression health: {'VIOLATIONS' if violations else 'OK'}"
        ]
        fractions = health.get("candidate_fractions", {})
        if fractions:
            bullets.append("ReqEC-FP candidate wins: " + ", ".join(
                f"{name}: {frac * 100:.1f}%"
                for name, frac in sorted(fractions.items())
            ))
        bits_current = health.get("bits_current", {})
        if bits_current:
            bullets.append("Bit-Tuner current widths: " + ", ".join(
                f"{pair}: {bits}b"
                for pair, bits in sorted(bits_current.items())
            ))
        bullets.append(
            f"Bit-Tuner width changes: {len(health.get('bits_events', []))}"
        )
        bullets += [f"Theorem-1 violation: {v}" for v in violations]
        if not violations:
            bullets.append("Theorem-1 residual checks: all within bound")
        add("Compression frontier", bullets)

    if data["faults"]:
        add("Faults and recovery", [
            f"{name}: " + (
                ", ".join(f"{k}: {v:.0f}" for k, v in value.items())
                if isinstance(value, dict) else f"{value:.0f}"
            )
            for name, value in sorted(data["faults"].items())
        ])

    if data["resources"]:
        add("Resident buffers", (), _RESOURCE_COLUMNS,
            [(worker, *(_fmt_bytes(held.get(name, 0))
                        for name in _RESOURCE_GAUGES))
             for worker, held in sorted(data["resources"].items())])

    if data["membership_events"]:
        add("Membership timeline", (), ("epoch", "event", "details"),
            [(event["epoch"], event["kind"], ", ".join(
                f"{k}={v}" for k, v in sorted(event.items())
                if k not in ("kind", "epoch")))
             for event in data["membership_events"]])
    return sections


# ----------------------------------------------------------------------
# Renderers: titles, bullets and tables, nothing else
# ----------------------------------------------------------------------

def render_text(data: dict) -> str:
    """Render the report dict as plain text (what ``repro report``
    prints)."""
    blocks = [f"Epoch report: {data['name']}"]
    for section in report_sections(data):
        lines = [section.title] + [f"- {b}" for b in section.bullets]
        if section.headers:
            lines.append(format_table(section.headers, section.rows))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def render_markdown(data: dict) -> str:
    """Render the report dict as GitHub-flavoured markdown."""
    def row(cells) -> str:
        return f"| {' | '.join(cells)} |"

    lines = [f"# Epoch report: {data['name']}", ""]
    for section in report_sections(data):
        lines += [f"## {section.title}", ""]
        if section.bullets:
            lines += [f"- {b}" for b in section.bullets] + [""]
        if section.headers:
            lines += [
                row(section.headers),
                "|---|" + "---:|" * (len(section.headers) - 1),
                *(row(cells) for cells in section.rows),
                "",
            ]
    return "\n".join(lines).rstrip() + "\n"


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
ul { line-height: 1.6; }
"""


def render_html(data: dict) -> str:
    """Render the report dict as one self-contained HTML document.

    The dict itself rides along as a JSON payload; ``<`` is escaped in
    it so no string in the run (a run name, say) can close the script
    element early.
    """
    esc = _html.escape
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Epoch report: {esc(data['name'])}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Epoch report: {esc(data['name'])}</h1>",
    ]
    for section in report_sections(data):
        parts.append(f"<h2>{esc(section.title)}</h2>")
        if section.bullets:
            parts.append("<ul>" + "".join(
                f"<li>{esc(b)}</li>" for b in section.bullets
            ) + "</ul>")
        if section.headers:
            parts.append("<table><tr>" + "".join(
                f"<th>{esc(h)}</th>" for h in section.headers
            ) + "</tr>")
            parts += [
                "<tr>" + "".join(f"<td>{esc(c)}</td>" for c in cells) + "</tr>"
                for cells in section.rows
            ]
            parts.append("</table>")
    payload = json.dumps(data, sort_keys=True).replace("<", "\\u003c")
    parts.append(
        f"<script type='application/json' id='report-data'>{payload}</script>"
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
