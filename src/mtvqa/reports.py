"""Report rendering: table-shaped CSV and markdown, run manifests, SVG plots.

CSV files carry raw full-precision values and no timestamps, so reruns with
the same seeds are byte-identical.  Markdown tables show the one-decimal
half-up rounding used by the result tables.
"""

from __future__ import annotations

import json
import time
from decimal import ROUND_HALF_UP, Decimal


def round_half_up(x):
    """Decimal half-up rounding to one decimal (2.25 -> 2.3)."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def fmt_raw(v):
    return "" if v is None else repr(float(v))


def fmt_rounded(v):
    return "-" if v is None else f"{round_half_up(v):.1f}"


def experiment_to_csv(report):
    cols = ["label"] + list(report.tasks) + ["total"]
    lines = [",".join(cols)]
    for label, per_type, total in report.rows:
        cells = [label] + [fmt_raw(per_type[t]) for t in report.tasks] + [fmt_raw(total)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_seed_to_csv(report):
    cols = ["label", "seed"] + list(report.tasks) + ["total", "convergence_epoch"]
    lines = [",".join(cols)]
    for label, runs in report.per_seed.items():
        epochs = report.convergence.get(label, [None] * len(runs))
        for seed, run, epoch in zip(report.seeds, runs, epochs):
            cells = ([label, str(seed)]
                     + [fmt_raw(run[t]) for t in report.tasks]
                     + [fmt_raw(run["total"]),
                        "" if epoch is None else str(epoch)])
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def experiment_to_markdown(report):
    head = ["label"] + [t.capitalize() for t in report.tasks] + ["Total"]
    lines = [f"## {report.kind}", "",
             "| " + " | ".join(head) + " |",
             "|" + "---|" * len(head)]
    for label, per_type, total in report.rows:
        cells = [label] + [fmt_rounded(per_type[t]) for t in report.tasks]
        cells.append(fmt_rounded(total))
        lines.append("| " + " | ".join(cells) + " |")
    if report.convergence:
        lines.append("")
        lines.append("Convergence epochs (first phase, per seed):")
        for label, epochs in report.convergence.items():
            shown = ", ".join("-" if e is None else str(e) for e in epochs)
            lines.append(f"- {label}: {shown}")
    return "\n".join(lines) + "\n"


def write_experiment_reports(outdir, report, manifest_extra=None):
    """Write report.csv, per_seed.csv, report.md and manifest.json."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(experiment_to_csv(report), encoding="utf-8")
    (outdir / "per_seed.csv").write_text(per_seed_to_csv(report), encoding="utf-8")
    (outdir / "report.md").write_text(experiment_to_markdown(report), encoding="utf-8")
    manifest = {
        "kind": report.kind,
        "tasks": list(report.tasks),
        "seeds": list(report.seeds),
        "convergence": report.convergence,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                          encoding="utf-8")
    return outdir / "report.csv"


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency; diff-friendly output)

def svg_line_plot(series, path, title=""):
    """Render named float sequences as polylines with simple axes."""
    width, height, margin = 640, 360, 45
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    pts = [v for vals in series.values() for v in vals]
    if not pts:
        raise ValueError("svg_line_plot: no data")
    lo, hi = min(pts), max(pts)
    if hi == lo:
        hi = lo + 1.0
    n_max = max(len(v) for v in series.values())
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def sx(i):
        return margin + (inner_w * i / max(1, n_max - 1))

    def sy(v):
        return height - margin - inner_h * (v - lo) / (hi - lo)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
             f'stroke="black"/>',
             f'<text x="{margin}" y="{height - margin + 16}" font-size="10">1</text>',
             f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
             f'font-size="10">{n_max}</text>',
             f'<text x="{margin - 4}" y="{sy(lo):.1f}" text-anchor="end" font-size="10">{lo:.4g}</text>',
             f'<text x="{margin - 4}" y="{sy(hi):.1f}" text-anchor="end" font-size="10">{hi:.4g}</text>']
    for k, (name, vals) in enumerate(series.items()):
        colour = palette[k % len(palette)]
        coords = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{colour}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin}" y="{margin + 14 * k}" text-anchor="end" '
                     f'font-size="11" fill="{colour}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
