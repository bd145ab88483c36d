"""Self-contained HTML summary of one instrumented run.

``repro obs report`` drives :func:`build_html`: run summary tiles,
per-kernel and per-hierarchy-level attribution tables, the busiest
communication links, a core-utilization sparkline (inline SVG) and
engine statistics.  No external assets or JS — the file opens
anywhere, including CI artifact viewers.
"""

from __future__ import annotations

import html
from pathlib import Path

__all__ = ["build_html", "write_html"]

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 60em;
       color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
td, th { border: 1px solid #ccc; padding: 0.25em 0.7em; text-align: right; }
th { background: #f2f2f2; } td.l, th.l { text-align: left; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; }
.tile { border: 1px solid #ddd; border-radius: 6px; padding: 0.6em 1em;
        background: #fafafa; }
.tile .v { font-size: 1.3em; font-weight: 600; }
.tile .k { color: #666; font-size: 0.85em; }
svg { background: #fafafa; border: 1px solid #ddd; border-radius: 4px; }
footer { margin-top: 2em; color: #888; font-size: 0.8em; }
"""


def _esc(x) -> str:
    return html.escape(str(x))


def _tile(label: str, value: str) -> str:
    return (
        f'<div class="tile"><div class="v">{_esc(value)}</div>'
        f'<div class="k">{_esc(label)}</div></div>'
    )


def _table(headers: list[str], rows: list[list], left_cols: int = 1) -> str:
    out = ["<table><tr>"]
    for i, h in enumerate(headers):
        cls = ' class="l"' if i < left_cols else ""
        out.append(f"<th{cls}>{_esc(h)}</th>")
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for i, cell in enumerate(row):
            cls = ' class="l"' if i < left_cols else ""
            out.append(f"<td{cls}>{_esc(cell)}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _sparkline(
    timeline: list[tuple[float, int]],
    *,
    width: int = 700,
    height: int = 90,
    total_cores: int | None = None,
) -> str:
    """Inline SVG step plot of busy cores over time."""
    if not timeline:
        return "<p>(no utilization samples)</p>"
    t_max = max(t for t, _ in timeline) or 1.0
    v_max = total_cores or max((v for _, v in timeline), default=1) or 1
    pts = []
    prev_y = height
    for t, v in timeline:
        x = 4 + (width - 8) * t / t_max
        y = height - 4 - (height - 8) * v / v_max
        pts.append(f"{x:.1f},{prev_y:.1f} {x:.1f},{y:.1f}")
        prev_y = y
    path = " ".join(pts)
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline points="{path}" fill="none" stroke="#2a6fb0" '
        f'stroke-width="1.5"/>'
        f'<text x="6" y="14" font-size="11" fill="#666">busy cores '
        f"(peak {max(v for _, v in timeline)} / {v_max}, "
        f"makespan {t_max:.4g}s)</text></svg>"
    )


def _metric_rows(metrics_json: dict, name: str, label_key: str) -> list[list]:
    m = metrics_json.get(name)
    if not m:
        return []
    rows = []
    for s in m.get("samples", []):
        rows.append([s["labels"].get(label_key, ""), f"{s['value']:.6g}"])
    rows.sort(key=lambda r: -float(r[1]))
    return rows


def build_html(
    summary: dict,
    metrics_json: dict,
    timeline: list[tuple[float, int]] | None = None,
    *,
    title: str = "repro observability report",
) -> str:
    """Render the report; ``summary`` is free-form key -> display value."""
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        '<div class="tiles">',
    ]
    for k, v in summary.items():
        parts.append(_tile(k, v))
    parts.append("</div>")

    kern = _metric_rows(metrics_json, "repro_kernel_seconds_total", "kind")
    if kern:
        parts.append("<h2>Time by kernel</h2>")
        parts.append(_table(["kernel", "busy seconds"], kern))
    lvl = _metric_rows(metrics_json, "repro_level_seconds_total", "level")
    if lvl:
        parts.append("<h2>Time by hierarchy level</h2>")
        parts.append(_table(["level", "busy seconds"], lvl))

    if timeline is not None:
        parts.append("<h2>Core utilization</h2>")
        parts.append(
            _sparkline(timeline, total_cores=summary.get("total cores"))
        )

    msgs = metrics_json.get("repro_messages_total", {}).get("samples", [])
    if msgs:
        byts = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in metrics_json.get("repro_comm_bytes_total", {}).get(
                "samples", []
            )
        }
        rows = []
        for s in sorted(msgs, key=lambda s: -s["value"])[:20]:
            lbl = s["labels"]
            rows.append(
                [
                    f"{lbl.get('src')} → {lbl.get('dst')}",
                    int(s["value"]),
                    f"{byts.get(tuple(sorted(lbl.items())), 0) / 1e6:.2f}",
                ]
            )
        parts.append("<h2>Busiest links (top 20)</h2>")
        parts.append(_table(["link", "messages", "MB"], rows))

    engines = _metric_rows(metrics_json, "repro_engine_runs_total", "engine")
    if engines:
        parts.append("<h2>Engine invocations</h2>")
        parts.append(_table(["engine", "runs"], engines))

    parts.append(
        "<footer>generated by <code>repro obs report</code></footer>"
        "</body></html>"
    )
    return "".join(parts)


def write_html(path: str | Path, html_text: str) -> None:
    Path(path).write_text(html_text)
