"""SVG Gantt export — publication-quality traces without plotting deps.

Writes a self-contained SVG: one lane per node, one rectangle per task,
colored by kernel kind.  Useful for inspecting pipeline ramp-up, domino
ripples, and load imbalance at full resolution (the ASCII Gantt is the
quick-look counterpart).
"""

from __future__ import annotations

from repro.dag.compiled import KIND_ORDER, CompiledGraph
from repro.kernels.weights import KernelKind

#: color per kernel kind (colorblind-safe-ish palette)
KIND_COLORS = {
    KernelKind.GEQRT: "#d95f02",
    KernelKind.UNMQR: "#fdbf6f",
    KernelKind.TSQRT: "#1b9e77",
    KernelKind.TSMQR: "#a6d854",
    KernelKind.TTQRT: "#7570b3",
    KernelKind.TTMQR: "#b3b3e6",
}


def trace_to_svg(
    trace: list[tuple[int, int, float, float]],
    graph: CompiledGraph,
    *,
    width: int = 1200,
    lane_height: int = 18,
    max_nodes: int = 64,
) -> str:
    """Render a simulator trace of ``graph`` as an SVG document (returned
    as text); each task is colored and titled by its kind code."""
    if not trace:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10">'
            "</svg>"
        )
    makespan = max(end for _, _, _, end in trace)
    nodes = sorted({node for _, node, _, _ in trace})[:max_nodes]
    lane = {node: idx for idx, node in enumerate(nodes)}
    height = lane_height * len(nodes) + 30
    scale = (width - 60) / makespan
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="10">'
    ]
    for node in nodes:
        y = lane[node] * lane_height + 10
        parts.append(
            f'<text x="2" y="{y + lane_height - 6}" fill="#333">n{node}</text>'
        )
        parts.append(
            f'<line x1="50" y1="{y + lane_height - 2}" x2="{width - 10}" '
            f'y2="{y + lane_height - 2}" stroke="#ddd"/>'
        )
    for task_id, node, start, end in trace:
        if node not in lane:
            continue
        y = lane[node] * lane_height + 10
        x = 50 + start * scale
        w = max((end - start) * scale, 0.5)
        kind = KIND_ORDER[graph.kind[task_id]]
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{lane_height - 4}" fill="{KIND_COLORS[kind]}">'
            f"<title>{kind.value}(task {task_id}) "
            f"[{start:.4g}, {end:.4g}]s</title>"
            f"</rect>"
        )
    legend_x = 50
    y = height - 14
    for kind, color in KIND_COLORS.items():
        parts.append(f'<rect x="{legend_x}" y="{y}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 13}" y="{y + 9}">{kind.value}</text>')
        legend_x += 80
    parts.append("</svg>")
    return "\n".join(parts)

