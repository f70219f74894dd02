"""CSV, JSON, and SVG emission for campaign outputs.

All text output uses LF line endings regardless of platform so reruns of a
deterministic campaign produce byte-identical files. The SVG plotter is
self-contained (inline styling, no external assets) and draws one polyline
per series with point markers, axis ticks, and a legend.
"""

from __future__ import annotations

import csv
import json
from xml.sax.saxutils import escape

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")

_WIDTH = 640
_HEIGHT = 400
_PLOT_LEFT = 64
_PLOT_RIGHT = 470
_PLOT_TOP = 46
_PLOT_BOTTOM = 350


def emit_csv(path: str, fieldnames: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(rows)


def emit_json(path: str, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def _x_positions(xs: list[float]) -> dict[float, float]:
    lo, hi = min(xs), max(xs)
    span = _PLOT_RIGHT - _PLOT_LEFT
    if hi == lo:
        return {lo: _PLOT_LEFT + span / 2}
    return {x: _PLOT_LEFT + span * (x - lo) / (hi - lo) for x in xs}


def _y_position(y: float) -> float:
    return _PLOT_BOTTOM - (_PLOT_BOTTOM - _PLOT_TOP) * y


def emit_svg_plot(
    path: str,
    title: str,
    xlabel: str,
    ylabel: str,
    series: list[tuple[str, list[tuple[float, float]]]],
) -> None:
    """Line chart of fraction-vs-n data on a fixed 0..1 y axis.

    series is a list of (label, points) pairs; points are (x, y) tuples
    already sorted by x. Values outside [0, 1] are clamped.
    """
    xs = sorted({x for _, points in series for x, _ in points})
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]
    # Axes.
    parts.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_BOTTOM}" x2="{_PLOT_RIGHT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_TOP}" x2="{_PLOT_LEFT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="black"/>'
    )
    # Y ticks at five even steps.
    for i in range(5):
        value = i / 4
        y = _y_position(value)
        parts.append(
            f'<line x1="{_PLOT_LEFT - 4}" y1="{y:.1f}" x2="{_PLOT_LEFT}" '
            f'y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_PLOT_LEFT - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:g}</text>'
        )
    positions = _x_positions(xs) if xs else {}
    shown = xs if len(xs) <= 8 else xs[:: max(1, len(xs) // 8)]
    for x in shown:
        px = positions[x]
        parts.append(
            f'<line x1="{px:.1f}" y1="{_PLOT_BOTTOM}" x2="{px:.1f}" '
            f'y2="{_PLOT_BOTTOM + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_PLOT_BOTTOM + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:g}</text>'
        )
    parts.append(
        f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:.1f}" y="{_PLOT_BOTTOM + 38}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{escape(xlabel)}</text>"
    )
    parts.append(
        f'<text x="18" y="{(_PLOT_TOP + _PLOT_BOTTOM) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(_PLOT_TOP + _PLOT_BOTTOM) / 2:.1f})">'
        f"{escape(ylabel)}</text>"
    )
    for index, (label, points) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        coords = []
        for x, y in points:
            coords.append((positions[x], _y_position(min(max(y, 0.0), 1.0))))
        attr = " ".join(f"{px:.1f},{py:.1f}" for px, py in coords)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{attr}"/>'
        )
        for px, py in coords:
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>')
        legend_y = _PLOT_TOP + 16 * index
        parts.append(
            f'<line x1="{_PLOT_RIGHT + 12}" y1="{legend_y}" x2="{_PLOT_RIGHT + 30}" '
            f'y2="{legend_y}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_PLOT_RIGHT + 34}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="11">{escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
