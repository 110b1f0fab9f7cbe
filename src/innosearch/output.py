"""Flat-file output: CSV tables with JSON twins, plus self-contained SVG charts.

Floats are written with 17 significant digits so every CSV cell parses back
to the exact double that produced it; the JSON twin holds the same rows as
native types, making the two files interchangeable. Charts are plain
hand-assembled SVG with no external references, and their content is a pure
function of the data, so reruns produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from typing import List, Optional, Sequence, Tuple


def format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_table(out_dir: str, name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write name.csv and its JSON twin name.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(x) for x in row) + "\n")
    json_path = os.path.join(out_dir, f"{name}.json")
    payload = {"columns": list(columns), "rows": [list(row) for row in rows]}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_json(out_dir: str, name: str, payload) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _escape(text: str) -> str:
    """text with &, < and > as XML entities, & first so entities are not escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Round tick positions covering [lo, hi]; deterministic nice-number steps."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


_PALETTE = ("#1f6fb4", "#c23b22", "#2a9d5c", "#8e5bb5", "#c98a1c", "#3aa6a6")

_W, _H = 960, 540
_ML, _MR, _MT, _MB = 72, 24, 48, 56


def line_chart(
    title: str,
    xlabel: str,
    ylabel: str,
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    hlines: Optional[Sequence[Tuple[float, str]]] = None,
) -> str:
    """Assemble a line chart as an SVG string.

    series: (label, xs, ys) triples; hlines: dashed horizontal reference
    lines with labels, included in the y range.
    """
    hlines = list(hlines or [])
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    ys_all += [y for y, _ in hlines]
    if not xs_all:
        xs_all = [0.0, 1.0]
    if not ys_all:
        ys_all = [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = 0.05 * (y_hi - y_lo) or 0.5
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="26" font-size="17" text-anchor="middle">{_escape(title)}</text>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            x = px(t)
            parts.append(f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" stroke="#dddddd"/>')
            parts.append(
                f'<text x="{x:.2f}" y="{_H - _MB + 18}" font-size="12" text-anchor="middle">{t:g}</text>'
            )
    for t in _nice_ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            y = py(t)
            parts.append(f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" stroke="#dddddd"/>')
            parts.append(
                f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{t:g}</text>'
            )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" font-size="13" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT + _H - _MB) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {(_MT + _H - _MB) / 2:.1f})">{_escape(ylabel)}</text>'
    )

    for y, label in hlines:
        yy = py(y)
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_W - _MR}" y2="{yy:.2f}" '
            f'stroke="#888888" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{yy - 5:.2f}" font-size="11" fill="#666666" '
            f'text-anchor="end">{_escape(label)}</text>'
        )

    legend_y = _MT + 16
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(float(x)):.2f},{py(float(y)):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(float(y))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        lx = _ML + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{legend_y}" font-size="12">{_escape(label)}</text>')
        legend_y += 17

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(out_dir: str, name: str, content: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.svg"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
