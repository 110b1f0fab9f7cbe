"""Flat-file output: CSV tables with JSON twins, plus self-contained SVG charts.

Floats are written with 17 significant digits so every CSV cell parses back
to the exact double that produced it; the JSON twin holds the same rows as
native types, making the two files interchangeable. The twin has the layout
of json.dump(..., indent=1), byte for byte, but its rows are encoded by the C
encoder, which json.dump never reaches with an indent (see _encode_rows).
Both files are streamed in blocks of _BLOCK rows. Charts are plain
hand-assembled SVG with no external references, and their content is a pure
function of the data, so reruns produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from typing import List, Optional, Sequence, Tuple


def format_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# Rows per write: big enough for the C encoder and %-formatting to dominate,
# small enough that no whole-file string is ever held.
_BLOCK = 512

# Encodes a list of rows as [[a,\n   b],\n   [c,\n   d]]: the indent-1 layout of
# the twin between scalars. A raw newline never occurs inside an encoded string
# (ensure_ascii escapes it), so "],\n   [" can only be a seam between rows, and
# one call per block can replace them all: faster than one call per row.
_encode_rows = json.JSONEncoder(separators=(",\n   ", ": ")).encode
_ROW_SEAM = "\n  ],\n  [\n   "


def _csv_block(block: Sequence[Sequence]) -> str:
    """block's CSV lines: a column of exact floats as %.17g, any other through format_cell.

    Raises ValueError on rows of unequal length, which the column-wise
    formatting would cut, and on rows with no cell, which the twin's seams
    cannot hold.
    """
    fmts, cols = [], []
    for col in zip(*block, strict=True):
        if set(map(type, col)) == {float}:
            fmts.append("%.17g")
            cols.append(col)
        else:
            fmts.append("%s")
            cols.append(list(map(format_cell, col)))
    if not cols:
        raise ValueError("a table row needs at least one cell")
    return (",".join(fmts) + "\n") * len(block) % tuple(chain.from_iterable(zip(*cols)))


def write_table(out_dir: str, name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write name.csv and its JSON twin name.json under out_dir.

    Every row holds one scalar per column. name.json is byte for byte
    json.dump({"columns": columns, "rows": rows}, indent=1) plus a newline,
    and each CSV line is its row's cells through format_cell, joined by commas.
    Both files are written _BLOCK rows at a time, the twin's rows by the C encoder.
    """
    os.makedirs(out_dir, exist_ok=True)
    columns = list(columns)
    blocks = [rows[i:i + _BLOCK] for i in range(0, len(rows), _BLOCK)]
    with open(os.path.join(out_dir, f"{name}.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            fh.write(_csv_block(block))
    empty = json.dumps({"columns": columns, "rows": []}, indent=1)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        if not blocks:
            fh.write(empty + "\n")
            return
        fh.write(empty[:-4] + "[\n  [\n   ")  # up to '"rows": '
        for i, block in enumerate(blocks):
            if i:
                fh.write(_ROW_SEAM)
            fh.write(_encode_rows(list(map(list, block)))[2:-2].replace("],\n   [", _ROW_SEAM))
        fh.write("\n  ]\n ]\n}\n")


def write_json(out_dir: str, name: str, payload) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _escape(text: str) -> str:
    """text with &, < and > as XML entities, & first so entities are not escaped twice."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> List[float]:
    """Distinct round tick positions in [lo, hi]; deterministic nice-number steps.

    A tick is rounded to the step's decimals, and to no fewer than 12 so that
    float noise from summing steps is cleared; steps shrink down to the
    spacing of the doubles in the range, subnormal ones included.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(target - 1, 1)
    if raw == math.inf:
        # hi - lo overflows although hi and lo are finite: the halves' difference cannot
        raw = (0.5 * hi - 0.5 * lo) / max(target - 1, 1) * 2.0
    exp = math.floor(math.log10(max(raw, 5e-324)))
    mag = 10.0 ** exp
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    # no step below the widest gap between doubles in [lo, hi], where ticks would repeat
    step = max(step, hi - math.nextafter(hi, -math.inf), math.nextafter(lo, math.inf) - lo)
    digits = max(12, 1 - exp)  # a multiple of mult * 10**exp has at most 1 - exp decimals
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    end = hi + 1e-9 * step
    if end == math.inf:  # hi within 1e-9 step of the largest double
        end = hi
    while t <= end:
        tick = round(t, digits)
        if lo <= tick <= hi:
            ticks.append(tick)
        t += step
    return ticks or [lo, hi]


_PALETTE = ("#1f6fb4", "#c23b22", "#2a9d5c", "#8e5bb5", "#c98a1c", "#3aa6a6")

_W, _H = 960, 540
_ML, _MR, _MT, _MB = 72, 24, 48, 56
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # plot area width and height
_Y0 = _H - _MB  # y pixel of the plot's bottom edge


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
    dx, dy = x_hi - x_lo, y_hi - y_lo

    def px(x: float) -> float:
        return _ML + (x - x_lo) / dx * _PW

    def py(y: float) -> float:
        return _Y0 - (y - y_lo) / dy * _PH

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
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" '
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
        # px and py inline, same arithmetic in the same order
        pts = " ".join([
            "%.2f,%.2f" % (_ML + (x - x_lo) / dx * _PW, _Y0 - (y - y_lo) / dy * _PH)
            for x, y in zip(map(float, xs), map(float, ys))
            if math.isfinite(y)
        ])
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
