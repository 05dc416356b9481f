"""Dependency-free SVG rendering of the study's chart types.

The text renderers in :mod:`repro.report.render` are for terminals and
logs; these produce standalone ``.svg`` documents (no matplotlib — the
toolkit stays pure) for the three chart forms the paper's figures use:
line charts (joint progress), scatter plots (duration vs synchronicity)
and grouped bar charts (histograms, attainment).
"""

from __future__ import annotations

from html import escape
from typing import Mapping, Sequence

#: A colour-blind-safe categorical palette (Okabe–Ito).
PALETTE = (
    "#0072B2",  # blue
    "#E69F00",  # orange
    "#009E73",  # green
    "#CC79A7",  # magenta
    "#56B4E9",  # sky
    "#D55E00",  # vermilion
    "#F0E442",  # yellow
    "#000000",  # black
)

_MARGIN = 48
_FONT = "font-family='sans-serif' font-size='11'"


def _document(width: int, height: int, body: list[str], title: str) -> str:
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
    ]
    if title:
        parts.append(
            f"<text x='{width / 2:.0f}' y='18' text-anchor='middle' "
            f"font-family='sans-serif' font-size='14'>"
            f"{escape(title, quote=False)}</text>"
        )
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts)


def _axes(
    width: int,
    height: int,
    x_label: str,
    y_label: str,
    x_range: tuple[float, float],
    y_range: tuple[float, float],
    *,
    ticks: int = 5,
) -> list[str]:
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - _MARGIN // 2, _MARGIN // 2 + 12
    parts = [
        f"<line x1='{x0}' y1='{y0}' x2='{x1}' y2='{y0}' stroke='black'/>",
        f"<line x1='{x0}' y1='{y0}' x2='{x0}' y2='{y1}' stroke='black'/>",
        f"<text x='{(x0 + x1) / 2:.0f}' y='{height - 8}' "
        f"text-anchor='middle' {_FONT}>{escape(x_label, quote=False)}</text>",
        f"<text x='14' y='{(y0 + y1) / 2:.0f}' text-anchor='middle' "
        f"{_FONT} transform='rotate(-90 14 {(y0 + y1) / 2:.0f})'>"
        f"{escape(y_label, quote=False)}</text>",
    ]
    for i in range(ticks + 1):
        fx = i / ticks
        x_value = x_range[0] + fx * (x_range[1] - x_range[0])
        px = x0 + fx * (x1 - x0)
        parts.append(
            f"<line x1='{px:.1f}' y1='{y0}' x2='{px:.1f}' y2='{y0 + 4}' "
            "stroke='black'/>"
        )
        parts.append(
            f"<text x='{px:.1f}' y='{y0 + 16}' text-anchor='middle' "
            f"{_FONT}>{x_value:g}</text>"
        )
        y_value = y_range[0] + fx * (y_range[1] - y_range[0])
        py = y0 - fx * (y0 - y1)
        parts.append(
            f"<line x1='{x0 - 4}' y1='{py:.1f}' x2='{x0}' y2='{py:.1f}' "
            "stroke='black'/>"
        )
        parts.append(
            f"<text x='{x0 - 7}' y='{py + 4:.1f}' text-anchor='end' "
            f"{_FONT}>{y_value:g}</text>"
        )
    return parts


def _legend(names: Sequence[str], width: int) -> list[str]:
    parts = []
    x = _MARGIN
    y = 34
    for i, name in enumerate(names):
        colour = PALETTE[i % len(PALETTE)]
        parts.append(
            f"<rect x='{x}' y='{y - 9}' width='10' height='10' "
            f"fill='{colour}'/>"
        )
        parts.append(
            f"<text x='{x + 14}' y='{y}' {_FONT}>"
            f"{escape(name, quote=False)}</text>"
        )
        x += 14 + 7 * len(name) + 18
    return parts


def svg_line_chart(
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    x_label: str = "month",
    y_label: str = "cumulative fraction",
    width: int = 640,
    height: int = 400,
) -> str:
    """A multi-series line chart (joint progress diagrams)."""
    lengths = {len(s) for s in series.values()}
    if len(lengths) != 1 or 0 in lengths:
        raise ValueError("series must be non-empty and equally long")
    (n,) = lengths
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - _MARGIN // 2, _MARGIN // 2 + 12
    body = _axes(
        width, height, x_label, y_label, (0, max(1, n - 1)), (0.0, 1.0)
    )
    body.extend(_legend(list(series), width))
    for i, (name, values) in enumerate(series.items()):
        colour = PALETTE[i % len(PALETTE)]
        points = []
        for j, value in enumerate(values):
            px = x0 + (j / max(1, n - 1)) * (x1 - x0)
            py = y0 - max(0.0, min(1.0, value)) * (y0 - y1)
            points.append(f"{px:.1f},{py:.1f}")
        body.append(
            f"<polyline points='{' '.join(points)}' fill='none' "
            f"stroke='{colour}' stroke-width='2'/>"
        )
    return _document(width, height, body, title)


def svg_scatter(
    points: Sequence[tuple[float, float, str]],
    *,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    width: int = 640,
    height: int = 400,
) -> str:
    """A scatter plot; the third tuple element is the series name."""
    if not points:
        raise ValueError("no points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    names = list(dict.fromkeys(p[2] for p in points))
    colour_of = {
        name: PALETTE[i % len(PALETTE)] for i, name in enumerate(names)
    }
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - _MARGIN // 2, _MARGIN // 2 + 12
    body = _axes(width, height, x_label, y_label, (x_lo, x_hi), (y_lo, y_hi))
    body.extend(_legend(names, width))
    for x, y, name in points:
        px = x0 + (x - x_lo) / x_span * (x1 - x0)
        py = y0 - (y - y_lo) / y_span * (y0 - y1)
        body.append(
            f"<circle cx='{px:.1f}' cy='{py:.1f}' r='3.5' "
            f"fill='{colour_of[name]}' fill-opacity='0.75'/>"
        )
    return _document(width, height, body, title)


def svg_bar_chart(
    labels: Sequence[str],
    counts: Sequence[float],
    *,
    title: str = "",
    y_label: str = "projects",
    width: int = 640,
    height: int = 400,
) -> str:
    """A vertical bar chart (Fig. 4-style histograms)."""
    if len(labels) != len(counts):
        raise ValueError("labels and counts must align")
    if not labels:
        raise ValueError("no bars")
    peak = max(counts) or 1.0
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - _MARGIN // 2, _MARGIN // 2 + 12
    slot = (x1 - x0) / len(labels)
    bar_width = slot * 0.7
    body = _axes(
        width, height, "", y_label, (0, len(labels)), (0, peak), ticks=4
    )
    for i, (label, count) in enumerate(zip(labels, counts)):
        bar_height = (count / peak) * (y0 - y1)
        px = x0 + i * slot + (slot - bar_width) / 2
        py = y0 - bar_height
        body.append(
            f"<rect x='{px:.1f}' y='{py:.1f}' width='{bar_width:.1f}' "
            f"height='{bar_height:.1f}' fill='{PALETTE[0]}'/>"
        )
        body.append(
            f"<text x='{px + bar_width / 2:.1f}' y='{y0 + 16}' "
            f"text-anchor='middle' {_FONT}>{escape(label, quote=False)}</text>"
        )
        body.append(
            f"<text x='{px + bar_width / 2:.1f}' y='{py - 4:.1f}' "
            f"text-anchor='middle' {_FONT}>{count:g}</text>"
        )
    return _document(width, height, body, title)
