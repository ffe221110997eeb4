"""Deterministic SVG scatter plots.

Pure text generation: the same points, circles, and captions always give
byte-identical output. The viewport is square with equal unit scaling on
both axes and the origin pinned to the canvas center, marked by a
crosshair.
"""

from __future__ import annotations

from typing import Sequence

CANVAS = 800
MARGIN = 70
POINT_RADIUS = 4


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_svg_plot(
    points: Sequence[tuple[str, float, float]],
    circles: Sequence[tuple[float, float, float]] = (),
    captions: tuple[str, str] = ("axis 1", "axis 2"),
) -> str:
    """Render labeled points and optional circles to an SVG document.

    ``points`` holds (label, x, y) in data units; ``circles`` holds
    (center_x, center_y, radius). The data extent is padded by 10% and
    centered on the origin.
    """
    extent = 0.0
    for _, x, y in points:
        extent = max(extent, abs(x), abs(y))
    for cx, cy, r in circles:
        extent = max(extent, abs(cx) + r, abs(cy) + r)
    extent = extent * 1.1 if extent > 0.0 else 1.0
    half = CANVAS / 2.0
    scale = (half - MARGIN) / extent

    def px(x: float) -> float:
        return half + x * scale

    def py(y: float) -> float:
        return half - y * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS}" height="{CANVAS}" viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="white"/>',
        f'<line x1="{_fmt(MARGIN)}" y1="{_fmt(half)}" x2="{_fmt(CANVAS - MARGIN)}" '
        f'y2="{_fmt(half)}" stroke="#999999" stroke-width="1"/>',
        f'<line x1="{_fmt(half)}" y1="{_fmt(MARGIN)}" x2="{_fmt(half)}" '
        f'y2="{_fmt(CANVAS - MARGIN)}" stroke="#999999" stroke-width="1"/>',
    ]
    for cx, cy, r in circles:
        parts.append(
            f'<circle cx="{_fmt(px(cx))}" cy="{_fmt(py(cy))}" r="{_fmt(abs(r) * scale)}" '
            f'fill="none" stroke="#4477aa" stroke-width="1"/>'
        )
    for label, x, y in points:
        parts.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="{POINT_RADIUS}" fill="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px(x) + 7)}" y="{_fmt(py(y) - 7)}" '
            f'font-family="monospace" font-size="14">{_escape(label)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(half)}" y="{_fmt(CANVAS - MARGIN / 3)}" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{_escape(captions[0])}</text>'
    )
    parts.append(
        f'<text x="{_fmt(MARGIN / 3)}" y="{_fmt(half)}" text-anchor="middle" '
        f'font-family="monospace" font-size="15" '
        f'transform="rotate(-90 {_fmt(MARGIN / 3)} {_fmt(half)})">{_escape(captions[1])}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
