"""Minimal SVG line plots (no external plotting dependency).

Renders bundles of (t, x) series as polylines inside a fixed viewport with
a light frame, axis labels and tick labels — enough to eyeball the
trajectory bundles emitted by the command-line runner.
"""

from __future__ import annotations

import numpy as np

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f",
)


def _fmt(v: float) -> str:
    return "%.6g" % v


def render_lines(series, title: str) -> str:
    """Render a list of (t, x) pairs as an SVG document string."""
    if not series:
        raise ValueError("nothing to plot")
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not np.any(finite):
        raise ValueError("no finite points to plot")
    x_lo, x_hi = float(np.min(xs_all[finite])), float(np.max(xs_all[finite]))
    y_lo, y_hi = float(np.min(ys_all[finite])), float(np.max(ys_all[finite]))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    width, height, margin = 640, 440, 50  # viewport and frame inset, px
    inner_w = width - 2 * margin
    inner_h = height - 2 * margin

    def to_px(x, y):
        px = margin + (x - x_lo) / (x_hi - x_lo) * inner_w
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * inner_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    parts += [
        f'<text x="{width / 2}" y="{margin / 2 + 5}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">t</text>',
        f'<text x="14" y="{height / 2}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {height / 2})">x</text>',
    ]
    # Corner tick labels.
    for vx, anchor in ((x_lo, "start"), (x_hi, "end")):
        px, _ = to_px(vx, y_lo)
        parts.append(
            f'<text x="{_fmt(px)}" y="{height - margin + 16}" '
            f'text-anchor="{anchor}" font-family="sans-serif" '
            f'font-size="11">{_fmt(vx)}</text>'
        )
    for vy in (y_lo, y_hi):
        _, py = to_px(x_lo, vy)
        parts.append(
            f'<text x="{margin - 4}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(vy)}</text>'
        )

    for k, (xs, ys) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        good = np.isfinite(xs) & np.isfinite(ys)
        if np.count_nonzero(good) < 2:
            continue
        px, py = to_px(xs[good], ys[good])
        pts = ["%.6g,%.6g" % p for p in zip(px.tolist(), py.tolist())]
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1" '
            f'points="{" ".join(pts)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
