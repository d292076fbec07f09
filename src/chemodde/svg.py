"""Minimal self-contained SVG line charts.

One file, no external references: an axes box, tick labels, one polyline
per series and a small legend.  Line styles follow the house convention
for chemostat plots: feed dashed black, substrate dotted blue, biomass
solid red.  Polyline points are written with two decimals, exactly as
``"%.2f"`` would, from arrays (``formatting.pixels``), a block of points
at a time.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import formatting
from .errors import UsageError

WIDTH = 720
HEIGHT = 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 58, 16, 34, 40
DBL_MAX = sys.float_info.max

STYLE_FEED = ("black", "8 5")
STYLE_SUBSTRATE = ("blue", "2 4")
STYLE_BIOMASS = ("red", None)


# polyline points mapped and formatted at a time: memory stays bounded by
# the block whatever n is, and a block is large enough that numpy's
# per-call cost is small beside its per-point cost
POINT_BLOCK = 4096


def _polyline_blocks(cleaned, sx, sy) -> list:
    """For each series, the "x,y x,y ..." text of its points.  Block lo of
    every series is mapped and formatted as one matrix of characters, an
    x cell and a comma, a y cell and a space per point (formatting.pixels),
    from which the NUL padding is dropped; a series whose x block holds
    the same bits as the series before reuses that series' x cells."""
    texts = [[] for _ in cleaned]
    for lo in range(0, max(len(xs) for _, xs, _, _ in cleaned), POINT_BLOCK):
        xb = x_text = None
        for j, (_, xs, ys, _) in enumerate(cleaned):
            if lo >= len(xs):
                continue
            # sx/sy on an array do, per element, the float operations they
            # do on one point, so the pixels are those of a per-point loop
            block = xs[lo : lo + POINT_BLOCK]
            if xb is None or not np.array_equal(block.view(np.int64), xb.view(np.int64)):
                xb, x_text = block, formatting.pixels(sx(block), ",").view(np.uint32)
            y_text = formatting.pixels(sy(ys[lo : lo + POINT_BLOCK]), " ").view(np.uint32)
            # the matrix is written into a bytearray, so that its text is
            # translated without a copy to bytes first
            buf = bytearray(x_text.nbytes + y_text.nbytes)
            rows = np.frombuffer(buf, dtype=np.uint32).reshape(len(y_text), -1)
            np.concatenate([x_text, y_text], axis=1, out=rows)
            texts[j].append(buf.translate(None, b"\0"))
    for blocks in texts:
        del blocks[-1][-1]  # the space after the last point
    return [b"".join(blocks).decode() for blocks in texts]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_chart(title: str, series) -> str:
    """Render series = [(label, xs, ys, (color, dasharray)), ...] to SVG text.

    Non-finite points are dropped per series; finite values up to the
    largest double stay inside the plot box.  Points are mapped and
    formatted POINT_BLOCK at a time, each block of a series as one matrix
    of characters; series with the same x values in a block format them
    once.  Raises UsageError when there is nothing to draw.
    """
    cleaned = []
    for label, xs, ys, style in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            cleaned.append((label, xs[keep], ys[keep], style))
    if not cleaned:
        raise UsageError("nothing to plot: all series are empty or non-finite")

    x_min = min(float(xs.min()) for _, xs, _, _ in cleaned)
    x_max = max(float(xs.max()) for _, xs, _, _ in cleaned)
    y_min = min(float(ys.min()) for _, _, ys, _ in cleaned)
    y_max = max(float(ys.max()) for _, _, ys, _ in cleaned)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        # 1.0, or one ulp where adding 1.0 rounds back to y_min (|y| >= 2**53)
        y_max = y_min + max(1.0, abs(y_min) * 2.0**-52)
    # Near DBL_MAX the padded range is clamped to finite values and the
    # mapping works at scale k = 1/8, where four times the span stays
    # finite; on ordinary ranges both are exact no-ops (k = 1).
    pad = 0.05 * (y_max - y_min)
    y_min = max(y_min - pad, -DBL_MAX)
    y_max = min(y_max + pad, DBL_MAX)
    k = 1.0 if math.isfinite(4.0 * (y_max - y_min)) else 0.125
    top, span = y_max * k, y_max * k - y_min * k

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return MARGIN_T + (top - y * k) / span * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]

    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = min((y_min * k + span * i / 4) / k, DBL_MAX)
        out.append(
            f'<text x="{sx(fx):.1f}" y="{HEIGHT - MARGIN_B + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(fx)}</text>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6:.1f}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(fy)}</text>'
        )

    for (_, _, _, (color, dash)), points in zip(cleaned, _polyline_blocks(cleaned, sx, sy)):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.4"{dash_attr} '
            f'points="{points}"/>'
        )

    ly = MARGIN_T + 14
    for label, _, _, (color, dash) in cleaned:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lx = WIDTH - MARGIN_R - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 30}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>'
        )
        out.append(
            f'<text x="{lx + 36}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
        ly += 16

    out.append("</svg>")
    out.append("")  # the final newline, without a second copy of the text
    return "\n".join(out)
