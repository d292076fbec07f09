"""Minimal self-contained SVG line charts.

One file, no external references: an axes box, tick labels, one polyline
per series and a small legend.  Line styles follow the house convention
for chemostat plots: feed dashed black, substrate dotted blue, biomass
solid red.  Points are written as ``"%.2f"`` of their plot-box positions,
from arrays (``formatting.pixels``), a block at a time; both axes keep a
finite range near the largest double and widen an empty one (``_axis``).
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


def _axis(lo, hi, pad):
    """(a, b, k, ticks) of an axis whose data run from lo to hi: v lies at
    (v * k - a) / (b - a) along it, and ticks are the values at its
    quarters.  An empty range is widened by 1.0, or by about an ulp where
    that rounds back to lo (|lo| >= 2**53), downwards at the top of the
    doubles; the range is padded by pad times its span and clamped to
    finite values, and k = 1/8 where four times the span overflows.  On
    ordinary ranges the clamp and k = 1 are exact no-ops."""
    if hi == lo:
        w = max(1.0, abs(lo) * 2.0**-52)
        lo, hi = (lo, lo + w) if lo + w <= DBL_MAX else (lo - w, lo)
    if pad:
        pad *= hi - lo
        lo, hi = max(lo - pad, -DBL_MAX), min(hi + pad, DBL_MAX)
    k = 1.0 if math.isfinite(4.0 * (hi - lo)) else 0.125
    a, b = lo * k, hi * k
    return a, b, k, [min((a + (b - a) * i / 4) / k, DBL_MAX) for i in range(5)]


def _labels(ticks) -> list:
    """Tick labels with the least precision, from 6 up to 17 significant
    digits, at which distinct tick values get distinct labels."""
    for digits in range(6, 18):
        labels = [f"{v:.{digits}g}" for v in ticks]
        if len(set(labels)) == len(set(ticks)):
            break
    return labels


def line_chart(title: str, series) -> str:
    """Render series = [(label, xs, ys, (color, dasharray)), ...] to SVG text.

    Non-finite points are dropped per series.  x and y follow one axis
    rule (_axis, y padded by 5%): a point's coordinates are "%.2f" of its
    position in the plot box, inside it for any finite values, and tick
    labels are finite and tell distinct ticks apart (_labels).  Points are
    mapped and formatted POINT_BLOCK at a time, each block of a series as
    one matrix of characters; series with the same x values in a block
    format them once.  Raises UsageError when there is nothing to draw.
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

    x0, x1, kx, x_ticks = _axis(
        min(float(xs.min()) for _, xs, _, _ in cleaned), max(float(xs.max()) for _, xs, _, _ in cleaned), 0.0
    )
    y0, y1, ky, y_ticks = _axis(
        min(float(ys.min()) for _, _, ys, _ in cleaned), max(float(ys.max()) for _, _, ys, _ in cleaned), 0.05
    )
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x * kx - x0) / (x1 - x0) * plot_w

    def sy(y):
        return MARGIN_T + (y1 - y * ky) / (y1 - y0) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]

    for fx, fy, x_label, y_label in zip(x_ticks, y_ticks, _labels(x_ticks), _labels(y_ticks)):
        out.append(
            f'<text x="{sx(fx):.1f}" y="{HEIGHT - MARGIN_B + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_label}</text>'
        )
        out.append(
            f'<text x="{MARGIN_L - 6:.1f}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_label}</text>'
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
