"""Minimal self-contained SVG line charts.

One file, no external references: an axes box, tick labels, one polyline
per series and a small legend.  Line styles follow the house convention
for chemostat plots: feed dashed black, substrate dotted blue, biomass
solid red.  Points are written as ``"%.2f"`` writes their positions in
the plot box, which both axes keep finite and inside the box: an axis
keeps a finite range near the largest double and widens an empty one
(``_axis``).  The text of a whole polyline comes from one numpy pass,
exact integer rounding of each position to hundredths and a byte matrix
of its digits (``_points``), not from a format per point.

A polyline holds only the points M4 keeps (Jugel et al., "M4: A
Visualization-Oriented Time Series Data Aggregation", PVLDB 7(10), 2014):
of each run of consecutive points in one pixel column of the plot box,
the first, the last and the first of the lowest and of the highest y, in
their order.  The line drawn at the chart's 720x420 size is the same as
that through every point.  The SVG text differs from that through every
point only where a run holds a point that is none of the four, which
takes a run of three or more, and a dash pattern may then start at
another phase along a jagged series.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import UsageError

WIDTH = 720
HEIGHT = 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 58, 16, 34, 40
DBL_MAX = sys.float_info.max

STYLE_FEED = ("black", "8 5")
STYLE_SUBSTRATE = ("blue", "2 4")
STYLE_BIOMASS = ("red", None)

# the characters XML text must escape; xml.sax.saxutils.escape does the
# same, but importing it imports urllib.request, http.client and ssl
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _finite(series):
    """(label, xs, ys, style) of each series with a finite point, its
    non-finite points dropped."""
    for label, xs, ys, style in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if not keep.all():
            xs, ys = xs[keep], ys[keep]
        if len(xs):
            yield label, xs, ys, style


def _m4(columns, ys):
    """Mask of the points M4 keeps of a series whose points lie in the
    pixel columns `columns`: of each run of consecutive points in one
    column, the first, the last and the first at the run's least and at
    its greatest y."""
    starts = np.flatnonzero(columns[1:] != columns[:-1]) + 1
    keep = np.zeros(len(ys), dtype=bool)
    keep[[0, -1]] = True
    keep[starts - 1] = keep[starts] = True
    starts = np.r_[0, starts]
    lengths = np.diff(starts, append=len(ys))
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(ys == np.repeat(extreme.reduceat(ys, starts), lengths))
        # every run holds a hit, so the first hit at or after a run's start
        # is that run's first
        keep[hits[np.searchsorted(hits, starts)]] = True
    return keep


def _points(px, py) -> str:
    """The "x,y x,y ..." text of a polyline whose points lie at positions
    px, py: the bytes "%.2f" writes for each, that is, the double's exact
    value rounded to hundredths, half to even.  The domain is the plot box,
    where _axis keeps every position: 0 <= v < 1000, -0.0 excluded; a value
    outside it raises ValueError rather than being written wrong.

    Exact integer arithmetic: v = f * 2**e with M = f * 2**53 an integer,
    so 100 v = 100 M / 2**(53 - e), and 100 M < 2**60 below 1000.  The
    shift is capped at 62, where 100 v < 1/4 rounds to 0 as the capped
    quotient does.  The hundredths go into 8-byte cells, "dddd.dd" and a
    separator; leading zeros of the integer part are NUL, which one
    translate drops."""
    v = np.empty(2 * len(px))
    v[0::2], v[1::2] = px, py
    if (np.signbit(v) | ~(v < 1000.0)).any():
        raise ValueError("a polyline position lies outside [0, 1000)")
    f, e = np.frexp(v)
    n = (f * 2.0**53).astype(np.int64) * 100
    k = np.minimum(53 - e, 62).astype(np.int64)
    q = n >> k
    rest, half = n - (q << k), np.int64(1) << (k - 1)
    q = (q + ((rest > half) | (rest == half) & (q & 1 == 1))).astype(np.int32)
    cells = np.zeros((len(v), 8), dtype=np.uint8)
    for j in (6, 5, 3, 2, 1, 0):
        tens = q // 10
        cells[:, j] = q - 10 * tens + ord("0")
        if j < 3:  # tens, hundreds, thousands: NUL where no digit is left
            cells[:, j] *= q > 0
        q = tens
    cells[:, 4] = ord(".")
    cells[0::2, 7], cells[1::2, 7] = ord(","), ord(" ")
    return cells.tobytes().translate(None, b"\0")[:-1].decode()


def _axis(lo, hi, pad):
    """(a, b, k, ticks) of an axis whose data run from lo to hi: v lies at
    (v * k - a) / (b - a) along it, and ticks are the values at its
    quarters.  An empty range is widened by 1.0, or by at least four ulps
    of lo where that is wider (|lo| >= 2**50), so that the five ticks are
    distinct doubles, downwards at the top of the doubles; the range is
    padded by pad times its span and clamped to finite values, and k = 1/8
    where four times the span overflows.  On ordinary ranges the clamp and
    k = 1 are exact no-ops."""
    if hi == lo:
        w = max(1.0, abs(lo) * 2.0**-50)
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


def chart_pieces(title: str, series) -> list:
    """The SVG text of series = [(label, xs, ys, (color, dasharray)), ...]
    as a list of pieces, each ending in a newline, for a writer to take in
    turn.

    Non-finite points are dropped per series.  x and y follow one axis
    rule (_axis, y padded by 5%): a point's coordinates are "%.2f" of its
    position in the plot box, inside it for any finite values, and tick
    labels are finite and tell distinct ticks apart (_labels).  The x axis
    is fixed first, from every finite point; then each series keeps only
    the points M4 keeps (_m4) of the pixel columns, the integer parts of
    their x offsets in the plot box, which include each series' least and
    greatest y, and the y axis is fixed from those.  The title and the
    labels are escaped as XML text.  Raises UsageError when there is
    nothing to draw.
    """
    # a series' finite points are found again after the x axis is fixed,
    # rather than kept, so that at most one series is held in full at a time
    x_ranges = [(float(xs.min()), float(xs.max())) for _, xs, _, _ in _finite(series)]
    if not x_ranges:
        raise UsageError("nothing to plot: all series are empty or non-finite")
    x0, x1, kx, x_ticks = _axis(min(lo for lo, _ in x_ranges), max(hi for _, hi in x_ranges), 0.0)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # ox, sx and sy do on an array, per element, the float operations they
    # do on one value, so a polyline point and a tick are placed alike
    def ox(x):
        return (x * kx - x0) / (x1 - x0) * plot_w

    def sx(x):
        return MARGIN_L + ox(x)

    drawn = []
    for label, xs, ys, style in _finite(series):
        keep = _m4(np.clip(np.floor(ox(xs)), 0, plot_w - 1), ys)
        drawn.append((label, xs[keep], ys[keep], style))
    y0, y1, ky, y_ticks = _axis(
        min(float(ys.min()) for _, _, ys, _ in drawn), max(float(ys.max()) for _, _, ys, _ in drawn), 0.05
    )

    def sy(y):
        return MARGIN_T + (y1 - y * ky) / (y1 - y0) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title.translate(_XML_TEXT)}</text>\n',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>\n',
    ]

    for fx, fy, x_label, y_label in zip(x_ticks, y_ticks, _labels(x_ticks), _labels(y_ticks)):
        out.append(
            f'<text x="{sx(fx):.1f}" y="{HEIGHT - MARGIN_B + 16:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_label}</text>\n'
        )
        out.append(
            f'<text x="{MARGIN_L - 6:.1f}" y="{sy(fy) + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_label}</text>\n'
        )

    for _, xs, ys, (color, dash) in drawn:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.4"{dash_attr} '
            f'points="{_points(sx(xs), sy(ys))}"/>\n'
        )

    ly = MARGIN_T + 14
    for label, _, _, (color, dash) in drawn:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lx = WIDTH - MARGIN_R - 150
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 30}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash_attr}/>\n'
        )
        out.append(
            f'<text x="{lx + 36}" y="{ly}" font-family="sans-serif" font-size="11">'
            f"{label.translate(_XML_TEXT)}</text>\n"
        )
        ly += 16

    out.append("</svg>\n")
    return out
