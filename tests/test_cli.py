import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from chemodde import (
    ChemostatParams, Constant, Monod, UsageError, analysis, core, exponents, formatting, periodic_phi, phi_sequence,
    svg, washout_periodic, washout_sequence,
)
from chemodde.cli import (
    CSV_BLOCK_ROWS, COMMANDS, _cycle, _simulation_bundle, build_parser, emit_csv, emit_json, emit_svg, fig1_params,
    fig2_init, fig2_params, run,
)
from chemodde.config import _KINDS, _KNOWN_KEYS
from chemodde.washout import default_tail_depth

FIG2_CFG = """
schema = 1
model.E = 0.125
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 500
input.offset = 0.6
init.s = 0.5 0.5 0.5 0.5 0.5 0.5
init.x = 0.2 0.2 0.2 0.2 0.2 0.2
run.horizon = 800
"""

SMALL_CFG = """
schema = 1
model.E = 0.2
model.r = 0
uptake.kind = linear
uptake.slope = 0.4
input.kind = constant
input.value = 1.0
init.s = 0.4
init.x = 0.3
run.horizon = 300
"""


@pytest.fixture
def fig2_cfg(tmp_path):
    path = tmp_path / "fig2.cfg"
    path.write_text(FIG2_CFG)
    return path


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def test_emit_csv_shape(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(path, ["a", "b", "c"], [[1.0, 2.0], [0.5, 0.25], [3.0, 4.0]])
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert len(lines) == 3


def test_emit_csv_empty_rejected(tmp_path):
    with pytest.raises(UsageError):
        emit_csv(tmp_path / "t.csv", ["a"], [[]])
    with pytest.raises(UsageError):
        emit_csv(tmp_path / "t.csv", ["a", "b"], [[1.0]])


def test_csv_round_trips_doubles(tmp_path, small_cfg):
    assert run(["simulate", "--config", str(small_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "simulate.csv")
    assert header == ["t", "s0", "z", "s", "x", "y", "deficit"]
    # re-emitting the parsed values reproduces the file byte for byte
    out2 = tmp_path / "again.csv"
    emit_csv(out2, header, [rows[:, i] for i in range(rows.shape[1])])
    assert out2.read_text() == (tmp_path / "simulate.csv").read_text()


# ---------------------------------------------------------------------------
# writers against their cell-by-cell and point-by-point oracles
# ---------------------------------------------------------------------------


def _format_cell(v) -> str:
    """One CSV cell, as emit_csv formatted it cell by cell before it
    formatted whole columns: the oracle of the column-wise writer."""
    f = float(v)
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


B = CSV_BLOCK_ROWS
SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308, 1e-310]
EDGE_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1.5, -2.5, 2.0**53, 1e16, 1e300,
    *SUBNORMALS,
    *(v for big in (1e15, -1e15) for v in (big, math.nextafter(big, 0.0), math.nextafter(big, 2 * big))),
]
EDGE_INTS = [0, -1, 10**15 - 1, -(10**15) + 1, 10**15, -(10**15), 2**53 + 1, 2**63 - 1, -(2**63)]


def _from_pool(draw, pool, n):
    """n values picked from pool, by an rng seeded from the draw."""
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, len(pool), n)
    return [pool[i] for i in picks.tolist()]


# the values a column of each dtype draws from; a table mixes them, so its
# blocks stack as numpy promotes them: int64 with uint64 as float64, int8
# with uint8 as int16 (integer cells), bool alone as bool (float cells)
COLUMN_VALUES = {
    "float64": st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True),
    "int64": st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1),
    "uint64": st.sampled_from([0, 10**15 - 1, 10**15, 2**53 + 1, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    "int32": st.integers(-(2**31), 2**31 - 1),
    "int8": st.integers(-(2**7), 2**7 - 1),
    "uint8": st.integers(0, 2**8 - 1),
    "bool": st.booleans(),
    "float32": st.floats(width=32, allow_nan=True, allow_infinity=True),
}


@st.composite
def _csv_column(draw, n):
    """An array of one of the dtypes above, or a plain Python list of
    floats, of n values drawn from the edge cases above and from arbitrary
    values of the dtype."""
    kind = draw(st.sampled_from([*COLUMN_VALUES, "list"]))
    values = COLUMN_VALUES["float64" if kind == "list" else kind]
    col = _from_pool(draw, draw(st.lists(values, min_size=1, max_size=24)), n)
    return col if kind == "list" else np.array(col, dtype=kind)


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_emit_csv_matches_cell_oracle(tmp_path, n, data):
    columns = data.draw(st.lists(_csv_column(n), min_size=1, max_size=4))
    names = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "t.csv"
    emit_csv(path, names, columns)
    lines = path.read_text().split("\n")
    assert lines[0] == ",".join(names) and lines[-1] == "" and len(lines) == n + 2
    arrays = [np.asarray(c) for c in columns]  # what the per-cell writer indexed
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(a[i]) for a in arrays]


@pytest.mark.parametrize("columns, schubfach", [
    ([np.array([0, -1, 2**63 - 1]), np.array([0, 2**64 - 1, 5], dtype=np.uint64)], True),  # float64
    ([np.array([0, -128, 127], dtype=np.int8), np.array([0, 255, 7], dtype=np.uint8)], False),  # int16
    ([np.array([True, False, True])], True),  # bool
], ids=["int64-uint64", "int8-uint8", "bool"])
def test_emit_csv_routes_a_block_by_its_stacked_dtype(tmp_path, monkeypatch, columns, schubfach):
    shortest, lanes = formatting._shortest, []

    def counting_shortest(bits):
        lanes.append(len(bits))
        return shortest(bits)

    monkeypatch.setattr(formatting, "_shortest", counting_shortest)
    emit_csv(tmp_path / "t.csv", [f"c{i}" for i in range(len(columns))], columns)
    assert bool(lanes) == schubfach
    lines = (tmp_path / "t.csv").read_text().split("\n")[1:-1]
    assert [line.split(",") for line in lines] == [[_format_cell(c[i]) for c in columns] for i in range(3)]


def test_emit_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(7)

    def peak(n):
        columns = [np.arange(n), *(rng.random(n) for _ in range(6))]
        tracemalloc.start()
        try:
            emit_csv(tmp_path / "m.csv", list("tabcdef"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60_000) <= 1.25 * peak(15_000)


def test_emit_csv_peak_memory_does_not_grow_with_repeating_columns(tmp_path):
    # columns that repeat inside a block, and values that recur in every
    # block, are formatted once a block and gathered through np.unique
    def peak(n):
        t = np.arange(n)
        periodic = np.resize(np.sin(2 * np.pi * np.arange(500) / 500), n)  # as a feed repeats
        pairs = (t // 2) / 7  # each value twice, new values in every block
        columns = [t, periodic, np.full(n, 0.75), 0.9 ** t, pairs]  # 0.9**t is 0 from t = 7073
        tracemalloc.start()
        try:
            emit_csv(tmp_path / "m.csv", list("tpcdr"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60_000) <= 1.25 * peak(15_000)


def test_emit_csv_peak_memory_does_not_grow_with_rows_of_a_cycle(tmp_path):
    # six columns that settle into one exact cycle of 500 rows after 2000,
    # as a periodic trajectory does: one cycle's text is kept, not n rows
    rng = np.random.default_rng(11)

    def peak(n):
        columns = [np.arange(n), *(np.r_[rng.random(2000), np.resize(rng.random(500), n - 2000)] for _ in range(6))]
        assert _cycle(columns[1:], n) == (2000, 500)
        tracemalloc.start()
        try:
            emit_csv(tmp_path / "m.csv", list("tabcdef"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60_000) <= 1.25 * peak(15_000)


def _periodic(period, n):
    """n values repeating one period exactly, as a periodic feed repeats."""
    return np.resize(np.sin(2 * np.pi * np.arange(period) / period) / 3, n)


@pytest.mark.parametrize("column", [
    pytest.param(_periodic(500, 3 * B + 7), id="period 500"),
    pytest.param(_periodic(1023, 3 * B + 7), id="period 1023"),
    pytest.param(np.r_[np.full(B, 0.0), np.full(B, -0.0), np.full(B, 0.0)], id="0.0 then -0.0"),
    pytest.param(np.r_[np.full(B, -0.0), [0.0, 0.5], np.full(B, -0.0)], id="-0.0 then 0.0"),
    pytest.param(np.r_[np.full(B + 3, np.nan), [1.5], -np.full(B, np.nan)], id="nan in consecutive blocks"),
    pytest.param(np.tile([1e15, math.nextafter(1e15, 0.0), math.nextafter(1e15, 2e15),
                          -1e15, math.nextafter(-1e15, 0.0)], B), id="1e15 neighbours"),
    pytest.param(np.r_[np.arange(B), np.arange(B) % 7, np.arange(B) + 0.5], id="distinct then repeating"),
    pytest.param(np.resize([0.0, -0.0, np.nan, -np.nan, 1e-310, 0.5, 1e-310], B), id="signed zeros, nans, subnormals"),
])
def test_emit_csv_reuses_cells_inside_a_block_like_the_cell_oracle(tmp_path, column):
    # the column and its reverse, beside an all-distinct time axis
    columns = [np.arange(len(column)), column, column[::-1].copy()]
    emit_csv(tmp_path / "t.csv", ["t", "a", "b"], columns)
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert len(lines) == len(column) + 2 and lines[-1] == ""
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(c[i]) for c in columns]


def test_emit_csv_formats_blocks_then_one_cycle_then_the_first_column(tmp_path, monkeypatch):
    cells, formatted = formatting.cells, []
    shortest, lanes = formatting._shortest, []

    def counting_cells(values):
        formatted.append(values.copy())
        return cells(values)

    def counting_shortest(bits):
        lanes.append(bits.copy())
        return shortest(bits)

    monkeypatch.setattr(formatting, "cells", counting_cells)
    monkeypatch.setattr(formatting, "_shortest", counting_shortest)
    n, start, lag = 3 * B + 7, B + 476, 500
    column = np.r_[np.arange(start) / 7, _periodic(lag, n - start)]
    # a first column that repeats too, and a constant -0.0 column
    columns = [np.arange(n) % 3, column, np.full(n, -0.0)]
    emit_csv(tmp_path / "t.csv", ["t", "a", "z"], columns)
    calls = [
        (columns, 0, B), (columns, B, start),  # the rows before the cycle, in blocks
        (columns[1:], start, start + lag),  # one cycle of the columns after the first
    ]
    assert len(formatted) == len(calls) + 2 and len(lanes) == len(calls)
    for values, bits, (cols, lo, hi) in zip(formatted, lanes, calls):
        # the block as stacked, read as floats; Schubfach then sees each of
        # its distinct bit patterns once, 1.0 standing in for the lanes of
        # zeros, subnormals, nan and the infinities
        block = np.stack([c[lo:hi].astype(float) for c in cols], axis=1)
        assert values.dtype == np.float64
        assert values.view(np.int64).tolist() == block.reshape(-1).view(np.int64).tolist()
        keys = np.unique(block.view(np.int64)).view(np.float64)
        normal = np.isfinite(keys) & (np.abs(keys) >= np.finfo(float).smallest_normal)
        assert bits.tolist() == np.where(normal, np.abs(keys), 1.0).view(np.uint64).tolist()
    # then the integer first column per block, as it is, with no Schubfach
    for values, (lo, hi) in zip(formatted[len(calls):], [(start, start + B), (start + B, n)]):
        assert values.dtype == np.int64 and values.tolist() == columns[0][lo:hi].tolist()
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(c[i]) for c in columns]


def test_emit_csv_writes_extreme_integers_of_a_cycle_region_like_the_cell_oracle(tmp_path):
    # an int64 first column beside columns in a cycle from row start, with
    # values at and beyond the integer route's bounds in the first three
    # blocks of the cycle region, -2**63 alone in its block, and only
    # values inside them in the fourth
    n, start, lag = 4 * B + 7, 476, 500
    t = np.arange(n, dtype=np.int64)
    for lo, values in [(start, [-(2**63), 0, -1]), (start + B, [10**15, -(10**15)]),
                       (start + 2 * B, [2**53 + 1, 2**63 - 1]), (start + 3 * B, [10**15 - 1, -(10**15) + 1])]:
        t[lo + 5 : lo + 5 + len(values)] = values
    columns = [t, np.r_[np.arange(start) / 7, np.resize(np.arange(lag) / 3 + 0.5, n - start)], np.full(n, -0.0)]
    assert _cycle(columns[1:], n) == (start, lag)
    emit_csv(tmp_path / "t.csv", ["t", "a", "z"], columns)
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(c[i]) for c in columns]


def test_fig2_cycle_region_formats_its_time_column_without_schubfach(tmp_path, monkeypatch):
    # at a persistent offset the run ends in an exact cycle: Schubfach sees
    # the distinct values of the blocks before it and one cycle of the
    # columns after t, and no lane of the t blocks after it
    shortest, lanes = formatting._shortest, []

    def counting_shortest(bits):
        lanes.append(len(bits))
        return shortest(bits)

    _, _, cols = _simulation_bundle(fig2_params(0.9), fig2_init(), 20_000)
    columns = [np.asarray(c) for c in cols.values()]
    n = len(columns[0])
    start, lag = _cycle(columns[1:], n)
    assert columns[0].dtype == np.int64 and 0 < lag and n - start > 10 * B

    def distinct(cols, lo, hi):
        block = np.stack([c[lo:hi].astype(float) for c in cols], axis=1)
        return len(np.unique(block.view(np.int64)))

    before = [distinct(columns, lo, min(lo + B, start)) for lo in range(0, start, B)]
    monkeypatch.setattr(formatting, "_shortest", counting_shortest)
    emit_csv(tmp_path / "t.csv", list(cols), columns)
    assert lanes == [*before, distinct(columns[1:], start, start + lag)]


def _cycle_oracle(columns):
    """(start, lag) of the exact cycle the rows of the columns end in, row
    by row on the bits of each cell: the least lag up to B at which the
    last row recurs, and the least start from which every row equals the
    row lag before it; (n, 0) if the last row does not recur."""
    rows = list(zip(*(np.asarray(c, dtype=float).view(np.int64).tolist() for c in columns)))
    n = len(rows)
    lag = next((k for k in range(1, min(B, n - 1) + 1) if rows[-1 - k] == rows[-1]), 0)
    if not lag:
        return n, 0
    start = n - lag
    while start > 0 and rows[start - 1] == rows[start - 1 + lag]:
        start -= 1
    return start, lag


NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0001], dtype=np.int64).view(np.float64)[0]


def _planted_table(seed, lag, start, extra, pooled, width, change, keys):
    """A first column and width columns whose rows end in a planted cycle:
    start rows of their own, then lag rows repeated up to n = start + lag +
    extra rows, drawn from the edge values with repeats (pooled) or as
    distinct values.  change may break the cycle at one cell by -0.0 for
    0.0 or by another nan payload, or replace the cycle by distinct rows
    whose last row copies an earlier one.  The first column is a time axis
    or repeats 0, 1, 2.  Returns the columns."""
    rng = np.random.default_rng(seed)
    n = max(1, start + lag + extra)
    columns = []
    for _ in range(width):
        if pooled:
            cycle = np.array([EDGE_FLOATS[i] for i in rng.integers(0, len(EDGE_FLOATS), lag)])
        else:
            cycle = rng.standard_normal(lag)
        columns.append(np.r_[rng.standard_normal(start), np.resize(cycle, max(n - start, 0))][:n])
    if change != "none" and n > start + lag:
        col, at = columns[0], int(rng.integers(start + lag, n))
        if change == "copied last row":
            for c in columns:
                c[start:] = rng.standard_normal(n - start)
                c[-1] = c[int(rng.integers(max(0, n - 1 - B), n - 1))]
        else:
            pair = (0.0, -0.0) if change == "signed zero" else (math.nan, NAN_PAYLOAD)
            col[start + (at - start) % lag :: lag] = pair[0]  # this cell of every cycle
            col[at] = pair[1]  # but one
    first = np.arange(n) if keys == "time" else np.arange(n) % 3
    return [first, *columns]


_PLANTED = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 5, 500, B - 1, B, B + 1]),
    st.sampled_from([0, 1, B // 2, B, B + 3, 2 * B]),
    st.sampled_from([-1, 0, 1, 2 * B + 5]),
    st.booleans(),
    st.integers(1, 3),
    st.sampled_from(["none", "signed zero", "nan payload", "copied last row"]),
    st.sampled_from(["time", "repeating"]),
)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(plant=_PLANTED)
@example(plant=(1, 1, 0, 2 * B + 5, False, 2, "none", "time"))  # lag 1 from the first row
@example(plant=(2, B, B, 1, False, 3, "none", "time"))  # lag B from a block boundary
@example(plant=(3, B + 1, B // 2, 2 * B + 5, False, 2, "none", "time"))  # too long a lag: no cycle
@example(plant=(4, 500, B + 3, -1, False, 2, "none", "time"))  # n = start + lag - 1
@example(plant=(5, 500, B + 3, 0, False, 2, "none", "time"))  # n = start + lag
@example(plant=(6, 500, B + 3, 1, False, 2, "none", "repeating"))  # n = start + lag + 1
@example(plant=(7, 500, B // 2, 2 * B + 5, True, 3, "signed zero", "time"))
@example(plant=(8, 500, B, 2 * B + 5, True, 2, "nan payload", "time"))
@example(plant=(9, 5, B + 3, 2 * B + 5, False, 2, "copied last row", "repeating"))
def test_emit_csv_writes_a_trailing_cycle_like_the_cell_oracle(tmp_path, plant):
    columns = _planted_table(*plant)
    _, lag, start, extra, pooled, _, change, _ = plant
    n = len(columns[0])
    found = _cycle(columns[1:], n)
    assert found == _cycle_oracle(columns[1:])
    if change == "none" and not pooled and lag <= B and extra > 0:
        assert found == (start, lag)  # distinct values recur only where planted
    path = tmp_path / "t.csv"
    emit_csv(path, [f"c{i}" for i in range(len(columns))], columns)
    lines = path.read_text().split("\n")
    assert len(lines) == n + 2 and lines[-1] == ""
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(c[i]) for c in columns]


def _oracle_axis(lo, hi, pad):
    """The span (a, b) and scale k of one chart axis: an empty range widened
    by 1.0 (by about four ulps or more at |lo| >= 2**50, downwards at the
    top of the doubles), padded by pad times the span, clamped to finite
    values and taken at 1/8 where four times the span overflows."""
    if hi == lo:
        w = max(1.0, abs(lo) * 2.0**-50)
        lo, hi = (lo, lo + w) if math.isfinite(lo + w) else (lo - w, lo)
    if pad:
        lo, hi = max(lo - pad * (hi - lo), -svg.DBL_MAX), min(hi + pad * (hi - lo), svg.DBL_MAX)
    k = 1.0 if math.isfinite(4.0 * (hi - lo)) else 0.125
    return lo * k, hi * k, k


def _point_oracle(series):
    """Per drawn series, every finite point mapped and formatted one point
    at a time: its "%.2f,%.2f" text, its pixel column (the integer part of
    its x offset in the plot box, clipped to the box) and its y."""
    cleaned = []
    for _, xs, ys, _ in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.any():
            cleaned.append((xs[keep].tolist(), ys[keep].tolist()))
    x0, x1, kx = _oracle_axis(min(min(xs) for xs, _ in cleaned), max(max(xs) for xs, _ in cleaned), 0.0)
    y0, y1, ky = _oracle_axis(min(min(ys) for _, ys in cleaned), max(max(ys) for _, ys in cleaned), 0.05)
    plot_w = svg.WIDTH - svg.MARGIN_L - svg.MARGIN_R
    plot_h = svg.HEIGHT - svg.MARGIN_T - svg.MARGIN_B
    out = []
    for xs, ys in cleaned:
        offsets = [(x * kx - x0) / (x1 - x0) * plot_w for x in xs]
        texts = [
            "%.2f,%.2f" % (svg.MARGIN_L + o, svg.MARGIN_T + (y1 - y * ky) / (y1 - y0) * plot_h)
            for o, y in zip(offsets, ys)
        ]
        out.append((texts, [min(max(math.floor(o), 0), plot_w - 1) for o in offsets], ys))
    return out


def _m4_oracle(columns, ys):
    """The runs of consecutive points in one column, as index lists, and
    the indices M4 keeps: of each run, the first, the last and the first at
    its least and at its greatest y."""
    runs = []
    for i, c in enumerate(columns):
        if runs and columns[runs[-1][0]] == c:
            runs[-1].append(i)
        else:
            runs.append([i])
    kept = set()
    for run in runs:
        lo = hi = run[0]
        for i in run:
            if ys[i] < ys[lo]:
                lo = i
            if ys[i] > ys[hi]:
                hi = i
        kept |= {run[0], run[-1], lo, hi}
    return runs, sorted(kept)


def _assert_m4_polylines(text, series):
    """The chart's polylines hold the point oracle's text at exactly the
    indices M4 keeps; every dropped point's y lies within the kept y of its
    run, and a series with at most one point per column is drawn whole."""
    drawn = re.findall(r'points="([^"]*)"', text)
    oracle = _point_oracle(series)
    assert len(drawn) == len(oracle)
    for points, (texts, columns, ys) in zip(drawn, oracle):
        runs, kept = _m4_oracle(columns, ys)
        assert points == " ".join(texts[i] for i in kept)
        kept = set(kept)
        for run in runs:
            run_kept = [ys[i] for i in run if i in kept]
            assert all(min(run_kept) <= ys[i] <= max(run_kept) for i in run)
        if len(runs) == len(texts):
            assert points == " ".join(texts)


# mostly moderate values, sometimes any finite double: near DBL_MAX the
# spans overflow unless the axes guard them
FINITE = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _chart_series(draw):
    """1-3 series of up to 8193 points; x is a time axis or random,
    some points are non-finite, and a series may be constant in x or y."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from([1, 2, 17, 4096, 4097, 8193]))
        shape = draw(st.sampled_from(["time", "random", "constant x", "constant y"]))
        pool = draw(st.lists(FINITE, min_size=1, max_size=16))
        if draw(st.booleans()):
            pool += [math.nan, math.inf, -math.inf]
        xs = np.arange(n, dtype=float) if shape == "time" else np.array(_from_pool(draw, pool, n))
        ys = np.array(_from_pool(draw, pool, n))
        if shape == "constant x":
            xs = np.full(n, draw(FINITE))
        elif shape == "constant y":
            ys = np.full(n, draw(FINITE))
        out.append((f"s{k}", xs, ys, svg.STYLE_BIOMASS))
    return out


N_CHART = 3 * 4096 + 5


@settings(max_examples=60, deadline=None)
@given(series=_chart_series())
@example(series=[("c", np.full(5, 2.0), np.full(5, 3.0), svg.STYLE_FEED)])  # both degenerate axes
@example(series=[("c", [0.0, 1.0, math.nan, 3.0], [1.0, math.inf, 2.0, 0.5], svg.STYLE_FEED)])
@example(series=[  # one shared x axis of 12,293 points; y repeats with a period of 1000
    (f"s{k}", np.arange(N_CHART + 0.0), k + _periodic(1000, N_CHART), svg.STYLE_FEED) for k in range(3)
])
def test_line_chart_points_match_point_oracle(series):
    drawable = any(np.any(np.isfinite(xs) & np.isfinite(ys)) for _, xs, ys, _ in series)
    if not drawable:
        with pytest.raises(UsageError):
            svg.chart_pieces("t", series)
        return
    _assert_m4_polylines("".join(svg.chart_pieces("t", series)), series)


def _tick_labels(text):
    """The x and the y tick labels of a chart, each in tick order."""
    return [
        re.findall(rf'text-anchor="{anchor}" font-family="sans-serif" font-size="10">([^<]*)<', text)
        for anchor in ("middle", "end")
    ]


def _assert_points_as_percent_2f(values):
    """svg._points writes the bytes "%.2f,%.2f" does, the values read as x
    and, reversed, as y."""
    px = np.asarray(values, dtype=float)
    py = px[::-1].copy()
    assert svg._points(px, py) == " ".join(["%.2f,%.2f" % p for p in zip(px.tolist(), py.tolist())])


def _ulp_steps(values, steps):
    """Each value moved by steps ulps, downwards for steps < 0."""
    values = np.asarray(values, dtype=float)
    for _ in range(abs(steps)):
        values = np.nextafter(values, math.copysign(math.inf, steps))
    return values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1000.0, exclude_max=True) | st.integers(0, 99_999).map(lambda m: m / 100),
                min_size=1, max_size=50))
def test_polyline_points_are_percent_2f_of_the_plot_box(values):
    _assert_points_as_percent_2f(values)


# m/8 with m odd is a tie that "%.2f" rounds half to even; the doubles
# nearest x.xx5 lie either side of it
TIES = (2 * np.arange(4000) + 1) / 8
X_XX5 = (10 * np.arange(100_000) + 5) / 1000


@pytest.mark.parametrize("values", [
    pytest.param(TIES, id="ties"),
    *(pytest.param(_ulp_steps(TIES, k), id=f"ties{k:+d}ulp") for k in (-4, -3, -2, -1, 1, 2, 3, 4)),
    pytest.param(_ulp_steps(X_XX5, -1), id="x.xx5-below"),
    pytest.param(_ulp_steps(X_XX5, 1), id="x.xx5-above"),
    pytest.param([0.0, 5e-324, 1e-300, 0.00499, float(np.nextafter(0.005, 0.0)), 0.005], id="zero"),
    pytest.param([9.995, 99.995, 999.99, 999.995, float(np.nextafter(1000.0, 0.0))], id="top"),
])
def test_polyline_points_at_ties_and_edges_are_percent_2f(values):
    _assert_points_as_percent_2f(values)


def test_polyline_points_round_exact_ties_half_to_even():
    assert svg._points(np.array([0.125, 999.875]), np.array([0.375, 0.0])) == "0.12,0.38 999.88,0.00"
    assert svg._points(np.array([np.nextafter(1000.0, 0.0)]), np.array([9.995])) == "1000.00,9.99"


@pytest.mark.parametrize("bad", [-0.0, -5e-324, -1.0, 1000.0, 1e300, math.inf, math.nan])
def test_polyline_points_outside_the_plot_box_raise(bad):
    with pytest.raises(ValueError, match="outside"):
        svg._points(np.array([1.0, 2.0]), np.array([3.0, bad]))


# ranges whose span or ticks overflow, or which adding 1.0 leaves empty; a
# constant DBL_MAX can only be widened downwards
NEAR_DBL_MAX = [
    [0.0, 1e308, 1.7e308], [-1.7e308, 1.7e308], [1.7e308] * 2, [1e20, 1e20], [0.0, 1.7e308], [svg.DBL_MAX] * 2
]


@pytest.mark.parametrize(
    "axis, values", [pytest.param(a, v, id=f"{a}s{i}") for a in "yx" for i, v in enumerate(NEAR_DBL_MAX)]
)
def test_line_chart_near_dbl_max_stays_in_the_plot_box(axis, values):
    # spans and ticks near DBL_MAX used to overflow, writing nan coordinates
    # and inf ticks; a constant 1e20 plus 1.0 is 1e20, a zero span
    values = np.array(values)
    xs, ys = (values, np.arange(len(values)) + 0.0)[:: 1 if axis == "x" else -1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = "".join(svg.chart_pieces("t", [("v", xs, ys, svg.STYLE_BIOMASS)]))
    assert "nan" not in text and "inf" not in text
    _assert_m4_polylines(text, [("v", xs, ys, None)])
    (points,) = re.findall(r'points="([^"]*)"', text)
    px, py = np.array([p.split(",") for p in points.split()], dtype=float).T
    assert np.all((svg.MARGIN_L <= px) & (px <= svg.WIDTH - svg.MARGIN_R))
    assert np.all((svg.MARGIN_T <= py) & (py <= svg.HEIGHT - svg.MARGIN_B))
    if values[0] != values[-1]:  # the larger value is drawn further right or higher
        assert px[0] < px[-1] if axis == "x" else py[0] > py[-1]
    ticks = [float(t) for t in re.findall(r'font-size="10">([^<]*)<', text)]
    assert len(ticks) == 10 and all(map(math.isfinite, ticks))
    # distinct ticks get distinct labels: "%.6g" read 1.7e+308 at every tick
    # of a constant DBL_MAX
    values_ticks = svg._axis(float(values.min()), float(values.max()), 0.0 if axis == "x" else 0.05)[3]
    labels = _tick_labels(text)[0 if axis == "x" else 1]
    assert [v == w for v in values_ticks for w in values_ticks] == [a == b for a in labels for b in labels]


@pytest.mark.parametrize("xs, labels", [
    # a constant 1e20 is widened by a few ulps, so that its five ticks are
    # distinct doubles; widened by one ulp, three of them coincided
    ([1e20, 1e20], ["1e+20", "1.0000000000000002e+20", "1.0000000000000003e+20",
                    "1.0000000000000007e+20", "1.0000000000000008e+20"]),
    ([1e6, 1e6 + 4], ["1000000", "1000001", "1000002", "1000003", "1000004"]),
    ([1e6, 1e6 + 1], ["1000000", "1000000.2", "1000000.5", "1000000.8", "1000001"]),
    ([0.0, 1.0], ["0", "0.25", "0.5", "0.75", "1"]),
])
def test_tick_labels_tell_distinct_ticks_apart(xs, labels):
    # "%.6g" labelled every tick of the first two ranges alike; a range it
    # tells apart keeps its "%.6g" labels
    text = "".join(svg.chart_pieces("t", [("v", np.array(xs), np.arange(2.0), svg.STYLE_BIOMASS)]))
    x_ticks = svg._axis(xs[0], xs[-1], 0.0)[3]
    assert _tick_labels(text) == [labels, ["-0.05", "0.225", "0.5", "0.775", "1.05"]]
    assert [v == w for v in x_ticks for w in x_ticks] == [a == b for a in labels for b in labels]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _plain_bundle(monkeypatch, params, init, horizon):
    """_simulation_bundle with simulate and washout_sequence held to their
    one plain pass: a least lag beyond any feed leaves one chunk, which is
    never compared nor repeated."""
    with monkeypatch.context() as m:
        m.setattr(core, "RECURRENCE_MIN_LAG", sys.maxsize)
        return _simulation_bundle(params, init, horizon)


def test_fig2_files_match_the_cell_and_point_oracles(tmp_path, monkeypatch):
    # a periodic run, where the writers reuse the text of earlier blocks and
    # the state recurs from t = 1703, so the CLI repeats the last period
    assert run(["fig2", "--svg", "--horizon", "3000", "--offset", "0.6", "--out", str(tmp_path)]) == 0
    _, _, cols = _plain_bundle(monkeypatch, fig2_params(0.6), fig2_init(), 3000)
    lines = (tmp_path / "fig2_timeseries.csv").read_text().split("\n")
    assert lines[0] == ",".join(cols) and lines[-1] == "" and len(lines) == len(cols["t"]) + 2
    for i, line in enumerate(lines[1:-1]):
        assert line.split(",") == [_format_cell(c[i]) for c in cols.values()]
    series = [(name, cols["t"], cols[name], None) for name in ("s0", "s", "x")]
    _assert_m4_polylines((tmp_path / "fig2_timeseries.svg").read_text(), series)


def test_fig2_svg_with_at_most_one_point_per_column_draws_every_point(tmp_path):
    # 606 points on 646 pixel columns: M4 keeps them all, so the polylines
    # are those through every point
    assert run(["fig2", "--svg", "--horizon", "600", "--out", str(tmp_path)]) == 0
    _, _, cols = _simulation_bundle(fig2_params(0.6), fig2_init(), 600)
    series = [(name, cols["t"], cols[name], None) for name in ("s0", "s", "x")]
    text = (tmp_path / "fig2_timeseries.svg").read_text()
    assert re.findall(r'points="([^"]*)"', text) == [" ".join(texts) for texts, _, _ in _point_oracle(series)]


def test_emit_svg_of_the_fig2_chart_peaks_below_1_mb(tmp_path):
    # M4 keeps about 1,370 of the 20,006 points of a series, and the pieces
    # of the text go to the file in turn; with every point drawn, and the
    # text joined and encoded whole, the peak was 3.3 MB
    _, _, cols = _simulation_bundle(fig2_params(0.6), fig2_init(), 20_000)
    styles = {"s0": svg.STYLE_FEED, "s": svg.STYLE_SUBSTRATE, "x": svg.STYLE_BIOMASS}
    series = [(name, cols["t"], cols[name], style) for name, style in styles.items()]
    emit_svg(tmp_path / "warm.svg", "t", series)  # first-call costs, once a process
    tracemalloc.start()
    try:
        emit_svg(tmp_path / "fig2.svg", "periodic feed, offset 0.6", series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_fig2_persistent_summary(tmp_path, capsys):
    assert run(["fig2", "--offset", "0.6", "--horizon", "2000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1.0213" in out
    assert "Persistent" in out
    assert (tmp_path / "fig2_timeseries.csv").exists()


def test_fig2_extinct_summary(tmp_path, capsys):
    assert run(["fig2", "--offset", "0.3", "--horizon", "2000", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.9753" in out
    assert "Extinct" in out


@pytest.mark.parametrize("offset, t_negative", [("1000", 66), ("10", 62), ("0.6", None)])
def test_fig2_flags_a_negative_substrate_as_simulate_does(tmp_path, capsys, offset, t_negative):
    # a large offset drives the substrate below 0: simulated as-is and flagged
    assert run(["fig2", "--offset", offset, "--horizon", "200", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    traj, _, _ = _simulation_bundle(fig2_params(float(offset)), fig2_init(), 200)
    assert traj.first_negative_s == t_negative
    assert lines[1].startswith("periodic mean of") and lines[-1].startswith("final biomass x(200) = ")
    if t_negative is None:
        assert len(lines) == 3 and not any(line.startswith("warning") for line in lines)
    else:
        assert lines[2:-1] == [f"warning: substrate went negative at t = {t_negative}"]


def test_fig2_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["fig2", "--horizon", "1200", "--out", str(a)]) == 0
    assert run(["fig2", "--horizon", "1200", "--out", str(b)]) == 0
    assert (a / "fig2_timeseries.csv").read_bytes() == (b / "fig2_timeseries.csv").read_bytes()


def test_fig1_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["fig1", "--horizon", "1600", "--out", str(a)]) == 0
    assert run(["fig1", "--horizon", "1600", "--out", str(b)]) == 0
    for name in ("fig1_timeseries.csv", "fig1_sliding.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fig2_svg_has_three_polylines(tmp_path):
    assert run(["fig2", "--horizon", "1000", "--svg", "--out", str(tmp_path)]) == 0
    svg_text = (tmp_path / "fig2_timeseries.svg").read_text()
    assert svg_text.count("<polyline") == 3
    assert svg_text.startswith("<svg")


def test_fig1_outputs(tmp_path, capsys):
    assert run(["fig1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig1_timeseries.csv").exists()
    assert (tmp_path / "fig1_sliding.csv").exists()
    header, rows = _read_csv(tmp_path / "fig1_sliding.csv")
    assert header == ["t", "sliding_product"]
    stat = rows[:, 1]
    # above the threshold during the constant phase, below after the ramp
    assert np.min(stat[300:500]) > 1.0
    assert stat[-1] < 1.0


def test_simulate_invalid_E_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 1.5"))
    code = run(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "model.E" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_config_exits_2(tmp_path, capsys):
    assert run(["simulate", "--out", str(tmp_path)]) == 2


def test_washout_csv(tmp_path, small_cfg):
    assert run(["washout", "--config", str(small_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "washout.csv")
    assert header == ["t", "s0", "z"]
    assert np.allclose(rows[:, 2], 1.0)  # constant feed: z = feed


def test_exponents_csv_and_summary(tmp_path, capsys, fig2_cfg):
    assert run(["exponents", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "exponents.csv")
    assert header == ["t", "z", "phi", "growth_factor"]
    out = capsys.readouterr().out
    assert "lower" in out and "upper" in out


def test_sliding_csv(tmp_path, fig2_cfg):
    assert run(["sliding", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sliding.csv")
    assert header == ["t", "sliding_product"]
    assert len(rows) == 801


def test_sliding_product_beyond_largest_double_is_inf(tmp_path):
    # growth factor 1.425 per step: half-window log sums pass log(DBL_MAX)
    cfg = tmp_path / "persistent.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 0.05")
                   .replace("uptake.kind = linear\nuptake.slope = 0.4",
                            "uptake.kind = monod\nuptake.p_max = 1\nuptake.k_s = 1"))
    assert run(["sliding", "--config", str(cfg), "--horizon", "20000", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "sliding.csv")
    assert len(rows) == 20001
    stat = rows[:, 1]
    overflow = np.isinf(stat)
    assert overflow.any() and not overflow.all()

    # the half-window log sums, as the sliding command forms them
    params = ChemostatParams(0.05, 0, Monod(1.0, 1.0), Constant(1.0))
    z = washout_sequence(params, 20000)
    growth = phi_sequence(params, z, 20000).growth
    prefix = np.concatenate([[0.0], np.cumsum([math.log(a) for a in growth.values[:20001].tolist()])])
    t = np.arange(20001)
    logs = prefix[t + 1] - prefix[t // 2]
    assert np.all(logs[overflow] > math.log(np.finfo(float).max))
    assert [math.exp(d) for d in logs[~overflow].tolist()] == stat[~overflow].tolist()


def test_sliding_svg_matches_point_oracle(tmp_path):
    # the inf products are dropped and the threshold is a constant series
    cfg = tmp_path / "persistent.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 0.05")
                   .replace("uptake.kind = linear\nuptake.slope = 0.4",
                            "uptake.kind = monod\nuptake.p_max = 1\nuptake.k_s = 1"))
    assert run(["sliding", "--config", str(cfg), "--horizon", "20000", "--svg", "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "sliding.csv")
    t, stat = rows[:, 0], rows[:, 1]
    assert np.isinf(stat).any()
    series = [("product", t, stat, None), ("threshold 1", t, np.ones_like(stat), None)]
    _assert_m4_polylines((tmp_path / "sliding.svg").read_text(), series)


def test_svg_and_json_files_are_their_text_in_utf8_with_lf(tmp_path):
    title = "\u03c9-periodic orbit"  # not ASCII
    series = [("y", np.arange(3.0), [1.0, 2.0, 0.5], svg.STYLE_BIOMASS)]
    emit_svg(tmp_path / "a.svg", title, series)
    assert (tmp_path / "a.svg").read_bytes() == "".join(svg.chart_pieces(title, series)).encode("utf-8")
    payload = {"title": title, "values": [1.5, None]}
    emit_json(tmp_path / "a.json", payload)
    assert (tmp_path / "a.json").read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def test_line_chart_escapes_its_title_and_labels():
    series = [("a<b & c>d", [0.0, 1.0], [1.0, 2.0], svg.STYLE_BIOMASS)]
    text = "".join(svg.chart_pieces("growth < 1 & decay", series))
    texts = [t.text for t in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == "growth < 1 & decay" and texts[-1] == "a<b & c>d"


def test_emit_svg_writes_no_file_for_a_chart_with_nothing_to_draw(tmp_path):
    with pytest.raises(UsageError):
        emit_svg(tmp_path / "a.svg", "t", [("v", [math.nan, 1.0], [1.0, math.inf], svg.STYLE_FEED)])
    assert not (tmp_path / "a.svg").exists()


def test_allocation_failure_exits_1(tmp_path, capsys):
    # E = 1e-15 puts the washout tail at ~6e16 steps: 426 PiB of int64,
    # beyond any 57-bit address space, so the allocation can never succeed
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 1e-15")
                   .replace("input.kind = constant\ninput.value = 1.0",
                            "input.kind = piecewise\ninput.t = 0 500\ninput.values = 3 0.05"))
    assert run(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert not (tmp_path / "classify.json").exists()


def test_out_of_memory_without_text_prints_no_dangling_colon(monkeypatch, capsys):
    # list growth or .tolist() of a huge feed raises MemoryError() with no
    # text, and the line used to end in "out of memory: "
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setitem(COMMANDS, "washout", (exhausted, (), {}))
    assert run(["washout"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize("command", ["classify", "washout", "simulate"])
@pytest.mark.parametrize("feed", [
    "input.kind = sinusoid\ninput.amplitude = 0.25\ninput.period = 20\ninput.offset = 0.6",
    "input.kind = constant\ninput.value = 1.0",
], ids=["sinusoid", "constant"])
def test_E_that_leaves_one_minus_E_at_one_exits_2(tmp_path, capsys, command, feed):
    # these ended in a ZeroDivisionError or ValueError traceback
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(SMALL_CFG.replace("model.E = 0.2", "model.E = 1e-300")
                   .replace("input.kind = constant\ninput.value = 1.0", feed))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: model.E: must lie in (2**-54, 1), so that 0 < 1 - E < 1, got 1e-300\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, params", [("fig1", fig1_params()), ("fig2", fig2_params(0.6))])
def test_horizon_beyond_one_array_exits_1(tmp_path, capsys, command, params):
    # the washout runs over its tail, r + 1 steps of history and the horizon
    steps = default_tail_depth(params.E) + params.r + 1 + 10**19
    assert run([command, "--horizon", str(10**19), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: out of memory: washout of {steps} steps is beyond the size one array can address\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "periodic"])
def test_period_beyond_one_array_exits_1(tmp_path, capsys, command):
    # both sampled the whole period first and ran until killed
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(FIG2_CFG.replace("input.period = 500", f"input.period = {2**61}"))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: out of memory: periodic washout of {2**61} steps is beyond the size one array can address\n"
    )
    assert not out.exists()


def _no_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_neither_nor_json_is_strict_json(tmp_path):
    # x hits -inf in the low blocks of this demo; it was written -Infinity
    assert run(["neither-nor", "--E", "0.5", "--r", "0", "--n-max", "5", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "neither_nor.json").read_text(), parse_constant=_no_constant)
    assert payload["low_block_infima"].count("-inf") == 3


def test_emit_json_writes_non_finite_floats_as_csv_text(tmp_path):
    payload = {"a": [math.nan, (math.inf, -math.inf)], "b": {"c": -math.nan, "d": 1.5}, "e": None}
    emit_json(tmp_path / "a.json", payload)
    text = (tmp_path / "a.json").read_text()
    assert json.loads(text, parse_constant=_no_constant) == {
        "a": ["nan", ["inf", "-inf"]], "b": {"c": "nan", "d": 1.5}, "e": None
    }


CLASSIFY_KEYS = [
    "verdict", "basis", "lower", "upper", "mean", "eta_persist", "eta_extinct",
    "window_min", "horizon", "borderline", "note", "phi_sweeps", "phi_residual",
]


def test_classify_json(tmp_path, fig2_cfg):
    assert run(["classify", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert list(payload) == CLASSIFY_KEYS
    assert payload["verdict"] == "Persistent"
    assert payload["basis"] == "PeriodicMean"
    # the periodic phi sweep certificate of the same run
    prof = periodic_phi(fig2_params(0.6), washout_periodic(fig2_params(0.6)))
    assert payload["phi_sweeps"] == prof.sweeps >= 2
    assert payload["phi_residual"] == prof.residual < 1e-12


def test_classify_json_bohl_basis_has_no_sweep_certificate(tmp_path):
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(RAMP_T0_CFG.replace("run.T = 0\n", ""))
    assert run(["classify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "classify.json").read_text())
    assert list(payload) == CLASSIFY_KEYS
    assert payload["basis"] == "GeneralBohl"
    assert payload["phi_sweeps"] is None and payload["phi_residual"] is None


def test_periodic_orbit_files(tmp_path, fig2_cfg):
    assert run(["periodic", "--config", str(fig2_cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "periodic_report.json").read_text())
    assert payload["outcome"] == "orbit"
    assert payload["period"] == 500
    header, rows = _read_csv(tmp_path / "periodic_orbit.csv")
    assert header == ["phase", "s0", "s", "x"]
    assert len(rows) == 500


def test_periodic_on_a_zero_feed_reports_the_washout(tmp_path):
    zero_feed = FIG2_CFG.replace(
        "input.kind = sinusoid\ninput.amplitude = 0.25\ninput.period = 500\ninput.offset = 0.6\n",
        "input.kind = constant\ninput.value = 0.0\n",
    )
    for i, init in enumerate([
        # exited 1 with `last residual 1.828e+274`: z = 0 left no washout floor
        "init.s = 0.5 0.5 0.5 0.5 0.5 0.5\ninit.x = 0.2 0.2 0.2 0.2 0.2 0.2\n",
        # reported a zero orbit, min x = 0, where classify says Extinct: the
        # floor is 0 when z and the whole initial state are
        "init.s = 0 0 0 0 0 0\ninit.x = 0 0 0 0 0 0\n",
    ]):
        out = tmp_path / str(i)
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(zero_feed.replace("init.s = 0.5 0.5 0.5 0.5 0.5 0.5\ninit.x = 0.2 0.2 0.2 0.2 0.2 0.2\n", init))
        assert run(["periodic", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "periodic_report.json").read_text())["outcome"] == "washout"
        assert not (out / "periodic_orbit.csv").exists()
        assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "classify.json").read_text())["verdict"] == "Extinct"


def test_periodic_convergence_failure_exits_1(tmp_path, fig2_cfg, capsys):
    code = run(
        ["periodic", "--config", str(fig2_cfg), "--tol", "1e-16",
         "--max-periods", "2", "--out", str(tmp_path)]
    )
    assert code == 1


BLOW_UP_CFG = """
schema = 1
model.E = 0.5
model.r = 0
uptake.kind = linear
uptake.slope = 1
input.kind = sinusoid
input.amplitude = 4
input.period = 7
input.offset = 8
init.s = 0.5
init.x = 0.2
"""

# horizon 3302 = 2T + 2 - r at T = 2r, the least the Bohl scan accepts, so
# classify and exponents reach the phi pass
RAMP_CFG = """
schema = 1
model.E = 0.5
model.r = 1100
uptake.kind = monod
uptake.p_max = 1
uptake.k_s = 1
input.kind = piecewise
input.t = 0 500 1500
input.values = 3 3 0.05
run.horizon = 3302
"""

# s[1] = -1.0 = -k_s exactly
MINUS_K_S_CFG = """
schema = 1
model.E = 0.5
model.r = 0
uptake.kind = monod
uptake.p_max = 3
uptake.k_s = 1
input.kind = constant
input.value = 0.0
init.s = 0.5
init.x = 2.5
"""


@pytest.mark.parametrize("command, text, code", [
    # the biomass runs to -4e4 in two periods: was reported as a washout, exit 0
    pytest.param("simulate", BLOW_UP_CFG, 0, id="blow-up-simulate"),
    pytest.param("periodic", BLOW_UP_CFG, 1, id="blow-up-periodic"),
    # (1-E)**r = 0: were OverflowError tracebacks
    pytest.param("classify", RAMP_CFG, 1, id="ramp-r1100-classify"),
    pytest.param("exponents", RAMP_CFG, 1, id="ramp-r1100-exponents"),
    pytest.param("sliding", RAMP_CFG, 1, id="ramp-r1100-sliding"),
    # Monod at s = -k_s and p'(0) at k_s = 1e+-300: were ZeroDivisionError and
    # OverflowError tracebacks
    pytest.param("simulate", MINUS_K_S_CFG, 0, id="s-at-minus-k_s-simulate"),
    pytest.param("periodic", MINUS_K_S_CFG, 1, id="s-at-minus-k_s-periodic"),
    pytest.param("simulate", FIG2_CFG.replace("uptake.k_s = 1.0", "uptake.k_s = 1e300"), 0, id="k_s-1e300"),
    pytest.param("simulate", FIG2_CFG.replace("uptake.k_s = 1.0", "uptake.k_s = 1e-300"), 0, id="k_s-1e-300"),
])
def test_arithmetic_outside_the_doubles_exits_cleanly(tmp_path, monkeypatch, command, text, code):
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    (tmp_path / "run.cfg").write_text(text)
    assert _run_in(tmp_path, [command, "--config", "run.cfg", "--out", "out"]) == code
    if command == "periodic":
        assert not (tmp_path / "out" / "periodic_report.json").exists()


@pytest.mark.parametrize("extra", [
    ["periodic", "--max-periods", "0"],
    ["periodic", "--tol", "0"],
    ["classify", "--tol", "-1"],
    ["classify", "--tol", "0"],
    ["classify", "--tol", "nan"],
])
def test_bad_budget_or_tolerance_exits_2(tmp_path, fig2_cfg, capsys, extra):
    assert run(extra + ["--config", str(fig2_cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_neither_nor_json(tmp_path, capsys):
    assert run(["neither-nor", "--E", "0.5", "--r", "0", "--n-max", "3",
                "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "neither_nor.json").read_text())
    assert payload["check_c_ok"] is True


def test_out_env_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_dir"
    monkeypatch.setenv("CHEMODDE_OUT", str(env_dir))
    assert run(["fig2", "--horizon", "1000", "--out", str(tmp_path / "ignored")]) == 0
    assert (env_dir / "fig2_timeseries.csv").exists()
    assert not (tmp_path / "ignored").exists()


RAMP_T0_CFG = """
schema = 1
model.E = 0.2
model.r = 2
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = piecewise
input.t = 0 100 300
input.values = 3.0 3.0 0.05
run.horizon = 400
run.T = 0
"""


SINUSOID_T0_CFG = FIG2_CFG + "run.T = 0\n"


@pytest.mark.parametrize("command, text", [
    pytest.param("exponents", RAMP_T0_CFG, id="exponents"),
    pytest.param("classify", RAMP_T0_CFG, id="classify"),
    pytest.param("exponents", SINUSOID_T0_CFG, id="exponents-sinusoid"),
    pytest.param("classify", SINUSOID_T0_CFG, id="classify-sinusoid"),  # exited 0
])
def test_window_min_zero_exits_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "feed.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: window_min must be >= 1, got 0\n"
    assert not out.exists()


def test_exponents_checks_window_min_before_the_phi_pass(tmp_path, capsys, monkeypatch):
    def no_phi(*args, **kwargs):
        raise AssertionError("phi_sequence ran before window_min was checked")

    monkeypatch.setattr(exponents, "phi_sequence", no_phi)
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(RAMP_T0_CFG.replace("run.horizon = 400", "run.horizon = 200000"))
    assert run(["exponents", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: window_min must be >= 1, got 0\n"


FIG1_RAMP_CFG = """
schema = 1
model.E = 0.18181818181818182
model.r = 5
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = piecewise
input.t = 0.0 500.0 1500.0
input.values = 3.0 3.0 0.05
run.horizon = 4000
"""


@pytest.mark.parametrize("command", ["classify", "exponents"])
def test_horizon_too_short_for_the_bohl_scan_exits_2_before_the_work(tmp_path, capsys, monkeypatch, command):
    # r = 5 and T = 50: the least horizon is 2T + 2 - r = 97; 96 used to run
    # the washout and the phi pass, then report "sequence of length 102 too
    # short for window_min=50, gap_min=50"
    def no_washout(*args, **kwargs):
        raise AssertionError("the washout ran before the horizon was checked")

    monkeypatch.setattr(analysis, "washout_sequence", no_washout)
    monkeypatch.setattr("chemodde.washout.washout_sequence", no_washout)
    cfg = tmp_path / "ramp.cfg"
    cfg.write_text(FIG1_RAMP_CFG)
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--horizon", "96", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: horizon 96 too short for Bohl windows with T = 50; the least horizon is 97\n"
    assert captured.out == ""
    assert not out.exists()
    monkeypatch.undo()
    assert run([command, "--config", str(cfg), "--horizon", "97", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, err", [
    (["fig1", "--horizon", "0"], "fig1 summarises the constant phase [100, 500]; horizon 0 < 500"),
    (["fig1", "--horizon", "300"], "fig1 summarises the constant phase [100, 500]; horizon 300 < 500"),
    (["fig2", "--horizon", "0"], "horizon 0 must be >= delay r=5"),
])
def test_bad_figure_horizon_exits_2_before_writing(tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    out.mkdir()
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, err", [
    (["fig2", "--offset", "inf"], "sinusoid offset must be finite, got inf"),
    (["fig2", "--offset", "nan"], "sinusoid offset must be finite, got nan"),
])
def test_fig2_nonfinite_offset_exits_2(tmp_path, capsys, argv, err):
    out = tmp_path / "out"
    assert run(argv + ["--horizon", "100", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["-5", "0", "4"])
def test_classify_periodic_feed_validates_horizon(tmp_path, capsys, fig2_cfg, horizon):
    out = tmp_path / "out"
    assert run(["classify", "--config", str(fig2_cfg), "--horizon", horizon, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: horizon {horizon} must be >= delay r=5\n"
    assert not out.exists()


@pytest.mark.parametrize("n_max", ["10", "30"])
def test_neither_nor_n_max_above_9_exits_2(tmp_path, capsys, n_max):
    out = tmp_path / "out"
    assert run(["neither-nor", "--E", "0.1", "--r", "2", "--n-max", n_max, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: n_max must be in [1, 9], got {n_max}\n"
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# flags: each command takes exactly the flags its handler reads
# ---------------------------------------------------------------------------


def _parser_flags():
    """{command: its option strings in order}, read from build_parser()."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        for name, p in sub.choices.items()
    }


def test_readme_flags_match_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) > 3 and re.fullmatch(r" `[a-z0-9-]+` *", cells[1]):
            documented[cells[1].strip(" `")] = re.findall(r"`(--[\w-]+)`", cells[2])
    assert documented == _parser_flags()


def _run_captured(argv):
    """(exit code, stdout, stderr) of run(argv); argparse's -h exits."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_run_builds_one_parser_for_a_known_command(tmp_path, fig2_cfg, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, err = _run_captured(["classify", "--config", str(fig2_cfg), "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert built == ["chemodde classify"]
    built.clear()
    assert _run_captured(["bogus"])[0] == 2
    assert built == ["chemodde"] + [f"chemodde {name}" for name in COMMANDS]


def test_full_parser_output_without_a_known_command():
    help_text = build_parser().format_help()
    assert _run_captured([]) == (2, help_text, "")
    assert _run_captured(["-h"]) == (0, help_text, "")
    assert _run_captured(["bogus"]) == (
        2, "",
        "error: argument COMMAND: invalid choice: 'bogus' (choose from 'simulate', "
        "'washout', 'exponents', 'sliding', 'classify', 'periodic', 'neither-nor', "
        "'fig1', 'fig2')\n",
    )
    assert _run_captured(["classify", "--bogus"]) == (2, "", "error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommand_help_matches_full_parser(command):
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert _run_captured([command, "-h"]) == (0, sub.choices[command].format_help(), "")


# (command, flag, value): a flag of another command that this one does not read
REMOVED_FLAGS = [
    ("simulate", "--tol", "1e-9"),
    ("washout", "--tol", "1e-9"),
    ("washout", "--svg", None),
    ("exponents", "--tol", "nan"),
    ("exponents", "--svg", None),
    ("sliding", "--tol", "1e-9"),
    ("classify", "--svg", None),
    ("periodic", "--horizon", "10"),
    ("neither-nor", "--horizon", "5"),
    ("neither-nor", "--tol", "-3"),
    ("neither-nor", "--svg", None),
    ("fig1", "--tol", "1e-9"),
    ("fig2", "--tol", "1e-9"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS)
def test_unread_flag_exits_2(tmp_path, capsys, fig2_cfg, command, flag, value):
    extra = [flag] if value is None else [flag, value]
    config = ["--config", str(fig2_cfg)] if "--config" in COMMANDS[command][1] else []
    out = tmp_path / "out"
    assert run([command, *extra, *config, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unrecognized arguments: {' '.join(extra)}\n"
    assert captured.out == ""
    assert not out.exists()


# a short period keeps periodic and classify fast; the ramp is not periodic
FUZZ_PERIODIC_CFG = """
schema = 1
model.E = 0.125
model.r = 2
uptake.kind = monod
uptake.p_max = 1.0
uptake.k_s = 1.0
input.kind = sinusoid
input.amplitude = 0.25
input.period = 20
input.offset = 0.6
init.s = 0.5 0.5 0.5
init.x = 0.2 0.2 0.2
run.horizon = 300
"""
FUZZ_RAMP_CFG = RAMP_T0_CFG.replace("run.T = 0\n", "init.s = 0.5 0.5 0.5\ninit.x = 0.2 0.2 0.2\n")

# valid values, bounded so that every example runs in well under a second;
# n-max 10 and 30 are the first rejected values and the old traceback
VALID = {
    "--config": st.sampled_from(["../periodic.cfg", "../ramp.cfg"]),
    "--out": st.just("out"),
    "--horizon": st.integers(1, 2000).map(str),
    "--tol": st.floats(1e-12, 1e-3).map(repr),
    "--max-periods": st.integers(1, 400).map(str),
    "--E": st.floats(0.05, 0.95).map(repr),
    "--r": st.integers(0, 10).map(str),
    "--n-max": st.sampled_from([1, 2, 3, 4, 5, 6, 10, 30]).map(str),
    "--x0": st.floats(1e-3, 1.0).map(repr),
    "--offset": st.floats(0.35, 0.9).map(repr),
}
SPECIAL = st.sampled_from(["0", "-1", "nan", "inf"])


def _often(draw):
    """True three times in four, so most examples get past the parser."""
    return draw(st.integers(0, 3)) > 0


def _flag_args(draw, flag):
    if flag == "--svg":
        return [flag]
    return [flag, draw(VALID[flag] if _often(draw) else SPECIAL)]


@st.composite
def _argvs(draw):
    """(argv, foreign): a command with a subset of its own flags, each valid
    or 0, -1, nan, inf, and maybe one flag of another command."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    own = COMMANDS[command][1]
    flags = [flag for flag in own if _often(draw)]
    if command == "fig2" and "--horizon" not in flags:
        flags.append("--horizon")  # its default, 20000 steps, is too slow here
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += _flag_args(draw, flag)
    foreign = None if _often(draw) else draw(st.sampled_from(sorted(set(VALID) - set(own))))
    if foreign is not None:
        argv += _flag_args(draw, foreign)
    return argv, foreign


def _run_in(work, argv):
    """run(argv) with work as the current directory, so that relative
    --out and --config values resolve in it; checks the exit contract:
    0, 1 or 2, one `error: ` line exactly when non-zero (no warning, no
    traceback), and nothing written in work on exit 2.  Returns the exit
    code."""
    before = sorted(work.iterdir())
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            # outside pytest a numpy warning would print to stderr
            warnings.simplefilter("error", RuntimeWarning)
            code = run(argv)
    finally:
        os.chdir(cwd)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if code == 2:
        assert sorted(work.iterdir()) == before
    return code


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
@example(case=(["neither-nor", "--n-max", "30"], None))  # was a ValueError traceback
@example(case=(["neither-nor", "--E", "1e-300"], None))  # 1 - E == 1: was a ValueError traceback
@example(case=(["neither-nor", "--E", repr(2.0**-54)], None))
@example(case=(["neither-nor", "--E", repr(2.0**-53)], None))  # accepted; its washout tail is too long
@example(case=(["fig2", "--horizon", "10000000000000000000"], None))  # was a ValueError traceback
@example(case=(["fig1", "--horizon", "10000000000000000000"], None))
def test_cli_fuzz_exits_cleanly(tmp_path, monkeypatch, case):
    argv, foreign = case
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    (tmp_path / "periodic.cfg").write_text(FUZZ_PERIODIC_CFG)
    (tmp_path / "ramp.cfg").write_text(FUZZ_RAMP_CFG)
    code = _run_in(Path(tempfile.mkdtemp(dir=tmp_path)), argv)
    event(f"{argv[0]} exit {code}")
    if foreign is not None:
        assert code == 2


@pytest.mark.parametrize("key", ["model.r", "input.period", "run.horizon", "run.T"])
@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
def test_integer_key_out_of_range_exits_2(tmp_path, capsys, key, value):
    text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", FIG2_CFG + "run.T = 40\n", flags=re.M)
    assert f"{key} = {value}\n" in text
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key}: expected an integer, got '{value}'\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "classify", "exponents"])
def test_nonfinite_tabulated_sample_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIG2_CFG.replace(
        "uptake.kind = monod\nuptake.p_max = 1.0\nuptake.k_s = 1.0\n",
        "uptake.kind = tabulated\nuptake.s = 0 1 2\nuptake.values = 0 nan 0.8\n",
    ))
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: tabulated uptake values[1] must be finite, got nan\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("key, value, kind", [
    ("uptake.slope", "0.4", "uptake.kind = monod"),
    ("input.value", "1.0", "input.kind = sinusoid"),
])
def test_key_the_kind_does_not_read_exits_2(tmp_path, capsys, key, value, kind):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIG2_CFG + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {key} is not read by {kind}\n"
    assert captured.out == ""
    assert not out.exists()


_SINUSOID_INPUT = "input.kind = sinusoid\ninput.amplitude = 0.25\ninput.period = 500\ninput.offset = 0.6\n"
_INIT = "init.s = 0.5 0.5 0.5 0.5 0.5 0.5\ninit.x = 0.2 0.2 0.2 0.2 0.2 0.2\n"


@pytest.mark.parametrize("old, new, err", [
    ("run.horizon = 800", "run.horizon 800", "{cfg}:14: expected 'key = value', got 'run.horizon 800'"),
    ("uptake.kind = monod\nuptake.p_max = 1.0\nuptake.k_s = 1.0", "uptake.kind = hill",
     "uptake.kind: unknown kind 'hill'"),
    ("schema = 1", "schema = 2", "unsupported schema version 2; this build reads schema = 1"),
    ("model.r = 5", "model.r = -1", "model.r: must be >= 0, got -1"),
    ("model.r = 5", "model.r = 2.5", "model.r: expected an integer, got '2.5'"),
    ("run.horizon = 800", "run.horizon = -1", "run.horizon: must be >= 0, got -1"),
    (_SINUSOID_INPUT, "input.kind = piecewise\ninput.t = 0 5 9\ninput.values = 1 0.5\n",
     "input.t and input.values must have matching lengths"),
    (_SINUSOID_INPUT, "input.kind = sequence\ninput.values = 1 0.5\ninput.periodic = maybe\n",
     "input.periodic: expected true/false, got 'maybe'"),
    (_INIT, "", "this subcommand needs init.s and init.x in the config"),
])
def test_config_error_exits_2(tmp_path, capsys, old, new, err):
    assert old in FIG2_CFG
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIG2_CFG.replace(old, new))
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err.format(cfg=cfg)}\n"
    assert captured.out == ""
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # ended in a UnicodeDecodeError traceback, exit 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(FIG2_CFG.encode().replace(b"model.r", b"\xffmodel.r"))
    out = tmp_path / "out"
    assert run(["classify", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    offset = FIG2_CFG.index("model.r")
    assert captured.err == f"error: config file {cfg} is not UTF-8: byte {offset} is 0xff\n"
    assert captured.out == ""
    assert not out.exists()


def test_neither_nor_zero_biomass_is_the_trivial_case(tmp_path, capsys):
    assert run(["neither-nor", "--x0", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'neither_nor.json'}\n"
        "trivial case: biomass history is identically zero, x stays 0\n"
    )
    assert json.loads((tmp_path / "neither_nor.json").read_text())["trivial"] is True


# a valid value for each config key, bounded so that every example runs in
# well under a second; lists match their partners (input.t and
# input.values, uptake.s and uptake.values) and init.* hold r+1 values
def _config_values(r):
    floats = lambda lo, hi: st.floats(lo, hi).map(repr)  # noqa: E731
    init = st.lists(st.floats(0.0, 1.0), min_size=r + 1, max_size=r + 1).map(
        lambda v: " ".join(map(repr, v))
    )
    return {
        "schema": st.just("1"),
        "model.E": floats(0.05, 0.95),
        "model.r": st.just(str(r)),
        "uptake.kind": st.sampled_from(["monod", "linear", "tabulated"]),
        "uptake.p_max": floats(0.1, 2.0),
        "uptake.k_s": floats(0.2, 3.0),
        "uptake.slope": floats(0.05, 1.0),
        "uptake.s": st.just("0 1 2"),
        "uptake.values": st.just("0 0.5 0.8"),
        "input.kind": st.sampled_from(["constant", "sinusoid", "piecewise", "sequence", "dyadic"]),
        "input.value": floats(0.0, 2.0),
        "input.amplitude": floats(0.0, 0.3),
        "input.period": st.integers(1, 40).map(str),
        "input.offset": floats(0.3, 1.0),
        "input.t": st.just("0 50 150"),
        "input.values": st.just("1.0 0.6 0.2"),
        "input.periodic": st.sampled_from(["true", "false"]),
        "init.s": init,
        "init.x": init,
        "run.horizon": st.integers(0, 2000).map(str),
        "run.tol": floats(1e-12, 1e-3),
        "run.T": st.integers(1, 100).map(str),
    }


CONFIG_COMMANDS = sorted(name for name, (_, flags, _) in COMMANDS.items() if "--config" in flags)
CONFIG_SPECIAL = st.sampled_from(["0", "-1", "nan", "inf", "1e400", "", "garbage"])
# a mutation sets a key to a special value or, as often, drops or
# duplicates the key or adds an unknown key or one that only another kind
# reads
CONFIG_MUTATIONS = st.one_of(
    CONFIG_SPECIAL, st.sampled_from(["<drop>", "<duplicate>", "<unknown>", "<foreign>"])
)


@st.composite
def _config_texts(draw):
    """`key = value` lines, in a random order, for every key the drawn
    uptake and input kinds read besides the shared ones, each valid except
    for up to three mutations: a value of 0, -1, nan, inf, 1e400, empty or
    garbage, a dropped key, a duplicated key, an unknown key or a key of
    another kind."""
    valid = _config_values(draw(st.integers(0, 4)))
    pairs = {}
    for section, kinds in _KINDS.items():
        kind = pairs[f"{section}.kind"] = draw(valid[f"{section}.kind"])
        reads = {key for key, *_ in kinds[kind][1].values() if key.startswith(f"{section}.")}
        pairs.update((key, draw(valid[key])) for key in sorted(reads))
    shared = sorted(key for key in _KNOWN_KEYS if key.split(".")[0] not in _KINDS)
    pairs.update((key, draw(valid[key])) for key in shared)
    keys = sorted(pairs)
    foreign = sorted(_KNOWN_KEYS - set(keys))
    extra = []
    for key, mutation in draw(st.lists(st.tuples(st.sampled_from(keys), CONFIG_MUTATIONS), max_size=3)):
        if mutation == "<drop>":
            pairs.pop(key, None)
        elif mutation == "<duplicate>":
            extra.append(f"{key} = {draw(valid[key])}")
        elif mutation == "<unknown>":
            extra.append("model.EE = 0.5")
        elif mutation == "<foreign>":  # never empty: each kind leaves the others' keys
            key = draw(st.sampled_from(foreign))
            extra.append(f"{key} = {draw(valid[key])}")
        else:
            pairs[key] = mutation
    lines = [f"{key} = {value}" for key, value in pairs.items()] + extra
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(CONFIG_COMMANDS), text=_config_texts())
@example(command="classify", text=FIG2_CFG.replace("model.r = 5", "model.r = 1e400"))  # was an OverflowError
@example(command="washout", text=RAMP_T0_CFG.replace("0 100 300", "0 nan 300"))  # was an AssertionError
@example(command="simulate", text=(  # infeasible: numpy warned on stderr at exit 0
    "schema = 1\nmodel.E = 0.75\nmodel.r = 0\nuptake.kind = linear\nuptake.slope = 1.0\n"
    "input.kind = dyadic\ninit.s = 0.0\ninit.x = 1.0\nrun.horizon = 19\n"
))
def test_cli_config_fuzz_exits_cleanly(tmp_path, monkeypatch, command, text):
    monkeypatch.delenv("CHEMODDE_OUT", raising=False)
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "run.cfg").write_text(text)
    code = _run_in(work, [command, "--config", "run.cfg", "--out", "out"])
    event(f"{command} exit {code}")
