"""formatting.cells against the cell-by-cell oracle, densely: random bit
patterns, every power of two and of ten with its neighbours, and the
boundaries of each layout and of the integer form."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chemodde
from chemodde import formatting
from chemodde.formatting import cells
from test_cli import _format_cell

CHUNK = 1 << 16


def _bytes(rows):
    """The text of a cells matrix, one line per row, its last byte
    overwritten."""
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def _text(rows):
    return _bytes(rows).decode().split("\n")[:-1]


def _lines(values):
    return _text(cells(values))


def _assert_cells_match_oracle(values):
    values = np.asarray(values, dtype=np.float64)
    for lo in range(0, len(values), CHUNK):
        chunk = values[lo : lo + CHUNK]
        rows = cells(chunk)
        assert rows.shape == (len(chunk), 48) and not rows[:, 45:].any()
        want = "\n".join(map(_format_cell, chunk.tolist())) + "\n"
        if _bytes(rows) != want.encode():
            got, want = _text(rows), want.split("\n")
            bad = [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
            pytest.fail(f"{len(bad)} of {len(chunk)} cells differ; first (value, got, oracle): {bad[:3]}")


def _neighbours(values, ulps=1):
    """values and the doubles up to ulps steps below and above each."""
    values = np.asarray(values, dtype=np.float64)
    out, down, up = [values], values, values
    for _ in range(ulps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


def _signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.r_[values, -values]


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    _assert_cells_match_oracle(rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64))


def test_powers_of_two_with_their_neighbours():
    # a power of two has an all-zero fraction: its interval below is half
    # the one above, except at the smallest normal exponent
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    assert (twos[52:] == (np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)).view(np.float64)).all()
    _assert_cells_match_oracle(_signed(_neighbours(twos, ulps=3)))


def test_powers_of_ten_with_their_neighbours():
    tens = [float(f"1e{k}") for k in range(-323, 309)] + [10.0**k for k in range(-323, 309)]
    _assert_cells_match_oracle(_signed(_neighbours(tens)))


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e-3, 0.1, 1.0, 1e15, 1e16, 1e17, 2.0**52, 2.0**53, 2.0**63, 1e308])
def test_layout_and_integer_boundaries(edge):
    # 1e-4 is the smallest positional value and 1e16 the smallest in
    # exponent form; below 1e15 an integral value is written as an integer
    _assert_cells_match_oracle(_signed(_neighbours([edge], ulps=8)))


def test_integers_and_short_decimals():
    rng = np.random.default_rng(7)
    ints = rng.integers(-(2**62), 2**62, 1 << 13).astype(float) / 2.0 ** rng.integers(0, 62, 1 << 13)
    digits = rng.integers(0, 10**8, 1 << 15)
    scale = 10.0 ** rng.integers(-30, 30, 1 << 15)
    _assert_cells_match_oracle(np.r_[np.trunc(ints), ints, digits * scale, digits / scale, np.arange(-1000, 1001)])


def test_subnormals_zeros_nans_and_infinities():
    rng = np.random.default_rng(11)
    subnormal = rng.integers(1, 2**52, 4096, dtype=np.uint64).view(np.float64)
    edges = np.array([5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-310])
    payloads = np.array([0x7FF8_0000_0000_0000, 0x7FF0_0000_0000_0001, 0x7FFF_FFFF_FFFF_FFFF], dtype=np.uint64)
    nans = _signed(payloads.view(np.float64))
    assert np.signbit(nans).sum() == 3
    values = np.r_[_signed(subnormal), _signed(_neighbours(edges)), 0.0, -0.0, nans, np.inf, -np.inf]
    _assert_cells_match_oracle(values)
    assert _lines(np.array([-0.0, -np.nan, -np.inf, np.inf])) == ["0", "nan", "-inf", "inf"]


def test_import_computes_no_power_of_ten():
    # the powers of ten and the layout tables of cells are built by the
    # first call
    src = str(Path(chemodde.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import chemodde.cli, chemodde.formatting as f; "
        "print(int(f._POW10_FILLED.sum()), int(f._POW10.any()), f._tables.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0"]
    cells(np.array([1.5, 2.0**-1074, 1e300]))
    filled = formatting._POW10_FILLED
    assert 0 < filled.sum() < len(filled) and formatting._POW10[:, filled][0].all()


def test_integers_of_every_digit_count_take_the_integer_route(monkeypatch):
    # 0, and 10**k - 1, 10**k and values of every digit count from 1 to
    # 15, of both signs: the text is str(int(v)) and the rows are those of
    # the same values as float64
    rng = np.random.default_rng(24)
    edges = [v for k in range(16) for v in (10**k - 1, 10**k) if v < 10**15]
    drawn = [int(rng.integers(10 ** (k - 1), 10**k)) for k in range(1, 16) for _ in range(64)]
    values = np.array([0, *edges, *(-v for v in edges), *drawn, *(-v for v in drawn)], dtype=np.int64)
    want = cells(values.astype(np.float64))

    def no_schubfach(bits):
        raise AssertionError("an integer array inside +-1e15 reached _shortest")

    monkeypatch.setattr(formatting, "_shortest", no_schubfach)
    rows = cells(values)
    assert rows.shape == (len(values), 48) and (rows == want).all()
    assert _text(rows) == list(map(str, values.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**15) + 1, 10**15 - 1), min_size=1, max_size=64))
def test_integer_cells_match_float_cells_and_str(values):
    ints = np.array(values, dtype=np.int64)
    rows = cells(ints)
    assert (rows == cells(ints.astype(np.float64))).all()
    assert _text(rows) == list(map(str, values))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.uint8, np.uint16, np.uint32, np.uint64])
def test_narrow_and_unsigned_integers_match_their_float64(dtype):
    info = np.iinfo(dtype)
    values = np.array([info.min, min(info.max, 10**15 - 1), 0, 1, info.max // 3 % 10**15], dtype=dtype)
    assert _text(cells(values)) == list(map(str, values.tolist()))
    assert (cells(values) == cells(values.astype(np.float64))).all()


def test_integers_at_or_beyond_1e15_keep_the_float_route():
    # a single value outside +-(10**15 - 1) sends the whole array through
    # float64, where -2**63 and 2**53 + 1 round as the cell oracle does
    for extreme in [-(2**63), 2**63 - 1, 10**15, -(10**15), 2**53 + 1]:
        values = np.array([extreme, 1, -7, 10**15 - 1, -(10**15) + 1], dtype=np.int64)
        assert _text(cells(values)) == [_format_cell(v) for v in values]
    big = np.array([2**64 - 1, 10**15, 10**15 - 1], dtype=np.uint64)
    assert _text(cells(big)) == [_format_cell(v) for v in big]
