"""formatting.cells against the cell-by-cell oracle, densely: random bit
patterns, every power of two and of ten with its neighbours, and the
boundaries of each layout and of the integer form; formatting.pixels
against "%.2f" on chart coordinates: ties, range edges and random values
in [0, 9999.995), and its refusal of everything else."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chemodde
from chemodde import formatting
from chemodde.errors import UsageError
from chemodde.formatting import cells, pixels
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


def _assert_pixels_match_oracle(values, sep):
    values = np.asarray(values, dtype=np.float64)
    rows = pixels(values, sep)
    assert len(rows) == len(values) and (rows[:, -1] == ord(sep)).all()
    want = "".join("%.2f" % v + sep for v in values.tolist())
    if rows.tobytes().translate(None, b"\0") != want.encode():
        got = rows.tobytes().translate(None, b"\0").decode().split(sep)
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want.split(sep)) if g != w]
        pytest.fail(f"{len(bad)} of {len(values)} pixels differ; first (value, got, oracle): {bad[:3]}")


def test_pixels_match_percent_oracle():
    rng = np.random.default_rng(20261019)
    eighths = np.arange(720 * 8 + 1) / 8  # 0.125, 0.375, ... are half-cent ties
    below_edge = np.nextafter(9999.995, 0)  # the largest double written as 9999.99
    assert "%.2f" % below_edge == "9999.99" and "%.2f" % 9999.995 == "10000.00"
    edges = np.r_[_neighbours([0.005, 0.015, 0.995, 2.0**-11], ulps=2), 9999.99, below_edge]
    tiny = np.r_[rng.uniform(0, 0.005, 1 << 12), rng.integers(1, 2**52, 1 << 10, dtype=np.uint64).view(np.float64)]
    for sep in " ,":
        _assert_pixels_match_oracle(rng.uniform(0, 9999.995, 1 << 16), sep)
        _assert_pixels_match_oracle(_neighbours(eighths[1:]), sep)
        _assert_pixels_match_oracle(np.r_[edges, tiny, 5e-324, 2.2250738585072014e-308, 0.0], sep)
    assert pixels(np.array([0.0, 58.0, below_edge]), ",").shape == (3, 8)


@pytest.mark.parametrize("bad", [-0.0, -1e-300, np.nan, np.inf, -np.inf, 9999.995, 1e4, 1e308])
def test_pixels_reject_values_outside_chart_coordinates(bad):
    with pytest.raises(UsageError, match=re.escape(f"chart coordinate {bad!r} is outside")):
        pixels(np.array([1.0, 704.0, bad, -1.0]), ",")


def test_import_computes_no_power_of_ten():
    # the powers of ten and the layout tables of cells and of pixels are
    # built by the first call
    src = str(Path(chemodde.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (
        "import chemodde.cli, chemodde.formatting as f; "
        "print(int(f._POW10_FILLED.sum()), int(f._POW10.any()), f._tables.cache_info().currsize, "
        "f._pixel_tables.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0", "0", "0"]
    cells(np.array([1.5, 2.0**-1074, 1e300]))
    filled = formatting._POW10_FILLED
    assert 0 < filled.sum() < len(filled) and formatting._POW10[:, filled][0].all()
