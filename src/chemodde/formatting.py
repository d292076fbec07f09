"""Text of float and integer arrays: exact shortest round-trip cells, and
the CSV rows of a table made from them.

``cells`` writes a float64 or integer array as a matrix of characters, one
row of 48 bytes per value, holding exactly the text of ``str(int(v))`` for
a finite integral v below 1e15 in magnitude (``-0.0`` as ``0``) and of
``repr(float(v))`` otherwise (``-nan`` as ``nan``), with NUL bytes between
and after the characters; ``rows`` joins the cells of a 2-D array into
comma-separated, newline-ended rows.  A float array is written once per
distinct bit pattern and the text gathered back.  The shortest decimal
that reads back to the same double, and of those the closest, is found on
uint64 lanes with Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; cf. U. Adams, "Ryu: fast float-to-string conversion",
PLDI 2018): the double and the two ends of its rounding interval are
scaled by a 126-bit power of ten, as exact 128-bit products built from
32-bit halves and rounded to odd, and integer comparisons pick the digits.
The powers of ten are computed with Python ints for the exponents a call
meets, and kept.  Digits are laid out through small tables of four-digit
groups and of row templates, built on the first call.  Subnormal values
are left to ``repr``, once per distinct bit pattern of a call, and so are
nan and the infinities.

An integer array whose values all lie strictly inside +-1e15, such as a
CSV time column, skips Schubfach: its digit count is found by a search in
a table of powers of ten, its 17 digits are |v| times a power of ten, and
both go through the same layout tables as a float's.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy 1.x turns uint64 mixed with int64 or a negative Python int into
# float64, so the lane arithmetic below uses uint64 scalars throughout
_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_M63 = _U64(2**63 - 1)
_FRACTION = _U64(2**52 - 1)
_HIDDEN = _U64(2**52)
_EXPONENT = _U64(0x7FF)
_ONE_BITS = _U64(0x3FF0_0000_0000_0000)  # stands in for lanes Schubfach skips

# For e = -k in [-325, 325], at column e + 325: g = floor(10**e * 2**(125 -
# floor(e * log2(10)))) + 1, a 126-bit overestimate of the power of ten,
# as g1 = g >> 63 and g0 = g mod 2**63.  A column is filled the first time
# a call meets its exponent.
_POW10 = np.zeros((2, 651), dtype=np.uint64)
_POW10_FILLED = np.zeros(651, dtype=bool)


def _pow10(e):
    """Rows g1 and g0 of g for each lane's exponent e."""
    col = e + 325
    if not _POW10_FILLED[col].all():
        missing = np.bincount(col, minlength=651).astype(bool) & ~_POW10_FILLED
        for c in np.flatnonzero(missing).tolist():
            x = c - 325
            fl = (x * 913_124_641_741) >> 38  # floor(x * log2(10))
            g = (10 ** max(x, 0) << max(125 - fl, 0)) // (10 ** max(-x, 0) << max(fl - 125, 0)) + 1
            _POW10[:, c] = g >> 63, g & (2**63 - 1)
            _POW10_FILLED[c] = True
    return np.take(_POW10, col, axis=1)


def _mul(a, bh, bl):
    """(high, low) 64-bit words of the product of uint64 lanes a and b,
    b given as 32-bit halves."""
    ah, al = a >> _U64(32), a & _M32
    hi = ah * bh
    ah *= bl
    lh = al * bh
    al *= bl
    mid = al >> _U64(32)
    al &= _M32
    mid += lh & _M32
    mid += ah & _M32
    lh >>= _U64(32)
    ah >>= _U64(32)
    hi += lh
    hi += ah
    hi += mid >> _U64(32)
    mid <<= _U64(32)
    mid |= al
    return hi, mid


def _rop(x1, y1, y0):
    """floor(g * cp / 2**127), rounded to odd, from the high word x1 of
    g0 * cp and both words y1, y0 of g1 * cp (Giulietti, figure 8)."""
    z = y0 >> _U64(1)
    z += x1
    vb = z >> _U64(63)
    vb += y1
    z &= _M63
    z += _M63
    z >>= _U64(63)
    vb |= z
    return vb


def _add_shifted(hi, lo, g, by, sign):
    """(high, low) words of the 128-bit (hi, lo) + sign * (g << by), for
    g < 2**63, 0 < by < 64 and sign = +-1."""
    glo = g << by
    ghi = g >> (_U64(64) - by)
    if sign > 0:
        glo += lo
        ghi += hi
        ghi += glo < lo  # carry
    else:
        np.subtract(hi, ghi, out=ghi)
        ghi -= lo < glo  # borrow
        np.subtract(lo, glo, out=glo)
    return ghi, glo


def _shortest(bits):
    """(d, k) per lane of positive normal doubles, whose bits it takes
    over: d * 10**k is the shortest decimal inside the rounding interval
    of the double, the closest if several, with d of 16 or 17 digits
    (trailing zeros kept).  Temporaries are dropped, or worked in place,
    as soon as they are used, to bound the memory a block takes."""
    q = (bits >> _U64(52)).astype(np.int64)
    c = bits
    c &= _FRACTION
    # at a power of two the interval below is half the one above
    asym = (c == _U64(0)) & (q != 1)
    c |= _HIDDEN
    q -= 1075  # the double is c * 2**q
    k = q * 661_971_961_083
    k -= asym * 274_743_187_321
    k >>= 41
    h = k * -913_124_641_741
    h >>= 38
    h += q
    del q
    g1, g0 = _pow10(-k)
    # with h = q + floor(-k * log2(10)), vb = 4 * c * 2**q / 10**k is
    # g * (c << (h + 4)) / 2**127, kept as the words of g0 * cp and g1 * cp;
    # the interval's ends add and subtract g << (h + 3), or g << (h + 2)
    # for the lower end at a power of two
    h += 4
    by = h.astype(np.uint64)
    del h
    cp = c << by
    odd = (c & _U64(1)).astype(bool)  # an odd c excludes the interval's ends
    del c
    cph = cp >> _U64(32)
    cp &= _M32
    x1, x0 = _mul(g0, cph, cp)
    y1, y0 = _mul(g1, cph, cp)
    del cp, cph
    vb = _rop(x1, y1, y0)
    by -= _U64(1)
    vbr = _rop(_add_shifted(x1, x0, g0, by, +1)[0], *_add_shifted(y1, y0, g1, by, +1))
    vbr -= odd
    by -= asym
    vbl = _rop(_add_shifted(x1, x0, g0, by, -1)[0], *_add_shifted(y1, y0, g1, by, -1))
    vbl += odd
    del x1, x0, y1, y0, g0, g1, by, odd, asym
    s = vb >> _U64(2)
    # s or s + 1, whichever lies in the interval, the closer if both do
    mid = s << _U64(2)
    mid += _U64(2)
    up = vb > mid
    up |= (vb == mid) & (s & _U64(1) == _U64(1))
    del vb
    mid -= _U64(2)
    up |= vbl > mid
    mid += _U64(4)
    up &= mid <= vbr
    del mid
    # unless one digit less will do: the multiple of ten below or above s,
    # if one of them alone lies in the interval
    sp10 = s // _U64(10)
    sp10 *= _U64(10)
    s += up
    del up
    up = (sp10 + _U64(10)) << _U64(2) <= vbr
    shorter = (vbl <= sp10 << _U64(2)) != up
    sp10 += _U64(10) * up
    s[shorter] = sp10[shorter]
    return s, k


def _layout_row(shown, dot, lead):
    """The keep and fill bytes of one layout key (see _tables)."""
    keep, fill = bytearray(48), bytearray(48)
    keep[6 : 6 + 2 * shown : 2] = b"\xff" * shown
    fill[1 : 1 + lead] = b"0.000"[:lead]
    if dot >= 0:
        fill[7 + 2 * dot] = ord(".")
    return bytes(keep), bytes(fill)


@functools.cache
def _tables():
    """The layout tables of cells, as uint64 words of 8 bytes, built by
    copying bytes rather than by numpy arithmetic: the first call of each
    numpy loop maps in more of numpy's code, which peak memory counts.

    group: the four digits of 0..9999, each followed by a NUL.
    last: the position 1..4 of the last non-zero digit of 0..9999; -99
    for 0.
    keep, fill: per layout key (see cells), the AND mask of the digits
    shown and the sign, "0." prefix and point ORed in, over a whole row.
    exponent: "e", sign and two or three digits of decpt - 1 at decpt +
    324, and nothing at 0.
    tens: 10**k at k for k in 0..16."""
    pairs = np.frombuffer(b"".join(b"%c\0%c\0" % tuple(b"%02d" % i) for i in range(100)), dtype=np.uint8)
    group = np.empty((100, 100, 8), dtype=np.uint8)
    group[:, :, :4] = pairs.reshape(100, 1, 4)
    group[:, :, 4:] = pairs.reshape(1, 100, 4)
    in_pair = [2 if i % 10 else 1 if i else -99 for i in range(100)]
    after = bytes(2 + i for i in in_pair[1:])  # the last digit is in the second pair
    last = b"".join(bytes([i % 256]) + after for i in in_pair)
    rows = [_layout_row(n, 0 if n > 1 else -1, 0) for n in range(1, 18)]
    rows += [_layout_row(decpt, -1, 0) for decpt in range(1, 16)]
    rows += [
        _layout_row(max(n, decpt + 1), decpt - 1 if decpt > 0 else -1, 2 - decpt if decpt <= 0 else 0)
        for decpt in range(-3, 17)
        for n in range(1, 18)
    ]
    keep = b"".join(k for k, _ in rows) * 2
    fill = b"".join(f for _, f in rows) + b"".join(b"-" + f[1:] for _, f in rows)
    exponent = bytes(8) + b"".join((b"e%+03d" % x).ljust(8, b"\0") for x in range(-324, 309))
    return (
        group.reshape(-1).view(np.uint64),
        np.frombuffer(last, dtype=np.int8).astype(np.int64),
        np.frombuffer(keep, dtype=np.uint64).reshape(-1, 6),
        np.frombuffer(fill, dtype=np.uint64).reshape(-1, 6),
        np.frombuffer(exponent, dtype=np.uint64),
        np.array([10**k for k in range(17)], dtype=np.uint64),
    )


def _digits(d, count=True):
    """The (n, 6) uint64 words of the rows of cells, holding the 17 digits
    of uint64 lanes d, which it takes over, as a leading digit and four
    groups of four; and if count, the number of significant digits of
    each lane, else None."""
    group, last, _, _, _, _ = _tables()
    out = np.empty((len(d), 6), dtype=np.uint64)
    hi = d // _U64(10**8)
    d -= hi * _U64(10**8)
    top = hi // _U64(10**8)
    hi -= top * _U64(10**8)
    out[:, 0] = np.take(group, top)
    n = np.ones(len(d), dtype=np.int64) if count else None
    for at, x in ((1, hi), (3, d)):
        x4 = x // _U64(10**4)
        x -= x4 * _U64(10**4)
        for j, g in ((at, x4), (at + 1, x)):
            out[:, j] = np.take(group, g)
            if count:
                n = np.maximum(n, np.take(last, g) + (4 * j - 3))
    return out, n


def _layout(out, key):
    """Mask and fill the words of rows of cells, in place, by layout key:
    the digits shown, the sign, the "0." prefix and the point.  Word 5,
    the exponent's, is NUL in every keep row."""
    _, _, keep, fill, _, _ = _tables()
    out &= np.take(keep, key, axis=0)
    out |= np.take(fill, key, axis=0)


def _integer_cells(v):
    """cells of integers strictly inside +-1e15, from their digits: decpt
    is the digit count and the digits are |v| * 10**(17 - decpt)."""
    tens = _tables()[5]
    d = np.abs(v.astype(np.int64, copy=False)).view(np.uint64)
    decpt = np.searchsorted(tens[1:16], d, side="right") + 1
    d *= np.take(tens, 17 - decpt)
    key = decpt + 16  # the integer layout with decpt digits
    key[v < 0] += 372
    out, _ = _digits(d, count=False)
    _layout(out, key)
    return out.view(np.uint8)


def cells(values):
    """The text of each value of an array as an (n, 48) uint8 matrix, one
    row per value, its characters in order with NUL bytes between and
    after them: str(int(v)) for finite integral |v| < 1e15 (-0.0 as 0),
    else repr(float(v)) (-nan as nan).

    Bytes of a row: 0 the sign; 1-5 "0." and up to three zeros before a
    fraction below 0.1; 6-39 seventeen digits, each
    followed by a byte for the point; 40-44 "e", the exponent's sign and
    its two or three digits; 45-47 always NUL.  An integer array whose
    values all lie strictly inside +-1e15 is written from its digits;
    any other array is read as float64, and each of its distinct bit
    patterns is written once (so -0.0 and each nan payload keep their own
    text) and gathered back in order.  A subnormal, nan or infinite
    value, which Schubfach does not cover here, is written by repr from
    the first byte."""
    v = np.asarray(values)
    # the bounds on the values themselves: np.abs wraps -2**63 to itself
    if v.dtype.kind in "iu" and v.size and -(10**15 - 1) <= int(v.min()) and int(v.max()) <= 10**15 - 1:
        return _integer_cells(v)
    v = np.ascontiguousarray(v, dtype=np.float64)
    keys, inverse = np.unique(v.view(np.int64), return_inverse=True)
    v = keys.view(np.float64)
    bits = v.view(np.uint64)
    bq = bits >> _U64(52) & _EXPONENT
    normal = (bq != _U64(0)) & (bq != _EXPONENT)
    del bq
    d, k = _shortest(np.where(normal, bits & _M63, _ONE_BITS))
    big = d >= _U64(10**16)
    decpt = k + 16 + big  # the point sits decpt digits after the first
    zero = v == 0
    decpt[zero] = 1
    d[zero] = 0
    d[~big] *= _U64(10)
    del k, big

    out, n = _digits(d)
    del d
    # an integer below 2**53 is its own shortest decimal, and no other
    # double's interval holds an integer
    integral = (decpt >= n) & (decpt <= 15) & normal | zero

    # layout keys: 0-16 exponent form with n digits, 17-31 integer with
    # decpt digits, 32-371 positional by (decpt, n); plus 372 if negative
    expo = (decpt < -3) | (decpt > 16)
    key = np.where(integral, 16 + decpt, 32 + (decpt + 3) * 17 + n - 1)
    key[expo] = n[expo] - 1
    key[v < 0] += 372
    _layout(out, key)
    out[:, 5] = np.take(_tables()[4], np.where(expo, decpt + 324, 0))
    out = out.view(np.uint8)
    for i in np.flatnonzero(~normal & ~zero).tolist():  # subnormal, nan, inf
        text = np.frombuffer(repr(float(v[i])).encode(), dtype=np.uint8)
        out[i] = 0
        out[i, : len(text)] = text
    # numpy 2.0.0 returns inverse in the shape of its input
    return np.take(out, inverse.reshape(-1), axis=0)


def rows(table):
    """The CSV text of a 2-D array, as bytes: the cells of each row, as
    cells writes them, separated by commas, and each row ended by a
    newline."""
    text = cells(table.reshape(-1))
    text = text.reshape(*table.shape, text.shape[1])
    text[:, :, -1] = ord(",")  # the last byte of a cell is always NUL
    text[:, -1, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")
