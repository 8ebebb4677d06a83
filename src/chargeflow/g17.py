"""Exact vectorized '%.17g' for float64 arrays, the CSV writer's kernel.

`g17_cells` gives, for each value, the bytes CPython's correctly rounded
'%.17g' % v gives.  For |v| in decades -250 to 250 it forms
|v| * 10**(16 - X), X = floor(log10|v|), as a Dekker product (Dekker,
Numer. Math. 18, 1971) against a double-double table of powers of ten and
rounds it to the 17-digit integer D; where 10**(16 - X) is a double (X from
-6 to 16) the product is exact and a tie rounds to even, elsewhere a
fraction within 1e-9 of one half is not decided here.  Its digits are laid
out by the %g rules, one decade of rows at a time.  '%' itself prints the
rest (the fast path/fallback split of Loitsch, PLDI 2010): 0, -0, NaN,
infinities, the decades beyond 250, near-ties, a misjudged decade and a D
that rounds up to 10**17, once per distinct bit pattern.
"""

import numpy as np

_DECADES = 250  # |X| <= 250 keeps every partial product of the split normal
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_CELL = 24  # the longest '%.17g' text: "-2.2250738585072014e-308"
# row k: 0xff in the first k of 18 cells, 0 after them
_LEADING = np.where(np.arange(18) < np.arange(19)[:, None], 255, 0).astype(np.uint8)


def _veltkamp(x):
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


def _powers_of_ten():
    """10**(16 - X) for |X| <= _DECADES as exact double-doubles, split.

    Python rounds a quotient of integers correctly, so high is 10**p
    rounded and low is the rest of it rounded."""
    high, low = [], []
    for p in range(16 + _DECADES, 15 - _DECADES, -1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h_num, h_den = (num / den).as_integer_ratio()
        high.append(h_num / h_den)
        low.append((num * h_den - h_num * den) / (den * h_den))
    high = np.array(high)
    return high, np.array(low), *_veltkamp(high)


# 2 ms to build: `io` imports this module on the first CSV block it writes
_HIGH, _LOW, _HIGH_HI, _HIGH_LO = _powers_of_ten()


def _layout(x):
    """The %g layout of decade x: text before the digits, the number of digits
    before the point (None: no point among them) and the exponent text."""
    if 0 <= x < 17:
        return b"", x + 1, b""
    if -4 <= x < 0:
        return b"0." + b"0" * (-x - 1), None, b""
    return b"", 1, b"e%+03d" % x


def _digits(d):
    """(n, 17) ASCII digits of integers below 10**17, by uint32 division of
    their two halves (numpy divides by a scalar without a hardware divide)."""
    halves = np.divmod(d, 10**9)
    halves = [part.astype(np.uint32) for part in halves]
    digits = np.empty((d.size, 17), np.uint8)
    for j in range(16, -1, -1):
        part = halves[j >= 8]
        quotient = part // 10
        digits[:, j] = part - quotient * 10 + 48
        halves[j >= 8] = quotient
    return digits


def g17_cells(values):
    """float64 array -> (n, 24) uint8 matrix: row i holds the bytes of
    '%.17g' % values[i] in order, with NUL bytes in the cells it does not use."""
    v = np.asarray(values, dtype=np.float64)
    cells = np.zeros((v.size, _CELL), np.uint8)
    size = np.abs(v)
    rows = np.flatnonzero((size > 0) & (size < np.inf))
    size = size[rows]
    decade = np.floor(np.log10(size)).astype(np.int16)
    fast = np.abs(decade) <= _DECADES
    rows, size, decade = rows[fast], size[fast], decade[fast]
    # an intp index gathers three times faster than the int16 decades, which
    # stay for the stable argsort (a radix sort at 16 bits)
    p = decade.astype(np.intp) + _DECADES
    # the Dekker product size * (_HIGH + _LOW) = product + error exactly,
    # less the rounding of size * _LOW
    product = size * _HIGH[p]
    size_hi, size_lo = _veltkamp(size)
    error = ((size_hi * _HIGH_HI[p] - product) + size_hi * _HIGH_LO[p] + size_lo * _HIGH_HI[p]) + (
        size_lo * _HIGH_LO[p]
    )
    error += size * _LOW[p]
    whole = np.floor(error)
    frac = error - whole
    base = product.astype(np.int64) + whole.astype(np.int64)
    d = base + ((frac > 0.5) | ((frac == 0.5) & (base % 2 == 1)))
    # where 10**(16 - X) is a double (X from -6 to 16) the product is exact, a
    # tie is a tie (and rounds to even), and base >= 10**16 proves the decade.
    # Elsewhere the product's error may decide a near-tie, and D = 10**16 may
    # come from the decade below; D = 10**17 belongs to the decade above
    exact = _LOW[p] == 0
    fast = np.where(exact, base >= 10**16, (np.abs(frac - 0.5) > _TIE_MARGIN) & (d > 10**16))
    fast &= d < 10**17
    order = np.argsort(decade[fast], kind="stable")
    rows, d, decade = rows[fast][order], d[fast][order], decade[fast][order]
    digits = _digits(d)
    significant = 17 - np.argmax(digits[:, ::-1] != 48, axis=1)
    text = np.zeros((rows.size, _CELL), np.uint8)
    text[:, 0] = (v[rows] < 0) * 45
    # the rows of one decade share a layout: lay each out with slices
    edges = np.flatnonzero(np.diff(decade, prepend=-_DECADES - 1, append=_DECADES + 1)).tolist()
    for start, stop in zip(edges[:-1], edges[1:]):
        prefix, point, suffix = _layout(int(decade[start]))
        if point is None:
            body = text[start:stop, 1 + len(prefix) : 18 + len(prefix)]
            body[:] = digits[start:stop]
            kept = significant[start:stop]
        else:
            body = text[start:stop, 1:19]
            # the point follows the first `point` digits; a point with no kept
            # digit after it is cleared below
            body[:, :point] = digits[start:stop, :point]
            body[:, point] = 46
            body[:, point + 1 :] = digits[start:stop, point:]
            shown = np.maximum(significant[start:stop], point)
            kept = shown + (shown > point)
        # clear the trailing zeros (and a point that they leave bare)
        short = np.flatnonzero(kept < body.shape[1])
        body[short] &= _LEADING[kept[short], : body.shape[1]]
        text[start:stop, 1 : 1 + len(prefix)] = np.frombuffer(prefix, np.uint8)
        text[start:stop, 19 : 19 + len(suffix)] = np.frombuffer(suffix, np.uint8)
    # scatter whole rows as single 24-byte items, three times faster than rows
    np.put(cells.view(f"V{_CELL}")[:, 0], rows, text.view(f"V{_CELL}")[:, 0])
    # zeros, NaN, infinities, extreme decades, near-ties, misjudged decades
    slow = np.ones(v.size, bool)
    slow[rows] = False
    slow = np.flatnonzero(slow)
    if slow.size:
        distinct, inverse = np.unique(v[slow].view(np.int64), return_inverse=True)
        cells[slow] = _percent_cells(distinct.view(np.float64))[inverse]
    return cells


def _percent_cells(values):
    """The cells of `g17_cells` by CPython's '%.17g', one call per value."""
    printed = [b"%.17g" % x for x in values.tolist()]
    return np.array(printed, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
