"""The vectorized %.17g kernel of the CSV writer against CPython's '%'."""

import math
from fractions import Fraction

import numpy as np
import pytest

from chargeflow import g17

SMALLEST_NORMAL = 2.2250738585072014e-308


def printed(values):
    """The kernel's text of each value, through the writer's NUL compaction."""
    cells = g17.g17_cells(np.asarray(values, dtype=np.float64))
    lines = np.hstack([cells, np.full((len(cells), 1), ord("\n"), np.uint8)])
    return np.compress(lines.ravel() != 0, lines.ravel()).tobytes().decode().split("\n")[:-1]


def assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    want = ["%.17g" % v for v in values.tolist()]
    got = printed(values)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def count_fallbacks(monkeypatch):
    seen = []
    original = g17._percent_cells

    def counted(values):
        seen.append(len(values))
        return original(values)

    monkeypatch.setattr(g17, "_percent_cells", counted)
    return seen


def test_random_bit_patterns_print_as_percent():
    bits = np.random.default_rng(20261019).integers(-(2**63), 2**63, 200_000, dtype=np.int64)
    assert_exact(bits.view(np.float64))


def test_values_from_1e_minus_30_to_1e30_print_as_percent_and_take_the_fast_path(monkeypatch):
    rng = np.random.default_rng(31415)
    values = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-30, 30, 200_000)
    fallbacks = count_fallbacks(monkeypatch)
    assert_exact(values)
    # near-ties and misjudged decades are rare; a kernel that printed
    # everything through '%' would pass the exactness check alone
    assert sum(fallbacks) < 20


def test_edge_values_print_as_percent():
    largest_subnormal = np.nextafter(SMALLEST_NORMAL, 0.0)
    edges = [0.0, math.nan, math.inf, 5e-324, largest_subnormal, SMALLEST_NORMAL, 1.7976931348623157e308]
    assert_exact(edges + [-x for x in edges])
    assert printed([-0.0, -math.nan, -math.inf]) == ["-0", "nan", "-inf"]


def test_powers_of_ten_and_their_neighbours_print_as_percent():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_exact(np.concatenate([values, -values]))


@pytest.mark.parametrize(
    "edge",
    [
        1e-5,
        1e-4,
        1e16,
        1e17,
        # the fast path's decades are -250 to 250
        1e-250,
        1e251,
    ],
)
def test_layout_and_range_edges_print_as_percent(edge):
    near = [edge]
    for _ in range(3):
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], np.inf)]
    assert_exact(near + [-x for x in near])


def test_exact_ties_round_half_even_as_percent():
    assert printed([1000000000000000.25]) == ["1000000000000000.2"]
    # t = M / 2**k with M * 5**k an 18-digit number: 10**k * t ends in a 5
    # at the 18th digit, so the 17-digit rounding of t is an exact tie
    rng = np.random.default_rng(7)
    ties = []
    for k in range(2, 30):
        # M below 2**53, so that t is a double
        low, high = -(-(10**17) // 5**k), min(10**18 // 5**k, 2**53)
        if high <= low:
            continue
        for m in rng.integers(low, high, 40).tolist():
            m |= 1
            if m < high:
                tie = Fraction(m, 2**k)
                assert (tie * 10**k).denominator == 1 and (tie * 10**k) % 10 == 5
                ties.append(float(tie))
    assert len(ties) > 500
    assert_exact(ties + [-t for t in ties])


def test_the_power_table_is_ten_to_the_p_to_twice_double_precision():
    high, low, high_hi, high_lo = g17._HIGH, g17._LOW, g17._HIGH_HI, g17._HIGH_LO
    for row, x in enumerate(range(-g17._DECADES, g17._DECADES + 1)):
        exact = Fraction(10) ** (16 - x)
        assert high[row] == float(exact) and low[row] == float(exact - Fraction(high[row]))
    # Veltkamp's halves add up to the head
    assert np.array_equal(high_hi + high_lo, high)
