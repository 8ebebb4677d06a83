"""The p-value ports against scipy.stats, and the PCHIP port against
scipy.interpolate: equal bit for bit, on both sides of every cut-off."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import figure_system
from scipy import stats
from scipy.interpolate import PchipInterpolator

from chargeflow import groundstate
from chargeflow.groundstate import _pchip, radial_cdf_interpolator
from chargeflow.pvalues import _kstwo_sf, binomtest_p, ks_pvalue, poisson_pmf, poisson_sf
from chargeflow.pvalues import pooled_chisquare


def test_unpooled_tables_match_scipy_chisquare_bit_for_bit():
    rng = np.random.default_rng(20261018)
    for _ in range(2000):
        k = int(rng.integers(2, 40))
        # every bin expects at least 5, so each is its own pool; the observed
        # counts drift from the expected ones by up to a factor 2 either way,
        # so the p-values range from 1 down into the far tail
        expected = rng.uniform(5.0, 500.0, size=k)
        observed = rng.poisson(expected * rng.uniform(0.5, 2.0, size=k))
        if observed.sum() == 0:
            continue
        # the rescaling to the observed total, summed in the helper's order
        rescaled = expected * sum(map(float, observed)) / sum(map(float, expected))
        oracle = stats.chisquare(observed.astype(float), rescaled).pvalue
        assert pooled_chisquare(observed, expected) == float(oracle)


def test_thin_bins_pool_left_to_right_and_the_remainder_joins_the_last_pool():
    observed = np.array([1, 2, 30, 40, 3])
    expected = np.array([1.0, 2.0, 30.0, 40.0, 2.0])
    # pools (1 + 2 + 30, 40 + 3) against (33, 42) rescaled to 76 observed
    oracle = stats.chisquare([33.0, 43.0], np.array([33.0, 42.0]) * 76.0 / 75.0).pvalue
    assert pooled_chisquare(observed, expected) == float(oracle)


def test_fewer_than_two_pools_give_one():
    assert pooled_chisquare([3, 1], [2.0, 2.0]) == 1.0
    assert pooled_chisquare([], []) == 1.0


# ---------------------------------------------------------------- Poisson


def test_poisson_pmf_and_sf_match_scipy_bit_for_bit():
    k = np.arange(301)
    for mu in (0.0, 1e-3, 0.25, 1.0, np.pi, 10.0, 47.5, 123.456, 300.0, 1e3):
        assert np.array_equal(poisson_pmf(k, mu), stats.poisson.pmf(k, mu))
        assert np.array_equal(poisson_sf(k, mu), stats.poisson.sf(k, mu))
        assert poisson_sf(k[-1], mu) == stats.poisson.sf(k[-1], mu)


# ---------------------------------------------------------------- binomial


def test_binomtest_matches_scipy_for_every_outcome_up_to_100_trials():
    for n in range(1, 101):
        for k in range(n + 1):
            assert binomtest_p(k, n) == stats.binomtest(k, n, 0.5).pvalue, (k, n)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**5), fraction=st.floats(0.0, 1.0))
def test_binomtest_matches_scipy_up_to_1e5_trials(n, fraction):
    # outcomes within a few standard deviations of the mode, where the
    # binary search does its work, as often as outcomes anywhere
    if fraction < 0.5:
        k = int(round(fraction * n))
    else:
        k = min(max(int(round(0.5 * n + (fraction - 0.75) * 8 * n**0.5)), 0), n)
    assert binomtest_p(k, n) == stats.binomtest(k, n, 0.5).pvalue


# ---------------------------------------------------------------- Kolmogorov-Smirnov


def _ks_cutoffs():
    """(n, D) on both sides of every cut-off of kstwo.sf, and at it."""
    cuts = []
    for n in (1, 2, 3, 10, 50, 140, 141, 5300, 30000):
        cuts += [(n, 0.5 / n), (n, 1.0 / n), (n, (n - 1) / n), (n, 0.5)]
        cuts += [(n, 1.0), (n, 0.3 / n)]
    for n in (5, 50, 140):
        cuts += [(n, np.sqrt(0.754693 / n)), (n, np.sqrt(4.0 / n))]
    # above 140 points, smirnov's exact sum costs O(n): these stay small
    for n in (141, 1000, 5300):
        cuts += [(n, np.sqrt(c / n)) for c in (2.2, 18.0, 370.0)]
    # n = 100000 is the last n the Durbin matrix takes below n D^1.5 = 1.4
    for n in (141, 5300, 30000, 100000, 100001):
        cuts.append((n, (1.4 / n) ** (2.0 / 3.0)))
    # Pelz-Good's series underflows to a CDF of 0 for z = D sqrt(n) < 0.0418
    cuts += [(200000, 1.5 / 200000), (10**6, 2.0 / 10**6)]
    for n, d in cuts:
        below, above = np.nextafter(d, 0.0), np.nextafter(d, 1.0)
        for x in (d * (1.0 - 1e-6), below, d, above, d * (1.0 + 1e-6)):
            if 0.0 <= x <= 1.0:
                yield n, float(x)


def test_kstwo_sf_matches_scipy_on_both_sides_of_every_cutoff():
    for n, d in _ks_cutoffs():
        assert _kstwo_sf(d, n) == stats.kstwo.sf(d, n), (n, d)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30000), x=st.floats(0.0, 1.0), scaled=st.booleans())
def test_kstwo_sf_matches_scipy_up_to_30000_points(n, x, scaled):
    # scaled draws spread n D^2 over [0, 25], where the regimes change
    d = min(np.sqrt(25.0 * x / n), 1.0) if scaled else x
    assert _kstwo_sf(d, n) == stats.kstwo.sf(d, n)


def test_ks_pvalue_matches_kstest_bit_for_bit():
    rng = np.random.default_rng(20261020)

    def uniform(x):
        return np.clip(x, 0.0, 1.0)

    for n in (1, 2, 7, 100, 141, 1000, 5300):
        for power in (1.0, 1.05, 1.5):
            x = rng.random(n) ** power
            assert ks_pvalue(x, uniform) == stats.kstest(x, uniform).pvalue
    # an empirical CDF wholly below or above the model: D = 1 gives 0
    assert ks_pvalue([2.0, 3.0], uniform) == stats.kstest([2.0, 3.0], uniform).pvalue == 0.0


# ---------------------------------------------------------------- PCHIP


def _assert_pchip_matches_scipy(x, y, r=None):
    """At the nodes and at r, 401 points spanning them by default."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    r = np.linspace(x[0], x[-1], 401) if r is None else r
    r = np.concatenate([r, x])
    oracle = PchipInterpolator(x, y, extrapolate=False)(r)
    assert np.array_equal(_pchip(x, y)(r), oracle)


def test_pchip_matches_scipy_on_shaped_data():
    # two points: the secant at both ends
    _assert_pchip_matches_scipy([0.0, 4.0], [1.0, -2.0])
    # a flat run and a sign change: zero slopes at the nodes that touch them
    _assert_pchip_matches_scipy([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 1.0, 0.5, 2.0])
    # the end rule's sign branch: at 0 the three-point slope, -1, opposes
    # the secant 1 and becomes 0
    _assert_pchip_matches_scipy([0.0, 1.0, 2.0], [0.0, 1.0, 6.0])
    # its cap: at 0 the secants 1/3 and -6 change sign and the slope, 61/12,
    # exceeds three times the first, which it becomes
    _assert_pchip_matches_scipy([0.0, 3.0, 4.0], [0.0, 1.0, -5.0])
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        y = rng.choice([rng.normal(size=n), np.cumsum(rng.random(n)), np.round(rng.normal(size=n))])
        _assert_pchip_matches_scipy(x, y, rng.uniform(x[0], x[-1], 50))


def test_radial_cdf_interpolator_is_scipys_pchip_on_its_grid(monkeypatch):
    nodes = []

    def recorded(x, y):
        nodes.append((x, y))
        return _pchip(x, y)

    monkeypatch.setattr(groundstate, "_pchip", recorded)
    cdf = radial_cdf_interpolator(figure_system(), 1, r_max=40.0)
    (x, y), = nodes
    interp = PchipInterpolator(x, y, extrapolate=False)
    r = np.concatenate([np.random.default_rng(3).uniform(0.0, 45.0, 200_000), x, [np.nan]])
    # the closure of the scipy-based interpolator this one replaced
    inside = np.nan_to_num(interp(np.clip(r, 0.0, x[-1])))
    oracle = np.clip(np.where(r >= x[-1], y[-1], inside), 0.0, 1.0)
    assert np.array_equal(cdf(r), oracle)
