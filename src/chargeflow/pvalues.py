"""The p-values of chargeflow's statistical tests, from `scipy.special` and numpy.

- `pooled_chisquare`: Pearson chi-square with greedy pooling of thin bins,
  its p-value `chdtrc(k - 1, chi2)`, what `scipy.stats.chisquare` returns.
- `poisson_pmf`, `poisson_sf`: `scipy.stats.poisson.pmf` and `.sf`.
- `binomtest_p`: `scipy.stats.binomtest(k, n, 0.5).pvalue`, two-sided.
- `ks_pvalue`: `scipy.stats.kstest(x, cdf).pvalue`, two-sided and exact,
  which is `kstwo.sf(D, n)`, with the regimes of Simard & L'Ecuyer,
  "Computing the Two-Sided Kolmogorov-Smirnov Distribution", J. Stat.
  Softw. 39(11), 2011.

Each follows the code path of scipy 1.17.1 step by step, so every p-value
has the bits that scipy's returns; the tests check this against scipy
itself.  `scipy.stats` would also load `optimize`, `spatial`, `sparse`,
`linalg`, `integrate`, `interpolate`, `ndimage` and `fft`, which none of
these needs, and that import set the peak memory of `chargeflow simulate`
(README, Start-up).

The Kolmogorov-Smirnov functions below are ported from
scipy/stats/_ksstats.py, which carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np
from scipy.special import chdtrc, gammaln, pdtrc, smirnov, xlogy
from scipy.special._ufuncs import _binom_cdf, _binom_pmf, _binom_sf

__all__ = ["pooled_chisquare", "poisson_pmf", "poisson_sf", "binomtest_p", "ks_pvalue"]


def pooled_chisquare(observed, expected):
    """Chi-square p-value with greedy left-to-right pooling of thin bins.

    Bins are merged in order until each pool's expected count reaches 5, a
    thin remainder joins the last pool, and the expected counts are
    rescaled to the observed total.  Fewer than two pools give 1.0; no
    degrees of freedom are subtracted.
    """
    obs_pool, exp_pool = [], []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= 5.0:
            obs_pool.append(acc_obs)
            exp_pool.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if (acc_obs or acc_exp) and exp_pool:
        obs_pool[-1] += acc_obs
        exp_pool[-1] += acc_exp
    if len(exp_pool) < 2:
        return 1.0
    obs = np.array(obs_pool, dtype=float)
    exp = np.array(exp_pool) * sum(obs_pool) / sum(exp_pool)
    return float(chdtrc(len(obs) - 1.0, np.sum((obs - exp) ** 2 / exp)))


# ---------------------------------------------------------------- Poisson


def poisson_pmf(k, mu):
    """P(K = k) for K ~ Poisson(mu) and integers k >= 0."""
    k = np.asarray(k)
    return np.clip(np.exp(xlogy(k, mu) - gammaln(k + 1) - mu), 0, 1)


def poisson_sf(k, mu):
    """P(K > k) for K ~ Poisson(mu) and k >= 0."""
    return np.clip(pdtrc(np.floor(k), mu), 0, 1)


# ---------------------------------------------------------------- binomial
# scipy.stats.binom at p = 1/2 on integer k: the ufuncs it calls, clipped to
# [0, 1], and its values off the support {0, ..., n}


def _binom_half_pmf(k, n):
    return np.clip(_binom_pmf(k, n, 0.5), 0, 1) if 0 <= k <= n else 0.0


def _binom_half_cdf(k, n):
    if k >= n:
        return 1.0
    return np.clip(_binom_cdf(np.floor(k), n, 0.5), 0, 1) if k >= 0 else 0.0


def _binom_half_sf(k, n):
    if k < 0:
        return 1.0
    return np.clip(_binom_sf(np.floor(k), n, 0.5), 0, 1) if k < n else 0.0


def _binary_search_for_binom_tst(a, d, lo, hi):
    """The i in [lo, hi] with a(i) <= d < a(i + 1), a ascending on [lo, hi]."""
    while lo < hi:
        mid = lo + (hi - lo) // 2
        midval = a(mid)
        if midval < d:
            lo = mid + 1
        elif midval > d:
            hi = mid - 1
        else:
            return mid
    if a(lo) <= d:
        return lo
    else:
        return lo - 1


def binomtest_p(k, n):
    """Two-sided p-value of k successes in n >= 1 trials at p = 1/2.

    The probability of every outcome no likelier than k, with a relative
    slack of 1e-7 in the comparison: the far tail starts where a binary
    search over the pmf on the other side of the mode crosses pmf(k).
    """
    d = _binom_half_pmf(k, n)
    rerr = 1 + 1e-7
    mode = 0.5 * n
    if k == mode:
        return 1.0
    if k < mode:
        ix = _binary_search_for_binom_tst(
            lambda x1: -_binom_half_pmf(x1, n), -d * rerr, np.ceil(mode), n
        )
        # the terms from the mode up that are <= d*rerr; ix itself only on
        # exact equality
        y = n - ix + int(d * rerr == _binom_half_pmf(ix, n))
        pval = _binom_half_cdf(k, n) + _binom_half_sf(n - y, n)
    else:
        ix = _binary_search_for_binom_tst(
            lambda x1: _binom_half_pmf(x1, n), d * rerr, 0, np.floor(mode)
        )
        y = ix + 1
        pval = _binom_half_cdf(y - 1, n) + _binom_half_sf(k - 1, n)
    return float(min(1.0, pval))


# ---------------------------------------------------------------- Kolmogorov-Smirnov


def ks_pvalue(sample, cdf):
    """Two-sided one-sample Kolmogorov-Smirnov p-value of `sample` against
    the continuous `cdf` (a vectorized callable): `kstwo.sf(D, n)` with
    D = max(D+, D-) on the sorted sample."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    return _kstwo_sf(d_plus if d_plus > d_minus else d_minus, n)


def _kstwo_sf(d, n):
    """P(D_n >= d) for an integer n >= 1: 1 up to the support's start 1/(2n),
    0 from 1 on, and in between Simard & L'Ecuyer's method for each regime,
    the survival function directly or as 1 - CDF."""
    if np.isnan(d):
        return float("nan")
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0:
        return 0.0
    x = np.float64(d)
    t = n * x
    nxsquared = t * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:  # n*x can round to 1/2 although x > 1/2n
            return 1.0
        if n <= 140:
            cdf = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            cdf = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        sf = 1.0 - cdf
    elif t >= n - 1:  # Ruben-Gambino
        sf = 2 * (1.0 - x) ** n
    elif x >= 0.5:  # exact
        sf = 2 * smirnov(n, x)
    elif n <= 140:
        if nxsquared <= 0.754693:
            sf = 1.0 - _kolmogn_DMTW(n, x)
        elif nxsquared <= 4:
            sf = 1.0 - _kolmogn_Pomeranz(n, x)
        else:  # Miller's approximation
            sf = 2 * smirnov(n, x)
    elif nxsquared >= 370.0:
        return 0.0
    elif nxsquared >= 2.2:
        sf = 2 * smirnov(n, x)
    elif n <= 100000 and n * x**1.5 <= 1.4:
        sf = 1.0 - _kolmogn_DMTW(n, x)
    else:
        sf = 1.0 - _kolmogn_PelzGood(n, x)
    # a long double 1 - CDF keeps its bits until this conversion
    return float(np.clip(sf, 0.0, 1.0))


# long double scale factors, as in scipy: a value rescaled once carries long
# double precision to the end, and the p-value keeps those bits
_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# Stirling coefficients B_{2j}/(2j)/(2j-1) for j = 8, ..., 1, B_m the
# Bernoulli numbers
_STIRLING_COEFFS = [
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
    8.3333333333333333333e-2,
]


def _log_nfactorial_div_n_pow_n(n):
    """log(n!/n**n) by Stirling's series, with n*log(n) removed up front to
    avoid cancellation."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) by the Durbin matrix algorithm as Marsaglia, Tsang and
    Wang (2003) compute it.

    With d = (k - h)/n, k a positive integer and 0 <= h < 1, this is the
    k-th diagonal entry of (n!/n^n) H^n for an m-by-m matrix H, m = 2k - 1,
    the power taken by squaring with intermediate rescaling.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and, reversed, the last row) of H:
    # v[j] = (1 - h^(j+1))/(j+1)! except for v[-1]; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # the power built so far
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # times n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return p


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """The endpoints of the nonzero stretch of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        # i + 1 = 2*ip1div2 + ip1mod2
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by the Pomeranz (1974) recursion.

    Each row of an n-by-(2n+2) matrix V is the convolution of the previous
    row with one of three Poisson-like weight sequences, and the CDF is n!
    times the last entry of the last row.  Only two rows are kept, only
    their few contiguous nonzero entries are convolved, and the rows are
    rescaled against underflow.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # the most powers a convolution needs
    gpower = np.empty(npwrs)  # (g/n)^m/m!
    twogpower = np.empty(npwrs)  # (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # keep j1, V1, V1s and V0s of the last row
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # first entry of conv to use
            conv_len = j2 - j1 + 1  # number of entries to use
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # times n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _kolmogn_PelzGood(n, x):
    """The Pelz and Good (1976) approximation to Pr(D_n <= x), 0 <= x <= 1.

    The Li-Chien and Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5 in z = x*sqrt(n), each term transformed through Jacobi
    theta functions into a series that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # sum c_i q^(i^2) over odd i by Horner's scheme
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array(
            [
                1.0,
                k1a + k1b * msquared,
                k2a + k2b * msquared + k2c * mfour,
                k3a + k3b * msquared + k3c * mfour + k3d * msix,
            ]
        )
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the other sum, over all integers k:
    # K_2: (pi^2 k^2) q^(k^2), K_3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2),
    # with little cancellation, so summed directly
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
