import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    current_numeric,
    figure_system,
    reference_flow,
    reference_offcenter_shell_density,
    reference_psi1,
    reference_rk4_round,
    reference_velocity,
    source_displacements,
)
from scipy import integrate, stats
from scipy.special import exp1

from chargeflow import groundstate
from chargeflow.groundstate import (
    _advance,
    _column_velocity,
    _flow,
    _norm_integral_closed,
    _offcenter_shell_density,
    _rk4_round,
    _unit_current,
    current_closed_form,
    effective_kappa,
    ground_energy,
    ground_state,
    psi1,
    psi1_gradient,
    psi_min,
    radial_cdf_interpolator,
    radial_distance_cdf,
    sample_boson_positions,
    source_flux,
    streamlines,
    velocity,
    verify_eigen_vacuum,
    verify_ibc,
)
from chargeflow.model import ChargeSystem
from chargeflow.process import EnsembleParams, equivariance_test

# Two sources one unit apart, couplings (1, e^{i pi/4}), decay constant 0.1.
# The reference numbers below were computed independently (adaptive quadrature,
# Monte Carlo cross-checks) and frozen.
NORM_INTEGRAL = 206.0654406715764
POISSON_RATE = 5.219698589156014
NORM_CONST = 0.07354562665261076
GROUND_ENERGY = -0.1718289841134316
CDF_AT_0P8 = 0.0792197735545108


def three_source_system():
    """Non-collinear sources, so the radial CDF needs its off-center term."""
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.3, 0.9, 0.2]]),
        charges=np.array([1.0, 0.8 * np.exp(0.7j), 1.3 * np.exp(2.1j)]),
        m=1.0,
        E0=0.05,
        hbar=1.0,
    )


# the default tolerance (1.49e-8) of a quad over [0, inf) would limit every
# normalized oracle value to about 1e-9
TIGHT = {"epsabs": 0.0, "epsrel": 1e-13}


def _norm_integral_quad(system):
    """Reference integral |psi1|^2 d^3y by adaptive 1D quadratures.

    The square expands into pair terms conj(g_i) g_j u_i u_j with
    u_j = exp(-alpha r_j)/r_j.  Diagonal terms reduce to a radial integral
    4*pi*int_0^inf exp(-2 alpha r) dr; each cross term reduces in prolate
    spheroidal coordinates around the pair axis to
    2*pi*R*int_1^inf exp(-alpha R xi) dxi with R the source separation.
    """
    a = system.alpha
    g = system.charges
    dist = system.pair_distances()
    total = 0.0
    for i in range(system.n_sources):
        radial, _ = integrate.quad(lambda r: np.exp(-2.0 * a * r), 0.0, np.inf, **TIGHT)
        total += abs(g[i]) ** 2 * 4.0 * np.pi * radial
        for j in range(i + 1, system.n_sources):
            R = dist[i, j]
            cross, _ = integrate.quad(lambda xi: np.exp(-a * R * xi), 1.0, np.inf, **TIGHT)
            total += 2.0 * np.real(np.conj(g[i]) * g[j]) * 2.0 * np.pi * R * cross
    return total


def _radial_density_terms(system, center):
    """Terms of dG/ds for the radial distance CDF about a source.

    G(r) = integral over the ball of radius r around the center of |psi1|^2.
    Expanding |psi1|^2 into pair terms and integrating each over the sphere
    of radius s around the center c = x_c gives, with R the distance from c
    to the relevant source:

      center-center: |g_c|^2 * 4*pi * exp(-2 alpha s)
      other-other (same source at distance R):
          |g_k|^2 * (2*pi*s/R) * (E1(2 alpha |s-R|) - E1(2 alpha (s+R)))
      center-other: 2 Re(conj(g_c) g_k) * (2*pi/(R*alpha)) * exp(-alpha s)
          * (exp(-alpha |s-R|) - exp(-alpha (s+R)))
      other-other (two distinct non-center sources): the production sphere
          quadrature `_offcenter_shell_density`.
    """
    a = system.alpha
    g = system.charges
    c = center - 1
    xc = system.positions[c]
    terms = [lambda s: np.abs(g[c]) ** 2 * 4.0 * np.pi * np.exp(-2.0 * a * s)]
    for k in range(system.n_sources):
        if k == c:
            continue
        R = float(np.linalg.norm(system.positions[k] - xc))
        gk2 = abs(g[k]) ** 2
        coef = 2.0 * np.real(np.conj(g[c]) * g[k])

        def other_sq(s, R=R, gk2=gk2):
            with np.errstate(divide="ignore"):
                val = exp1(2.0 * a * np.abs(s - R)) - exp1(2.0 * a * (s + R))
            return gk2 * (2.0 * np.pi * s / R) * val

        def cross(s, R=R, coef=coef):
            return (
                coef
                * (2.0 * np.pi / (R * a))
                * np.exp(-a * s)
                * (np.exp(-a * np.abs(s - R)) - np.exp(-a * (s + R)))
            )

        terms += [other_sq, cross]
    offcenter = _offcenter_shell_density(system, center)
    return terms if offcenter is None else [*terms, offcenter]


def _radial_cdf_oracle(system, center, radii):
    """Reference radial CDF: one adaptive quadrature from 0 to each radius,
    normalized by the quadrature norm.  The break points below the radius are
    the source distances, where the shell density has a logarithmic kink,
    and points graded geometrically towards them, so that a radius within
    1e-9 of a kink does not leave a near-singularity at the end of one
    quadrature interval."""
    terms = _radial_density_terms(system, center)
    xc = system.positions[center - 1]
    kinks = np.linalg.norm(np.delete(system.positions, center - 1, axis=0) - xc, axis=1)
    offsets = 10.0 ** -np.arange(1.0, 13.0)
    grading = np.concatenate([1.0 - offsets, [1.0], 1.0 + offsets])
    breaks = np.sort(np.outer(kinks, grading).ravel())
    w_total = _norm_integral_quad(system)
    out = []
    for r in radii:
        inner = breaks[(breaks > 0.0) & (breaks < r)]
        val, _ = integrate.quad(
            lambda s: sum(t(s) for t in terms),
            0.0,
            float(r),
            points=inner if inner.size else None,
            limit=200,
        )
        out.append(val / w_total)
    return np.array(out)


def random_system(rng, n_max=4, complex_charges=True, n_sources=None):
    n = int(rng.integers(1, n_max + 1)) if n_sources is None else n_sources
    while True:
        pos = rng.uniform(-2.0, 2.0, size=(n, 3))
        if n == 1 or np.min(
            np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)[~np.eye(n, dtype=bool)]
        ) > 0.3:
            break
    mag = rng.uniform(0.5, 2.0, size=n)
    if complex_charges:
        g = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    else:
        g = mag * rng.choice([-1.0, 1.0], size=n)
    return ChargeSystem(
        positions=pos,
        charges=g,
        m=rng.uniform(0.5, 2.0),
        E0=rng.uniform(0.05, 1.0),
        hbar=rng.uniform(0.5, 2.0),
    )


def random_point(rng, system, min_dist=0.15):
    while True:
        y = rng.uniform(-4.0, 4.0, size=3)
        if np.min(np.linalg.norm(y - system.positions, axis=1)) > min_dist:
            return y


def fd_laplacian(f, y, h):
    out = -6.0 * f(y)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        out += f(y + e) + f(y - e)
    return out / h**2


def test_psi1_solves_free_stationary_equation_away_from_sources():
    rng = np.random.default_rng(0)
    for _ in range(5):
        sys_ = random_system(rng)
        y = random_point(rng, sys_)
        h = 1e-3
        lap = fd_laplacian(lambda p: psi1(sys_, p), y, h)
        residual = -sys_.hbar**2 / (2 * sys_.m) * lap + sys_.E0 * psi1(sys_, y)
        scale = abs(psi1(sys_, y)) * sys_.E0 + 1.0
        assert abs(residual) / scale < 1e-4


def test_psi1_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    sys_ = figure_system()
    for _ in range(10):
        y = random_point(rng, sys_)
        _, grad = psi1_gradient(sys_, y)
        h = 1e-6
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (psi1(sys_, y + e) - psi1(sys_, y - e)) / (2 * h)
            np.testing.assert_allclose(grad[ax], fd, rtol=1e-7, atol=1e-12)


def test_psi1_rejects_source_points():
    sys_ = figure_system()
    with pytest.raises(ValueError):
        psi1(sys_, np.array([0.0, 0.0, 0.0]))


def test_norm_integral_and_poisson_rate_match_reference():
    gs = ground_state(figure_system())
    np.testing.assert_allclose(gs.norm_integral, NORM_INTEGRAL, rtol=1e-10)
    np.testing.assert_allclose(gs.poisson_rate, POISSON_RATE, rtol=1e-10)
    np.testing.assert_allclose(gs.norm_const, NORM_CONST, rtol=1e-10)


def test_quadrature_matches_closed_form_normalization():
    rng = np.random.default_rng(2)
    for _ in range(8):
        sys_ = random_system(rng)
        gs = ground_state(sys_)
        assert gs.norm_integral == _norm_integral_closed(sys_)
        np.testing.assert_allclose(gs.norm_integral, _norm_integral_quad(sys_), rtol=1e-9)


def test_ground_state_requires_positive_rest_energy():
    sys_ = ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0]]), charges=np.array([1.0]), E0=0.0
    )
    with pytest.raises(ValueError):
        ground_state(sys_)


def test_psi_min_vacuum_and_product_structure():
    gs = ground_state(figure_system())
    sys_ = gs.system
    assert psi_min(gs, np.zeros((0, 3))) == pytest.approx(gs.norm_const)
    y1 = np.array([0.3, 0.2, -0.1])
    y2 = np.array([-0.5, 0.8, 0.4])
    pref = -sys_.m / (2 * np.pi * sys_.hbar**2)
    expected = gs.norm_const * pref**2 / np.sqrt(2.0) * psi1(sys_, y1) * psi1(sys_, y2)
    np.testing.assert_allclose(psi_min(gs, np.array([y1, y2])), expected, rtol=1e-13)
    np.testing.assert_allclose(
        psi_min(gs, np.array([y2, y1])), psi_min(gs, np.array([y1, y2])), rtol=1e-13
    )


def test_current_closed_form_matches_finite_difference_oracle():
    rng = np.random.default_rng(3)
    sys_ = figure_system()
    for _ in range(25):
        y = random_point(rng, sys_, min_dist=0.2)
        jc = current_closed_form(sys_, y)
        jn = current_numeric(sys_, y, h=1e-3)
        np.testing.assert_allclose(jc, jn, rtol=0, atol=1e-6 * np.linalg.norm(jn) + 1e-18)


def _current_alt_index_reading(system, y):
    """The rejected reading of the double-sum current: the unit vector
    (y - x_i)/r_i attached to the other summation index than the radial
    factor (alpha + 1/r_j)."""
    d, r = source_displacements(system, np.reshape(y, (-1, 3)))
    a = system.alpha
    u = np.exp(-a * r) / r
    g = system.charges
    out = np.zeros((r.shape[0], 3))
    for i in range(system.n_sources):
        for j in range(system.n_sources):
            if i != j:
                w = np.imag(np.conj(g[i]) * g[j]) * u[:, i] * u[:, j] * (a + 1.0 / r[:, j])
                out += w[:, None] * d[:, i, :] / r[:, i, None]
    return (system.hbar / system.m * out).reshape(np.shape(y))


def test_alternative_index_reading_is_wrong():
    sys_ = figure_system()
    y = np.array([0.4, 0.3, 0.2])
    jn = current_numeric(sys_, y, h=1e-3)
    alt = _current_alt_index_reading(sys_, y)
    assert np.linalg.norm(alt - jn) > 0.1 * np.linalg.norm(jn)


@pytest.mark.parametrize("phase", [1.0, 1j])
def test_current_vanishes_identically_for_symmetric_charges(phase):
    # real (or purely imaginary) couplings of either sign: every component
    # of the current and the velocity is +0.0, never -0.0, so no CSV cell
    # reads "-0"
    rng = np.random.default_rng(4)
    systems = [figure_system(np.array([1.0, -2.0]))]
    systems += [random_system(rng, complex_charges=False) for _ in range(8)]
    for sys_ in systems:
        sys_ = replace(sys_, charges=phase * sys_.charges)
        y = np.array([random_point(rng, sys_) for _ in range(10)])
        for field in (current_closed_form(sys_, y), velocity(sys_, y)):
            assert np.all(field == 0.0)
            assert not np.any(np.signbit(field))


def current_pair_loop(system, y):
    """Oracle: the closed-form current summed one ordered source pair at a
    time, as production evaluated it before `_flow`, plus the pair-term
    scale (hbar/m) sum_{i != j} |Im[conj(g_i) g_j]| u_i u_j (alpha + 1/r_j)."""
    d, r = source_displacements(system, y)
    a = system.alpha
    u = np.exp(-a * r) / r
    e = d / r[..., None]
    g = system.charges
    out = np.zeros((r.shape[0], 3))
    scale = np.zeros(r.shape[0])
    for i in range(system.n_sources):
        for j in range(system.n_sources):
            if i == j:
                continue
            w = np.imag(np.conj(g[i]) * g[j]) * u[:, i] * u[:, j] * (a + 1.0 / r[:, j])
            out += w[:, None] * e[:, j, :]
            scale += np.abs(w)
    return system.hbar / system.m * out, system.hbar / system.m * scale


def velocity_complex(system, y):
    """Oracle: (hbar/m) Im[conj(psi1) grad psi1] / |psi1|^2 from the complex
    gradient, as the ensemble evaluated it before `_flow`, plus that path's
    own rounding scale (hbar/m) |grad psi1| / |psi1|: the self terms
    |g_j|^2 u_j du_j/dr cancel inside the imaginary part, so near a source
    its error is set by them, not by the pair terms."""
    val = reference_psi1(system, y)
    _, grad = psi1_gradient(system, y)
    cur = np.imag(np.conj(val)[..., None] * grad)
    dens = np.abs(val) ** 2
    own = system.hbar / system.m * np.linalg.norm(np.abs(grad), axis=-1) / np.abs(val)
    return system.hbar / system.m * cur / np.maximum(dens, 1e-300)[..., None], own


@pytest.mark.parametrize("seed", range(16))
def test_flow_kernel_matches_the_pair_loop_and_complex_gradient_oracles(seed):
    # 1-4 sources, points from 1e-6 to 60 units off a source
    rng = np.random.default_rng(seed)
    sys_ = random_system(rng)
    k = 64
    dirs = rng.normal(size=(k, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    offsets = np.geomspace(1e-6, 60.0, k)[:, None] * dirs
    y = sys_.positions[rng.integers(0, sys_.n_sources, k)] + offsets
    ref, pair_scale = current_pair_loop(sys_, y)
    cur = current_closed_form(sys_, y)
    assert np.all(np.linalg.norm(cur - ref, axis=1) <= 1e-13 * pair_scale)
    val, _ = _flow(sys_, y)
    _, r = source_displacements(sys_, y)
    magnitude = np.sum(np.abs(sys_.charges) * np.exp(-sys_.alpha * r) / r, axis=1)
    assert np.all(np.abs(val - reference_psi1(sys_, y)) <= 1e-13 * magnitude)
    v_ref, own = velocity_complex(sys_, y)
    budget = 1e-13 * (pair_scale / np.abs(val) ** 2 + own)
    assert np.all(np.linalg.norm(velocity(sys_, y) - v_ref, axis=1) <= budget)


def test_flow_kernel_keeps_the_shape_of_its_points():
    sys_ = three_source_system()
    y = np.random.default_rng(6).uniform(-3.0, 3.0, size=(2, 5, 3))
    val, cur = _flow(sys_, y)
    assert val.shape == (2, 5) and cur.shape == (2, 5, 3)
    assert isinstance(psi1(sys_, y[1, 3]), complex)
    np.testing.assert_allclose(cur[1, 3], current_closed_form(sys_, y[1, 3]), rtol=1e-14)
    np.testing.assert_allclose(velocity(sys_, y)[0], velocity(sys_, y[0]), rtol=1e-14)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    bits = [np.ascontiguousarray(x).reshape(-1).view(np.uint64) for x in (a, b)]
    return np.array_equal(*bits)


def _points_about(rng, system, k):
    """k points 1e-6 to 60 units from a source, in random order."""
    dirs = rng.normal(size=(k, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    offsets = rng.permutation(np.geomspace(1e-6, 60.0, k))[:, None] * dirs
    return system.positions[rng.integers(0, system.n_sources, k)] + offsets


@pytest.mark.parametrize("n_sources", range(1, 7))
def test_points_last_kernel_keeps_the_bits_of_the_row_kernel(n_sources):
    # the reference is the (K, N, 3) einsum kernel the points-last one
    # replaced; a numpy that sums in another order fails here first
    rng = np.random.default_rng(40 + n_sources)
    absorbed = 0
    for complex_charges in (True, False):
        sys_ = random_system(rng, complex_charges=complex_charges, n_sources=n_sources)
        for k in (1, 2, 3, 7, 8, 450, 5000):
            y = _points_about(rng, sys_, k)
            y[rng.integers(0, k)] = np.nan
            shapes = (y, y[0], _points_about(rng, sys_, 10).reshape(2, 5, 3))
            for pts in shapes:
                val, cur = _flow(sys_, pts)
                ref_val, ref_cur = reference_flow(sys_, pts)
                assert _same_bits(val, ref_val) and _same_bits(cur, ref_cur)
                assert _same_bits(current_closed_form(sys_, pts), ref_cur)
                assert _same_bits(velocity(sys_, pts), reference_velocity(sys_, pts))
            remaining = rng.uniform(0.0, 0.5, k)
            near = np.linalg.norm(y[:, None, :] - sys_.positions, axis=-1).min(axis=1)
            eps_absorb = 1e-3
            got = _rk4_round(sys_, _column_velocity, y.T.copy(), remaining, near, eps_absorb)
            ref = reference_rk4_round(sys_, reference_velocity, y, remaining, near, eps_absorb)
            assert _same_bits(got[0].T, ref[0])
            assert all(_same_bits(a, b) for a, b in zip(got[1:], ref[1:]))
            absorbed += np.count_nonzero(ref[3] >= 0)
        at_source = np.array([[0.5, 0.5, 0.5], sys_.positions[-1]])
        for kernel in (_flow, velocity, reference_flow, reference_velocity):
            with pytest.raises(ValueError, match="coincides with a source"):
                kernel(sys_, at_source)
        with pytest.raises(ValueError, match="coincides with a source"):
            _rk4_round(sys_, _column_velocity, at_source.T.copy(), np.ones(2), np.ones(2), 1e-3)
    assert absorbed > 0


def test_far_and_infinite_points_give_the_row_kernel_values_without_a_warning():
    # r^2 overflows beyond about 1e154 from a source and an infinite
    # coordinate makes the current 0 * inf; the einsum kernel gave 0 and NaN
    # there silently, and the suite turns "encountered in" warnings into errors
    sys_ = figure_system()
    y = np.array([[1e160, 0.0, 0.0], [0.0, -3e200, 1.0], [np.inf, 0.0, 0.0], [1.0, 2.0, 3.0]])
    val, cur = _flow(sys_, y)
    with np.errstate(all="ignore"):
        ref_val, ref_cur = reference_flow(sys_, y)
        ref_v = reference_velocity(sys_, y)
    assert _same_bits(val, ref_val) and _same_bits(cur, ref_cur)
    assert _same_bits(current_closed_form(sys_, y), ref_cur)
    assert _same_bits(velocity(sys_, y), ref_v)
    assert _same_bits(velocity(sys_, y[0]), ref_v[0])
    assert np.all(cur[:2] == 0.0) and np.isnan(cur[2, 0])


def test_current_numeric_rejects_large_steps_near_sources():
    sys_ = figure_system()
    with pytest.raises(ValueError):
        current_numeric(sys_, np.array([0.005, 0.0, 0.0]), h=1e-3)


def test_velocity_is_current_over_density_and_phase_invariant():
    rng = np.random.default_rng(5)
    sys_ = figure_system()
    y = random_point(rng, sys_)
    v = velocity(sys_, y)
    dens = abs(psi1(sys_, y)) ** 2
    np.testing.assert_allclose(v, current_closed_form(sys_, y) / dens, rtol=1e-14)
    rotated = replace(sys_, charges=np.exp(0.7j) * sys_.charges)
    np.testing.assert_allclose(velocity(rotated, y), v, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), phi=st.floats(-np.pi, np.pi))
# pair terms that cancel here expose any asymmetry of Im(conj(g_i) g_j)
@example(seed=2303, n=2, phi=2.0)
def test_velocity_gauge_invariant_and_reversed_by_conjugation(seed, n, phi):
    # the paper's T: g -> e^{i phi} g leaves the velocity field alone and
    # g -> conj(g) reverses it
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(-2.0, 2.0, size=(n, 3))
        if np.min(np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)[~np.eye(n, dtype=bool)]) > 0.3:
            break
    g = rng.uniform(0.5, 2.0, size=n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=n))
    sys_ = ChargeSystem(pos, g, m=rng.uniform(0.5, 2.0), E0=rng.uniform(0.05, 1.0), hbar=rng.uniform(0.5, 2.0))
    y = np.array([random_point(rng, sys_) for _ in range(8)])
    v = velocity(sys_, y)
    scale = np.linalg.norm(v, axis=-1)
    for charges, want in ((np.exp(1j * phi) * g, v), (np.conj(g), -v)):
        other = replace(sys_, charges=charges)
        err = np.linalg.norm(velocity(other, y) - want, axis=-1)
        assert np.all(err <= 1e-12 * scale)


def test_velocity_is_zero_where_the_density_underflows():
    # exp(-alpha r) underflows to 0 at r = 80, alpha = 10: the floored
    # density gives 0/1e-300, not 0/0
    sys_ = ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.array([1.0, 1j]),
        E0=50.0,
    )
    v = velocity(sys_, np.array([[80.0, 0.0, 0.0], [0.5, 0.1, 0.0]]))
    np.testing.assert_array_equal(v[0], 0.0)
    assert np.all(np.isfinite(v[1])) and np.linalg.norm(v[1]) > 0.0


def test_ground_energy_matches_reference():
    np.testing.assert_allclose(ground_energy(figure_system()), GROUND_ENERGY, rtol=1e-14)


def test_quarter_phase_gap_kills_the_pair_term():
    sys_ = figure_system(np.array([1.0, 1.5j]))
    self_only = (
        sys_.m
        / (np.pi * sys_.hbar**2)
        * np.sqrt(2 * sys_.m * sys_.E0)
        / (2 * sys_.hbar)
        * (1.0 + 1.5**2)
    )
    np.testing.assert_allclose(ground_energy(sys_), self_only, rtol=1e-14)
    assert effective_kappa(sys_, 1, 2).kappa == pytest.approx(0.0, abs=1e-16)


def test_effective_kappa_value_and_range():
    sys_ = figure_system()
    res = effective_kappa(sys_, 1, 2)
    np.testing.assert_allclose(res.kappa, np.cos(np.pi / 4) / np.pi, rtol=1e-14)
    np.testing.assert_allclose(res.interaction_range, 10.0, rtol=1e-14)
    with pytest.raises(ValueError):
        effective_kappa(sys_, 1, 1)
    with pytest.raises(IndexError):
        effective_kappa(sys_, 0, 1)


@pytest.mark.parametrize(("m", "hbar"), [(1e308, 1.0), (1.0, 1e308), (1.0, 1e-320)])
def test_scales_outside_the_float_range_raise_value_errors_that_name_them(m, hbar):
    sys_ = ChargeSystem(
        positions=figure_system().positions, charges=figure_system().charges, m=m, E0=0.005, hbar=hbar
    )
    if m == 1e308:
        # m/(pi*hbar^2) is finite, the Poisson rate and the ground energy
        # built on it are not
        assert np.isfinite(effective_kappa(sys_, 1, 2).kappa)
        with pytest.raises(ValueError, match=r"the Poisson rate lambda .* leaves the float range"):
            ground_state(sys_)
        with pytest.raises(ValueError, match=r"the ground energy leaves the float range"):
            ground_energy(sys_)
    else:
        for quantity in (
            lambda: ground_state(sys_),
            lambda: effective_kappa(sys_, 1, 2),
            lambda: ground_energy(sys_),
        ):
            with pytest.raises(ValueError, match=r"m/\(pi\*hbar\^2\) leaves the float range"):
                quantity()


def test_ibc_holds_at_every_source():
    rng = np.random.default_rng(6)
    gs = ground_state(figure_system())
    for source in (1, 2):
        for base in (np.zeros((0, 3)), rng.uniform(-1.5, 1.5, size=(2, 3))):
            rep = verify_ibc(gs, base, source, rng.normal(size=3))
            assert rep.passed, rep.rel_error
            assert rep.rel_error < 1e-8


def test_ibc_on_random_systems():
    rng = np.random.default_rng(7)
    for _ in range(3):
        sys_ = random_system(rng, n_max=3)
        gs = ground_state(sys_)
        source = int(rng.integers(1, sys_.n_sources + 1))
        base = rng.uniform(-1.0, 1.0, size=(1, 3))
        rep = verify_ibc(gs, base, source, rng.normal(size=3))
        assert rep.passed, rep.rel_error


def test_vacuum_sector_eigenvalue_equation():
    gs = ground_state(figure_system())
    rep = verify_eigen_vacuum(gs)
    assert rep.passed
    assert rep.rel_error < 1e-6
    np.testing.assert_allclose(rep.closed_form_energy, GROUND_ENERGY, rtol=1e-14)
    assert abs(rep.numeric_energy.imag) < 1e-8 * abs(rep.numeric_energy.real)


def test_source_flux_is_radius_independent_and_balanced():
    sys_ = figure_system()
    lam = np.imag(np.conj(sys_.charges[0]) * sys_.charges[1]) * np.exp(-0.1) / 1.0
    expected = 4.0 * np.pi * lam
    for radius in (0.1, 0.3, 0.6):
        np.testing.assert_allclose(source_flux(sys_, 2, radius), expected, rtol=1e-10)
        np.testing.assert_allclose(source_flux(sys_, 1, radius), -expected, rtol=1e-10)


def test_radial_cdf_reference_value_and_normalization():
    sys_ = figure_system()
    np.testing.assert_allclose(radial_distance_cdf(sys_, 1, 0.8), CDF_AT_0P8, rtol=1e-8)
    np.testing.assert_allclose(radial_distance_cdf(sys_, 1, 200.0), 1.0, rtol=1e-6)


@pytest.mark.parametrize("make_system", [figure_system, three_source_system])
def test_radial_cdf_matches_per_radius_quadrature_oracle(make_system):
    sys_ = make_system()
    kinks = np.linalg.norm(sys_.positions[1:] - sys_.positions[0], axis=1)
    radii = np.concatenate(
        [[2.5, 0.3, 0.0, 12.0], kinks * (1.0 + 1e-3), kinks, kinks * (1.0 - 1e-3), [0.3, 2.5]]
    )
    got = radial_distance_cdf(sys_, 1, radii)
    assert isinstance(got, np.ndarray) and got.shape == radii.shape
    np.testing.assert_allclose(got, _radial_cdf_oracle(sys_, 1, radii), rtol=0, atol=1e-12)
    assert got[2] == 0.0 and got[1] == got[-2] and got[0] == got[-1]
    scalar = radial_distance_cdf(sys_, 1, 0.8)
    assert isinstance(scalar, float)
    assert abs(scalar - _radial_cdf_oracle(sys_, 1, [0.8])[0]) <= 1e-12


@pytest.mark.parametrize("bad", [-1.0, np.nan, [0.5, -1e-9], [0.5, np.nan]])
def test_radial_cdf_rejects_negative_and_nan_radii(bad):
    with pytest.raises(ValueError):
        radial_distance_cdf(figure_system(), 1, bad)


def test_radial_cdf_is_exactly_one_at_infinity():
    sys_ = figure_system()
    assert radial_distance_cdf(sys_, 1, np.inf) == 1.0
    vals = radial_distance_cdf(sys_, 1, [np.inf, 0.8])
    assert vals[0] == 1.0
    np.testing.assert_allclose(vals[1], CDF_AT_0P8, rtol=1e-8)


def test_radial_cdf_of_no_radii_is_empty():
    out = radial_distance_cdf(figure_system(), 1, [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_radial_cdf_matches_oracle_on_random_one_and_two_source_systems():
    rng = np.random.default_rng(2024)
    systems = [random_system(rng, n_max=2) for _ in range(12)]
    assert {s.n_sources for s in systems} == {1, 2}
    for sys_ in systems:
        for center in range(1, sys_.n_sources + 1):
            others = np.delete(sys_.positions, center - 1, axis=0)
            R = np.linalg.norm(others - sys_.positions[center - 1], axis=1)
            radii = np.concatenate(
                [[0.0, 2.5, 60.0], R, R * (1.0 - 1e-9), R * (1.0 + 1e-9), R - 1e-3, R + 1e-3]
            )
            got = radial_distance_cdf(sys_, center, radii)
            want = _radial_cdf_oracle(sys_, center, radii)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_sources", range(3, 7))
def test_offcenter_quadrature_keeps_the_bits_of_the_row_distance_table(n_sources, monkeypatch):
    # the reference measures the off-centre distances over (ns, nq, No, 3)
    # displacements with np.linalg.norm; every source takes a turn as centre.
    # The shell densities are compared too: the quadrature of the CDF can
    # round a last-bit change of the density away
    rng = np.random.default_rng(70 + n_sources)
    sys_ = random_system(rng, n_sources=n_sources)
    radii = np.array([0.0, 0.4, 1.3, 3.0])
    centers = range(1, n_sources + 1)
    shells = np.linspace(0.05, 5.0, 40)
    for c in centers:
        density = _offcenter_shell_density(sys_, c)(shells)
        assert _same_bits(density, reference_offcenter_shell_density(sys_, c)(shells))
    got = np.array([radial_distance_cdf(sys_, c, radii) for c in centers])
    monkeypatch.setattr(
        groundstate, "_offcenter_shell_density", reference_offcenter_shell_density
    )
    want = np.array([radial_distance_cdf(sys_, c, radii) for c in centers])
    assert _same_bits(got, want)


def test_radial_cdf_of_two_sources_runs_no_quadrature(monkeypatch):
    calls = []
    quad = integrate.quad

    def counted(*args, **kwargs):
        calls.append(1)
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counted)
    radial_cdf_interpolator(figure_system(), 1, r_max=80.0)
    gs = ground_state(figure_system())
    equivariance_test(gs, EnsembleParams(runs=1000, sample_times=(0.05,), seed=3))
    assert calls == []
    radial_distance_cdf(three_source_system(), 1, [0.5, 2.0])
    assert calls


def test_radial_cdf_interpolator_tracks_direct_evaluation():
    sys_ = figure_system()
    cdf = radial_cdf_interpolator(sys_, 1, r_max=80.0)
    for r in (0.5, 1.7, 6.0, 25.0):
        np.testing.assert_allclose(cdf(r), radial_distance_cdf(sys_, 1, r), atol=2e-5)


def test_sampler_agrees_with_radial_cdf():
    gs = ground_state(figure_system())
    rng = np.random.default_rng(8)
    pts = sample_boson_positions(gs, 4000, rng)
    r = np.linalg.norm(pts - gs.system.positions[0], axis=1)
    cdf = radial_cdf_interpolator(gs.system, 1, r_max=max(120.0, r.max() * 1.05))
    assert stats.kstest(r, cdf).pvalue > 0.01
    azimuth = np.arctan2(pts[:, 2], pts[:, 1])
    assert stats.kstest(azimuth, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf).pvalue > 0.01


def test_streamlines_connect_emitting_to_absorbing_source():
    sys_ = figure_system()
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    seeds = sys_.positions[1] + 0.05 * dirs
    for line in streamlines(sys_, seeds):
        assert line.termination == "source_hit"
        assert line.source == 1
    swapped = replace(sys_, charges=sys_.charges[::-1])
    seeds = sys_.positions[0] + 0.05 * dirs
    for line in streamlines(swapped, seeds):
        assert line.termination == "source_hit"
        assert line.source == 2


def test_streamlines_report_stationary_field():
    sys_ = figure_system(np.array([1.0, 2.0]))
    lines = streamlines(sys_, np.array([[0.5, 0.3, 0.0]]))
    assert lines[0].termination == "stationary"
    assert lines[0].points.shape == (1, 3)


def _solve_ivp_oracle(system, field, start, span, eps_absorb, max_step):
    """One point through scipy's adaptive RK45 (rtol 1e-8) with a terminal
    contact event per source: the reference for `_advance`, whose field
    takes and returns (3, K) columns.

    Returns (end, 0-based absorbing source or -1, span travelled).
    """
    events = []
    for x in system.positions:

        def contact(s, y, x=x):
            return float(np.linalg.norm(y - x)) - eps_absorb

        contact.terminal = True
        contact.direction = -1.0
        events.append(contact)
    sol = integrate.solve_ivp(
        lambda s, y: field(system, y[:, None])[:, 0],
        (0.0, span),
        start,
        rtol=1e-8,
        atol=1e-10,
        max_step=max_step,
        events=events,
    )
    assert sol.status != -1, sol.message
    hits = [j for j, te in enumerate(sol.t_events) if te.size]
    return sol.y[:, -1], (hits[0] if hits else -1), sol.t[-1]


def test_advance_matches_per_point_solve_ivp_oracle():
    sys_ = figure_system()
    eps_absorb = 1e-4
    pts = sample_boson_positions(ground_state(sys_), 40, np.random.default_rng(3))
    end, hit, left = _advance(sys_, _column_velocity, pts, 2.0, eps_absorb)
    ref = [_solve_ivp_oracle(sys_, _column_velocity, p, 2.0, eps_absorb, 0.05) for p in pts]
    ref_end = np.array([r[0] for r in ref])
    np.testing.assert_array_equal(hit, [r[1] for r in ref])
    absorbed = hit >= 0
    assert 0 < absorbed.sum() < 40
    # an absorbed row stops at its contact point; left gives the contact time
    np.testing.assert_allclose(2.0 - left[absorbed], [r[2] for r in ref if r[1] >= 0], atol=1e-3)
    gap = np.linalg.norm(end - ref_end, axis=1)
    assert gap[absorbed].max() < eps_absorb
    assert np.median(gap[~absorbed]) < 1e-9
    assert gap[~absorbed].max() < 1e-3
    assert np.all(left[~absorbed] <= 1e-15)


# from four sources on, the kernel's BLAS products round one point (gemv)
# differently from several (gemm); ordered sums in their place remove the split
_BATCH_SPLIT = pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="gemv for one point and gemm for a batch round apart from N = 4",
)
_BATCH_SIZES = [1, 2, 3] + [pytest.param(n, marks=_BATCH_SPLIT) for n in (4, 5, 6)]


@pytest.mark.parametrize("n_sources", ["figure"] + _BATCH_SIZES)
def test_advance_of_a_batch_equals_each_row_alone(n_sources):
    # rows finish, and are absorbed, in different rounds; a lone row moves
    # in every round until it stops, so this compares the rounds that move
    # every row with those that gather the rows still moving.  Cases: the
    # figure system, and three random systems of each N = 1-6
    if n_sources == "figure":
        rng = np.random.default_rng(5)
        systems = [figure_system()]
    else:
        rng = np.random.default_rng(60 + n_sources)
        systems = (random_system(rng, n_sources=n_sources) for _ in range(3))
    span = np.linspace(0.0, 1.5, 30)
    absorbed = 0
    for sys_ in systems:
        pts = sample_boson_positions(ground_state(sys_), 30, rng)
        end, hit, left = _advance(sys_, _column_velocity, pts, span, 1e-4)
        assert np.count_nonzero(hit >= 0) < 30
        absorbed += np.count_nonzero(hit >= 0)
        for k in range(30):
            alone = _advance(sys_, _column_velocity, pts[k : k + 1], span[k], 1e-4)
            assert _same_bits(end[k], alone[0][0])
            assert (hit[k], left[k]) == (alone[1][0], alone[2][0])
    # one source carries no current, and nothing it holds moves
    assert (absorbed > 0) == (sys_.n_sources > 1)


@pytest.mark.parametrize("n_sources", _BATCH_SIZES)
def test_psi1_of_a_batch_equals_each_point_alone(n_sources):
    rng = np.random.default_rng(80 + n_sources)
    for _ in range(5):
        sys_ = random_system(rng, n_sources=n_sources)
        y = _points_about(rng, sys_, 12)
        batch = psi1(sys_, y)
        assert _same_bits(batch, [psi1(sys_, point) for point in y])


def test_streamlines_match_per_seed_solve_ivp_oracle():
    sys_ = figure_system()
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    seeds = sys_.positions[1] + 0.05 * dirs
    for line, seed in zip(streamlines(sys_, seeds, max_arc=40.0), seeds):
        end, hit, arc = _solve_ivp_oracle(sys_, _unit_current, seed, 40.0, 1e-4, 0.25)
        assert (line.termination, line.source) == ("source_hit", hit + 1)
        assert np.linalg.norm(line.points[-1] - end) < 1e-4
        assert abs(line.arc_lengths[-1] - arc) < 1e-3


def _assert_polyline_follows_arc_length(line):
    # unit speed: each chord is at most, and for quarter-spacing chunks
    # nearly, the arc length between its vertices
    chords = np.linalg.norm(np.diff(line.points, axis=0), axis=1)
    steps = np.diff(line.arc_lengths)
    assert np.all(steps > 0.0) and np.all(steps <= 0.25 + 1e-12)
    assert np.all(chords <= steps + 1e-12)
    assert np.all(chords >= 0.9 * steps)


def test_streamlines_stop_at_the_arc_budget():
    sys_ = figure_system()
    seeds = sys_.positions[1] + 0.05 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    for line in streamlines(sys_, seeds, max_arc=0.6):
        assert line.termination == "arc_budget"
        assert line.source is None
        np.testing.assert_array_equal(line.arc_lengths, [0.0, 0.25, 0.5, 0.6])
        _assert_polyline_follows_arc_length(line)


def test_long_streamline_reaches_the_absorber_beyond_forty_units():
    # launched just off the axis along +x, away from the absorber, the line
    # swings out to |r| ~ 12 and needs 42.2 units of arc to reach source 1;
    # exactly on the axis the current points along it by symmetry
    sys_ = figure_system()
    direction = np.array([0.99962402, 0.02595928, 0.00882849])
    seed = sys_.positions[1] + 0.05 * direction / np.linalg.norm(direction)
    (line,) = streamlines(sys_, seed, max_arc=80.0)
    assert (line.termination, line.source) == ("source_hit", 1)
    assert abs(line.arc_lengths[-1] - 42.19) < 0.01
    assert np.linalg.norm(line.points, axis=1).max() > 11.0
    (cut,) = streamlines(sys_, seed, max_arc=40.0)
    assert (cut.termination, cut.source) == ("arc_budget", None)
    assert cut.arc_lengths[-1] == 40.0


def test_streamlines_stop_on_leaving_the_domain():
    sys_ = figure_system()
    # launched away from the absorber, the line bulges beyond |y| = 1.3
    # before it turns back
    seed = sys_.positions[1] + 0.05 * np.array([1.0, 0.3, 0.0]) / np.hypot(1.0, 0.3)
    (line,) = streamlines(sys_, seed, domain_radius=1.3, max_arc=40.0)
    assert line.termination == "domain_exit"
    assert line.source is None
    radii = np.linalg.norm(line.points, axis=1)
    assert radii[-1] > 1.3 and np.all(radii[:-1] <= 1.3)
    _assert_polyline_follows_arc_length(line)
    (whole,) = streamlines(sys_, seed, max_arc=40.0)
    assert whole.termination == "source_hit" and whole.source == 1
    np.testing.assert_array_equal(whole.points[: len(line.points)], line.points)


def _seeds_about(system, source, n, seed, radius=0.05):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return system.positions[source - 1] + radius * dirs


def test_batched_streamlines_equal_each_line_alone():
    # with a small domain and a short arc budget the lines of this batch end
    # by contact, by leaving the domain and by the budget, in different chunks
    sys_ = figure_system()
    seeds = _seeds_about(sys_, 2, 12, 3)
    lines = streamlines(sys_, seeds, domain_radius=1.3, max_arc=2.0)
    ends = {(line.termination, len(line.points)) for line in lines}
    assert {term for term, _ in ends} == {"source_hit", "domain_exit", "arc_budget"}
    assert len({n for term, n in ends if term == "source_hit"}) > 1
    assert len({n for term, n in ends if term == "domain_exit"}) > 1
    for line, seed in zip(lines, seeds):
        (alone,) = streamlines(sys_, seed, domain_radius=1.3, max_arc=2.0)
        assert np.array_equal(line.points, alone.points)
        assert np.array_equal(line.arc_lengths, alone.arc_lengths)
        assert (line.termination, line.source) == (alone.termination, alone.source)


def test_streamline_batch_takes_as_many_rounds_as_its_longest_line(monkeypatch):
    # each round evaluates the direction field four times over every live
    # line, after one current evaluation at the seeds; a line that ends its
    # chunk goes on to the next in the same round, so no line waits for another
    sys_ = figure_system()
    seeds = _seeds_about(sys_, 2, 60, 12345)
    calls = []
    original = groundstate.current_closed_form

    def counted(system, y):
        calls.append(len(y))
        return original(system, y)

    monkeypatch.setattr(groundstate, "current_closed_form", counted)
    alone = []
    for seed in seeds:
        calls.clear()
        streamlines(sys_, seed, max_arc=40.0)
        assert len(calls) % 4 == 1
        alone.append(len(calls))
    calls.clear()
    lines = streamlines(sys_, seeds, max_arc=40.0)
    assert all(line.termination == "source_hit" for line in lines)
    assert len(calls) == max(alone)
    assert calls[0] == 60 and calls[1] == 60


def test_streamline_ends_where_its_substep_budget_runs_out(monkeypatch):
    # near the absorber a chunk takes more than ten substeps, so with that
    # budget every line stops in its last chunk, short of the chunk end,
    # exactly where `_advance` with the same round budget leaves it
    sys_ = figure_system()
    seeds = _seeds_about(sys_, 2, 6, 3)
    whole = streamlines(sys_, seeds, max_arc=40.0)
    monkeypatch.setattr(groundstate, "_SUBSTEP_BUDGET", 10)
    lines = streamlines(sys_, seeds, max_arc=40.0)
    for line, full in zip(lines, whole):
        assert (line.termination, line.source) == ("substep_budget", None)
        assert np.array_equal(line.points[:-1], full.points[: len(line.points) - 1])
        assert np.array_equal(line.arc_lengths[:-1], full.arc_lengths[: len(line.points) - 1])
        s = line.arc_lengths[-2]
        s_next = min(s + 0.25, 40.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            end, hit, left = _advance(sys_, _unit_current, line.points[-2:-1], s_next - s, 1e-4, max_rounds=10)
        assert hit[0] == -1 and left[0] > 1e-15
        np.testing.assert_array_equal(line.points[-1], end[0])
        assert line.arc_lengths[-1] == s_next - left[0]
        assert s < line.arc_lengths[-1] < s_next


@pytest.mark.parametrize("max_arc", [-1.0, float("nan")])
def test_streamlines_reject_a_negative_or_nan_arc_budget(max_arc):
    sys_ = figure_system()
    with pytest.raises(ValueError, match="max_arc"):
        streamlines(sys_, sys_.positions[1] + [0.05, 0.0, 0.0], max_arc=max_arc)
