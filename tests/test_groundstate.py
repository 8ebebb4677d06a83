import numpy as np
import pytest
from scipy import integrate, stats

from chargeflow import groundstate
from chargeflow.groundstate import (
    NearNodeError,
    _advance,
    _alpha,
    _norm_integral_closed,
    _radial_density_terms,
    _source_displacements,
    _unit_current,
    current_closed_form,
    current_numeric,
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
from chargeflow.process import _velocity_raw

# Two sources one unit apart, couplings (1, e^{i pi/4}), decay constant 0.1.
# The reference numbers below were computed independently (adaptive quadrature,
# Monte Carlo cross-checks) and frozen.
NORM_INTEGRAL = 206.0654406715764
POISSON_RATE = 5.219698589156014
NORM_CONST = 0.07354562665261076
GROUND_ENERGY = -0.1718289841134316
CDF_AT_0P8 = 0.0792197735545108


def figure_system():
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.array([1.0, np.exp(1j * np.pi / 4)]),
        m=1.0,
        E0=0.005,
        hbar=1.0,
    )


def three_source_system():
    """Non-collinear sources, so the radial CDF needs its off-center term."""
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [0.3, 0.9, 0.2]]),
        charges=np.array([1.0, 0.8 * np.exp(0.7j), 1.3 * np.exp(2.1j)]),
        m=1.0,
        E0=0.05,
        hbar=1.0,
    )


def _norm_integral_quad(system):
    """Reference integral |psi1|^2 d^3y by adaptive 1D quadratures.

    The square expands into pair terms conj(g_i) g_j u_i u_j with
    u_j = exp(-alpha r_j)/r_j.  Diagonal terms reduce to a radial integral
    4*pi*int_0^inf exp(-2 alpha r) dr; each cross term reduces in prolate
    spheroidal coordinates around the pair axis to
    2*pi*R*int_1^inf exp(-alpha R xi) dxi with R the source separation.
    """
    a = _alpha(system)
    g = system.charges
    dist = system.pair_distances()
    total = 0.0
    for i in range(system.n_sources):
        radial, _ = integrate.quad(lambda r: np.exp(-2.0 * a * r), 0.0, np.inf)
        total += abs(g[i]) ** 2 * 4.0 * np.pi * radial
        for j in range(i + 1, system.n_sources):
            R = dist[i, j]
            cross, _ = integrate.quad(lambda xi: np.exp(-a * R * xi), 1.0, np.inf)
            total += 2.0 * np.real(np.conj(g[i]) * g[j]) * 2.0 * np.pi * R * cross
    return total


def _radial_cdf_oracle(system, center, radii):
    """Reference radial CDF: one adaptive quadrature from 0 to each radius,
    with the source distances below it as break points, normalized by the
    quadrature norm."""
    terms = _radial_density_terms(system, center)
    xc = system.positions[center - 1]
    kinks = sorted(
        float(np.linalg.norm(x - xc)) for k, x in enumerate(system.positions) if k != center - 1
    )
    w_total = _norm_integral_quad(system)
    out = []
    for r in radii:
        inner = [b for b in kinks if b < r]
        val, _ = integrate.quad(
            lambda s: sum(t(s) for t in terms), 0.0, float(r), points=inner or None, limit=200
        )
        out.append(val / w_total)
    return np.array(out)


def random_system(rng, n_max=4, complex_charges=True):
    n = int(rng.integers(1, n_max + 1))
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
    d, r = _source_displacements(system, np.reshape(y, (-1, 3)))
    a = _alpha(system)
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


def test_current_vanishes_identically_for_symmetric_charges():
    rng = np.random.default_rng(4)
    sys_ = figure_system().with_charges(np.array([1.0, -2.0]))
    for _ in range(10):
        y = random_point(rng, sys_)
        np.testing.assert_allclose(current_closed_form(sys_, y), 0.0, atol=1e-300)


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
    rotated = sys_.with_charges(np.exp(0.7j) * sys_.charges)
    np.testing.assert_allclose(velocity(rotated, y), v, rtol=1e-12)


def test_velocity_raises_at_underflowing_density():
    sys_ = ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.array([1.0, 1j]),
        E0=50.0,
    )
    with pytest.raises(NearNodeError):
        velocity(sys_, np.array([80.0, 0.0, 0.0]))


def test_ground_energy_matches_reference():
    np.testing.assert_allclose(ground_energy(figure_system()), GROUND_ENERGY, rtol=1e-14)


def test_quarter_phase_gap_kills_the_pair_term():
    sys_ = figure_system().with_charges(np.array([1.0, 1.5j]))
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


def test_radial_cdf_interpolator_integrand_budget(monkeypatch):
    # every shell-density evaluation calls each term once; count the first
    evaluations = []

    def counting_terms(system, center):
        first, *rest = _radial_density_terms(system, center)

        def counted(s):
            evaluations.append(1)
            return first(s)

        return [counted, *rest]

    monkeypatch.setattr(groundstate, "_radial_density_terms", counting_terms)
    radial_cdf_interpolator(figure_system(), 1, r_max=80.0)
    assert 0 < len(evaluations) <= 25_000


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
    swapped = sys_.with_charges(sys_.charges[::-1])
    seeds = sys_.positions[0] + 0.05 * dirs
    for line in streamlines(swapped, seeds):
        assert line.termination == "source_hit"
        assert line.source == 2


def test_streamlines_report_stationary_field():
    sys_ = figure_system().with_charges(np.array([1.0, 2.0]))
    lines = streamlines(sys_, np.array([[0.5, 0.3, 0.0]]))
    assert lines[0].termination == "stationary"
    assert lines[0].points.shape == (1, 3)


def _solve_ivp_oracle(system, field, start, span, eps_absorb, max_step):
    """One point through scipy's adaptive RK45 (rtol 1e-8) with a terminal
    contact event per source: the reference for `_advance`.

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
        lambda s, y: field(system, y[None, :])[0],
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
    end, hit, left = _advance(sys_, _velocity_raw, pts, 2.0, eps_absorb)
    ref = [_solve_ivp_oracle(sys_, _velocity_raw, p, 2.0, eps_absorb, 0.05) for p in pts]
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
