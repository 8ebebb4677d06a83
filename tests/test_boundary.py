import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from chargeflow.boundary import (
    PhasePeriodicBC,
    RobinBC,
    WitnessInput,
    bethe_peierls_check,
    boundary_current,
    discrete_periodic_ground,
    emission_witness,
    evolve_robin,
    is_probability_conserving,
    periodic_ground_current,
    periodic_spectrum,
    robin_leak_check,
    symmetry_verdict_periodic,
)
from chargeflow.boundary import _ROBIN_BLOCK_ROWS, _build_robin_tridiag


def gaussian_packet(center=0.5, width=0.1, momentum=0.0):
    def psi0(x):
        return np.exp(-((x - center) ** 2) / (2 * width**2)) * np.exp(1j * momentum * x)

    return psi0


def test_boundary_current_basic_values():
    assert boundary_current(1.3, -0.7) == 0.0
    assert boundary_current(1.0, 1j) == 1.0
    rng = np.random.default_rng(0)
    for _ in range(10):
        k = rng.uniform(-5, 5)
        x = rng.uniform(0, 1)
        m = rng.uniform(0.5, 2)
        hbar = rng.uniform(0.5, 2)
        psi = np.exp(1j * k * x)
        np.testing.assert_allclose(
            boundary_current(psi, 1j * k * psi, m, hbar), hbar * k / m, rtol=1e-14
        )


def test_conservation_verdicts():
    rep = is_probability_conserving(RobinBC(1.0, 0.0, 2.5, 1.0))
    assert rep.end0.conserving and rep.end0.dirichlet
    assert rep.end1.conserving and not rep.end1.dirichlet
    assert rep.conserving
    rep = is_probability_conserving(RobinBC(1.0, 0.0, 1j, 1.0))
    assert not rep.end1.conserving
    assert rep.end1.leak_coefficient == 1.0
    assert not rep.conserving
    with pytest.raises(ValueError):
        RobinBC(0.0, 0.0, 1.0, 0.0)


def test_conserving_verdict_is_conjugation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        scale = rng.normal() + 1j * rng.normal()
        ratio = rng.uniform(-3, 3)
        bc = RobinBC(scale * ratio, scale, 1.0, 0.0)
        conj_bc = RobinBC(np.conj(scale * ratio), np.conj(scale), 1.0, 0.0)
        assert is_probability_conserving(bc).conserving
        assert is_probability_conserving(conj_bc).conserving


def test_bethe_peierls_closed_form_passes():
    gamma = 0.7
    radii = np.geomspace(0.05, 0.001, 8)
    rep = bethe_peierls_check(gamma, radii, np.exp(gamma * radii) / radii)
    assert rep.passed and rep.conjugate_passed
    assert abs(rep.residual) < 1e-9


def test_bethe_peierls_coulomb_profile_fails_with_gamma_residual():
    gamma = 0.7
    radii = np.geomspace(0.05, 0.001, 8)
    rep = bethe_peierls_check(gamma, radii, 1.0 / radii + 0j)
    assert not rep.passed
    np.testing.assert_allclose(rep.residual, -gamma, rtol=1e-9)


def test_bethe_peierls_conjugate_tracks_original():
    rng = np.random.default_rng(2)
    radii = np.geomspace(0.05, 0.001, 10)
    for _ in range(10):
        gamma = rng.uniform(-2, 2)
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        # the quadratic/cubic corrections leave a genuine O(r_max^5) fit
        # truncation, so allow a matching tolerance
        f = np.exp(gamma * radii) * (1.0 + a * radii**2 + b * radii**3)
        rep = bethe_peierls_check(gamma, radii, f / radii, tol=1e-5)
        assert rep.passed and rep.conjugate_passed
        c = rng.normal() + 1j * rng.normal()
        bad = np.exp(gamma * radii) * (1.0 + c * radii)
        rep = bethe_peierls_check(gamma, radii, bad / radii, tol=1e-5)
        assert not rep.passed and not rep.conjugate_passed
        np.testing.assert_allclose(rep.residual, c, rtol=1e-6, atol=1e-9)


def test_bethe_peierls_validates_radii():
    with pytest.raises(ValueError):
        bethe_peierls_check(1.0, [0.001, 0.01, 0.1], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        bethe_peierls_check(1.0, [0.1, 0.01], [1.0, 1.0])


def test_periodic_spectrum_levels_and_ground():
    levels = periodic_spectrum(0.0, n_range=2)
    assert levels[0] == (0.0, 0.0)
    assert periodic_ground_current(0.0) == 0.0
    levels = periodic_spectrum(np.pi / 2, n_range=3)
    ks = [k for k, _ in levels]
    np.testing.assert_allclose(levels[0][0], np.pi / 2)
    np.testing.assert_allclose(levels[0][1], (np.pi / 2) ** 2 / 2)
    np.testing.assert_allclose(periodic_ground_current(np.pi / 2), np.pi / 2)
    assert set(np.round(ks, 10)) == set(
        np.round([np.pi / 2 + 2 * np.pi * n for n in range(-3, 4)], 10)
    )
    energies = [e for _, e in levels]
    assert energies == sorted(energies)
    with pytest.raises(ValueError):
        periodic_spectrum(4.0)


def test_plane_waves_satisfy_shifted_periodicity():
    theta = 1.0
    for k, _ in periodic_spectrum(theta, n_range=2, verify=False):
        x = np.linspace(0, 1, 7)
        np.testing.assert_allclose(
            np.exp(1j * k * (x + 1.0)), np.exp(1j * theta) * np.exp(1j * k * x), rtol=1e-12
        )


def test_discrete_ring_matches_analytic_ground():
    for theta in (0.3, 1.0, 2.0):
        rep = discrete_periodic_ground(theta, n_grid=512)
        assert rep.energy_rel_error < 1e-4
        # the second-order error of the ring is (theta h)^2 / 12 to 1e-5
        # relative; a dense eigensolver's rounding floor misses this by 7e-3
        assert abs(rep.energy_rel_error / ((theta / 512) ** 2 / 12.0) - 1.0) < 1e-5
        assert rep.current_rel_error < 1e-4
        np.testing.assert_allclose(rep.continuum_current, theta)
    rep = discrete_periodic_ground(0.0, n_grid=64)
    assert abs(rep.eigenvalue) < 1e-10
    assert rep.current == 0.0


def test_conjugation_maps_theta_to_minus_theta():
    a = discrete_periodic_ground(1.0, n_grid=128)
    b = discrete_periodic_ground(-1.0, n_grid=128)
    np.testing.assert_allclose(a.eigenvalue, b.eigenvalue, rtol=1e-12)
    np.testing.assert_allclose(a.current, -b.current, rtol=1e-12)


def test_degenerate_half_turn_has_no_current_verdict():
    rep = discrete_periodic_ground(np.pi, n_grid=64)
    assert rep.current is None


def _ring_hamiltonian(theta, m, hbar, n_grid):
    """Dense finite-difference Hamiltonian on the unit circle with phase-shifted wrap."""
    h = 1.0 / n_grid
    c = hbar**2 / (2.0 * m * h**2)
    H = np.zeros((n_grid, n_grid), dtype=complex)
    idx = np.arange(n_grid)
    H[idx, idx] = 2.0 * c
    H[idx[:-1], idx[:-1] + 1] = -c
    H[idx[:-1] + 1, idx[:-1]] = -c
    H[n_grid - 1, 0] = -c * np.exp(1j * theta)
    H[0, n_grid - 1] = -c * np.exp(-1j * theta)
    return H, h


def _dense_ground_current(theta, evec, h, m, hbar):
    # phase-aware central difference of the normalized ground vector
    psi = evec / np.sqrt(np.sum(np.abs(evec) ** 2) * h)
    nxt = np.roll(psi, -1)
    prv = np.roll(psi, 1)
    nxt[-1] *= np.exp(1j * theta)
    prv[0] *= np.exp(-1j * theta)
    return float(np.mean(hbar / m * np.imag(np.conj(psi) * (nxt - prv) / (2.0 * h))))


@pytest.mark.parametrize("n_grid", [64, 512])
@pytest.mark.parametrize("theta", [0.0, 0.3, -0.3, 1.0, 2.0, np.pi])
def test_closed_form_ring_matches_dense_eigh_oracle(theta, n_grid):
    m, hbar = 1.3, 0.8
    H, h = _ring_hamiltonian(theta, m, hbar, n_grid)
    evals, evecs = np.linalg.eigh(H)
    k = theta + 2.0 * np.pi * (np.arange(n_grid) - n_grid // 2)
    closed = np.sort(2.0 * hbar**2 / (m * h**2) * np.sin(k * h / 2.0) ** 2)
    # eigh's rounding floor is ~1e-11 relative to ||H|| ~ 4 hbar^2 / (2m h^2)
    np.testing.assert_allclose(evals, closed, rtol=0, atol=1e-9)
    rep = discrete_periodic_ground(theta, m, hbar, n_grid)
    assert abs(rep.eigenvalue - evals[0]) < 1e-9
    if theta == np.pi:
        assert rep.current is None
        return
    wave = np.exp(1j * theta * h * np.arange(n_grid)) / np.sqrt(n_grid)
    assert abs(np.vdot(wave, evecs[:, 0])) ** 2 > 1.0 - 1e-12
    np.testing.assert_allclose(
        rep.current, _dense_ground_current(theta, evecs[:, 0], h, m, hbar), rtol=1e-12, atol=1e-15
    )


@pytest.mark.parametrize("n_grid", [1, 2])
def test_ring_rejects_grids_without_two_distinct_neighbours(n_grid):
    # at n_grid = 2 the dense matrix's wrap entries overwrote its one bond
    with pytest.raises(ValueError, match="at least 3"):
        discrete_periodic_ground(0.5, n_grid=n_grid)


def test_periodic_symmetry_verdict():
    assert symmetry_verdict_periodic(0.0).symmetric
    assert symmetry_verdict_periodic(np.pi).symmetric
    assert symmetry_verdict_periodic(-np.pi).symmetric
    assert not symmetry_verdict_periodic(0.7).symmetric
    assert symmetry_verdict_periodic(0.7).distance_to_pi_multiple == pytest.approx(0.7)
    with pytest.raises(ValueError):
        PhasePeriodicBC(theta=4.0)


def witness_current(u, v, m=1.0, hbar=1.0):
    return hbar / m * np.imag(np.conj(u) * v)


def test_emission_witness_dirichlet_like_condition():
    w = emission_witness(WitnessInput(alpha=1.0, beta=0.0, psi_q=1.0))
    assert w.positive == (1.0, 1j)
    assert w.negative == (1.0, -1j)
    assert w.current_positive == 1.0 and w.current_negative == -1.0


def test_emission_witness_neumann_like_condition():
    w = emission_witness(WitnessInput(alpha=0.0, beta=1.0, psi_q=1.0))
    np.testing.assert_allclose(w.current_positive, 0.5, rtol=1e-14)
    np.testing.assert_allclose(w.current_negative, -0.5, rtol=1e-14)


def test_emission_witness_matches_f_oracle():
    # j = (hbar/m) * (r*s*sin(chi - phi) - r^2*Im(alpha/beta)) for u = r e^{i phi}
    w = emission_witness(WitnessInput(alpha=5j, beta=1.0, psi_q=2.0))
    s, chi, im = 2.0, 0.0, 5.0
    r = s / (2 * (1 + im))
    for (u, v), sign in ((w.positive, 1.0), (w.negative, -1.0)):
        phi = chi - sign * np.pi / 2
        expected = r * s * np.sin(chi - phi) - r**2 * im
        np.testing.assert_allclose(witness_current(u, v), expected, rtol=1e-14)
        assert np.sign(witness_current(u, v)) == sign


def test_emission_witness_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        alpha = rng.normal() + 1j * rng.normal()
        beta = rng.normal() + 1j * rng.normal() if rng.random() > 0.2 else 0.0
        if alpha == 0 and beta == 0:
            continue
        psi_q = rng.normal() + 1j * rng.normal()
        if psi_q == 0:
            continue
        w = emission_witness(WitnessInput(alpha=alpha, beta=beta, psi_q=psi_q))
        for (u, v), sign in ((w.positive, 1.0), (w.negative, -1.0)):
            residual = abs(alpha * u + beta * v - psi_q)
            assert residual <= 1e-14 * max(abs(psi_q), abs(alpha * u), abs(beta * v), 1e-30)
            assert sign * witness_current(u, v) > 0


# magnitudes in [1e-30, 1e30] times a unit phase, exactly real or imaginary
# in some draws
_COMPLEX_IN_RANGE = st.builds(
    lambda r, phase: r * phase,
    st.floats(1e-30, 1e30),
    st.one_of(
        st.sampled_from([1.0, -1.0, 1j, -1j]),
        st.floats(-np.pi, np.pi).map(lambda phi: complex(np.cos(phi), np.sin(phi))),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    alpha=_COMPLEX_IN_RANGE,
    beta=st.one_of(st.just(0.0), _COMPLEX_IN_RANGE),
    psi_q=_COMPLEX_IN_RANGE,
)
def test_emission_witness_is_total(alpha, beta, psi_q):
    w = emission_witness(WitnessInput(alpha=alpha, beta=beta, psi_q=psi_q))
    for (u, v), sign, j in (
        (w.positive, 1.0, w.current_positive),
        (w.negative, -1.0, w.current_negative),
    ):
        residual = abs(alpha * u + beta * v - psi_q)
        assert residual <= 1e-14 * max(abs(psi_q), abs(alpha * u), abs(beta * v))
        assert np.isfinite(j) and sign * j > 0
        assert j == witness_current(u, v)


@pytest.mark.parametrize("psi_q", [1e-200, 1e200])
def test_emission_witness_rejects_currents_out_of_range(psi_q):
    with pytest.raises(ValueError, match="out of range"):
        emission_witness(WitnessInput(alpha=1.0, beta=1.0, psi_q=psi_q))


def test_emission_witness_rejects_vanishing_interior_value():
    with pytest.raises(ValueError):
        WitnessInput(alpha=1.0, beta=0.5, psi_q=0.0)


def test_conserving_evolution_preserves_norm():
    for bc in (RobinBC(1.0, 0.0, 1.0, 0.0), RobinBC(2.5, 1.0, -1.0, 1.0)):
        ev = evolve_robin(bc, gaussian_packet(momentum=25.0), 1.0, n_grid=512)
        assert abs(ev.norms[-1] / ev.norms[0] - 1.0) < 1e-6


def _solve_banded_robin(bc, psi0, t_final, n_grid=512, m=1.0, hbar=1.0, length=1.0):
    """The Crank-Nicolson loop that refactors its matrix each step (LAPACK gtsv)."""
    dt = t_final / 2000.0
    grid = np.linspace(0.0, length, n_grid)
    diag, up, lo, active, h = _build_robin_tridiag(bc, n_grid, m, hbar, length)
    full = psi0(grid).astype(complex)
    full[~active] = 0.0
    z = 1j * dt / (2.0 * hbar)
    band_up = np.zeros(diag.size, dtype=complex)
    band_lo = np.zeros(diag.size, dtype=complex)
    band_up[1:] = z * up
    band_lo[:-1] = z * lo
    ab_plus = np.vstack([band_up, 1.0 + z * diag, band_lo])
    wts = np.full(n_grid, h)
    wts[0] = wts[-1] = h / 2.0
    samples = [(np.sum(wts * np.abs(full) ** 2), abs(full[0]) ** 2, abs(full[-1]) ** 2)]
    act = full[active].copy()
    for _ in range(int(np.ceil(t_final / dt))):
        rhs = act - z * (diag * act)
        rhs[:-1] -= z * up * act[1:]
        rhs[1:] -= z * lo * act[:-1]
        act = solve_banded((1, 1), ab_plus, rhs)
        full = np.zeros(n_grid, dtype=complex)
        full[active] = act
        samples.append((np.sum(wts * np.abs(full) ** 2), abs(full[0]) ** 2, abs(full[-1]) ** 2))
    norms, d0, d1 = np.array(samples).T
    return norms, d0, d1, full


@pytest.mark.parametrize(
    "bc", [RobinBC(2.5, 1.0, -1.0, 1.0), RobinBC(1j, 1.0, 1.0, 0.0)], ids=["conserving", "leaking"]
)
def test_factored_robin_stepper_matches_solve_banded_bit_for_bit(bc):
    packet = gaussian_packet(width=0.12, momentum=25.0)
    ev = evolve_robin(bc, packet, 0.5)
    norms, d0, d1, psi_final = _solve_banded_robin(bc, packet, 0.5)
    assert np.array_equal(ev.norms, norms)
    assert np.array_equal(ev.end0_density, d0)
    assert np.array_equal(ev.end1_density, d1)
    assert np.array_equal(ev.psi_final, psi_final)


def test_block_recorded_robin_stepper_matches_solve_banded_at_a_dirichlet_end():
    # the figure config's packet: Dirichlet left end, leaking right end;
    # its 2000 steps end in a part-filled block of rows
    assert 2000 % _ROBIN_BLOCK_ROWS
    bc = RobinBC(1.0, 0.0, 1j, 1.0)
    packet = gaussian_packet(width=0.12, momentum=25.0)
    ev = evolve_robin(bc, packet, 0.5)
    norms, d0, d1, psi_final = _solve_banded_robin(bc, packet, 0.5)
    assert np.array_equal(ev.norms, norms)
    assert np.array_equal(ev.end0_density, d0) and not d0.any()
    assert np.array_equal(ev.end1_density, d1)
    assert np.array_equal(ev.psi_final, psi_final)
    assert np.array_equal(ev.times, np.array([k * (0.5 / 2000.0) for k in range(2001)]))


@pytest.mark.parametrize("n_grid", [2, 4])
def test_robin_rejects_grids_with_fewer_than_three_free_nodes(n_grid):
    # two Dirichlet ends leave n_grid - 2 free nodes
    with pytest.raises(ValueError, match="at least 3 nodes"):
        evolve_robin(RobinBC(1.0, 0.0, 1.0, 0.0), gaussian_packet(), 0.1, n_grid=n_grid)


@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_robin_rejects_steps_that_are_not_positive(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_robin(RobinBC(1.0, 0.0, 1j, 1.0), gaussian_packet(), 0.1, n_grid=16, dt=dt)


def test_robin_rejects_non_finite_packets_and_ratios():
    with pytest.raises(ValueError, match="finite"):
        evolve_robin(RobinBC(1.0, 0.0, 1.0, 0.0), np.full(16, np.nan), 0.1, n_grid=16)
    with pytest.raises(ValueError, match="finite"):
        evolve_robin(RobinBC(1.0, 0.0, 1e300, 1e-300), gaussian_packet(), 0.1, n_grid=16)


def test_leak_check_samples_inside_a_short_evolution():
    # six steps: the sampled density maximum keeps a neighbour on each side
    rep = robin_leak_check(RobinBC(1.0, 0.0, 1j, 1.0), dt=0.05)
    assert 0.0 < rep.sample_time < 0.3
    assert rep.times.size == 7
    with pytest.raises(ValueError, match="at least two time steps"):
        robin_leak_check(RobinBC(1.0, 0.0, 1j, 1.0), dt=0.3)


def test_leak_rate_matches_formula_at_right_end():
    rep = robin_leak_check(RobinBC(1.0, 0.0, -2j, 1.0), end=1)
    assert rep.passed
    assert rep.predicted > 0  # outflow: Im(alpha1/beta1) < 0 drains the box
    assert rep.rel_error < 0.1


def test_leak_rate_matches_formula_at_left_end_and_norm_decays():
    bc = RobinBC(1j, 1.0, 1.0, 0.0)
    rep = robin_leak_check(bc, end=0)
    assert rep.passed and rep.predicted > 0
    ev = evolve_robin(bc, gaussian_packet(width=0.12), 1.0, n_grid=512)
    assert ev.norms[-1] < 0.8 * ev.norms[0]


def test_inflow_end_grows_norm_but_still_matches_formula():
    rep = robin_leak_check(RobinBC(1.0, 0.0, 1j, 1.0), end=1)
    assert rep.passed
    assert rep.predicted < 0  # Im(alpha1/beta1) > 0 feeds the box through end 1


def test_leak_check_requires_conserving_opposite_end():
    with pytest.raises(ValueError):
        robin_leak_check(RobinBC(1j, 1.0, -2j, 1.0), end=1)
