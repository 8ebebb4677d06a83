import types
from functools import partial

import numpy as np
import pytest

from chargeflow import groundstate, process
from chargeflow.groundstate import ground_state, source_flux
from chargeflow.model import ChargeSystem
from chargeflow.presets import figure_system
from chargeflow.process import (
    AbsorbEvent,
    EmissionLaw,
    EmitEvent,
    EnsembleParams,
    MoveEvent,
    SimulationParams,
    _poisson_chisquare,
    _resolve_radii,
    derive_emission_law,
    emission_start_sensitivity,
    equivariance_test,
    reversal_test,
    run_ensemble,
    simulate,
)

# r -> 0 flux limit at source 2 of the preset pair: Im[conj(g1) g2] e^{-alpha d} / d
# with couplings (1, e^{i pi/4}), alpha = 0.1, d = 1.  The emission rate carries
# the prefactor m / (pi hbar^3) = 1/pi.  Both values frozen from the closed form.
FLUX_LIMIT = 0.6398166741645538
EMISSION_RATE = 0.2036599727318106


def pair_flux_limits(system):
    """Closed form of the r -> 0 radial flux limit at every source.

    Only the cross terms of |psi1|^2 survive: the limit at source j is
    sum_{i != j} Im[conj(g_i) g_j] exp(-alpha r_ij) / r_ij.
    """
    X, g = system.positions, system.charges
    alpha = np.sqrt(2.0 * system.m * system.E0) / system.hbar
    out = np.zeros(X.shape[0])
    for j in range(X.shape[0]):
        for i in range(X.shape[0]):
            if i != j:
                r = float(np.linalg.norm(X[i] - X[j]))
                out[j] += np.imag(np.conj(g[i]) * g[j]) * np.exp(-alpha * r) / r
    return out


def random_system(rng, n_min=2, n_max=5):
    n = int(rng.integers(n_min, n_max + 1))
    while True:
        pos = rng.uniform(-2.0, 2.0, size=(n, 3))
        if n == 1 or np.min(
            np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)[~np.eye(n, dtype=bool)]
        ) > 0.4:
            break
    g = rng.uniform(0.5, 2.0, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    return ChargeSystem(
        positions=pos,
        charges=g,
        m=rng.uniform(0.5, 2.0),
        E0=rng.uniform(0.05, 1.0),
        hbar=rng.uniform(0.5, 2.0),
    )


def symmetric_system():
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.array([1.0 + 0j, -2.0 + 0j]),
        m=1.0,
        E0=0.005,
        hbar=1.0,
    )


@pytest.fixture(scope="module")
def fig_gs():
    return ground_state(figure_system())


@pytest.fixture(scope="module")
def fig_law(fig_gs):
    return derive_emission_law(fig_gs)


def test_emission_law_figure_closed_form(fig_gs, fig_law):
    np.testing.assert_allclose(fig_law.limits, [-FLUX_LIMIT, FLUX_LIMIT], rtol=1e-9)
    np.testing.assert_allclose(fig_law.rates, [0.0, EMISSION_RATE], rtol=1e-9)
    assert fig_law.rates[0] == 0.0
    assert fig_law.total_rate == pytest.approx(EMISSION_RATE, rel=1e-9)
    assert 0.0 <= fig_law.direction_spread < 1e-9


def test_emission_limits_match_pair_formula():
    rng = np.random.default_rng(7)
    for _ in range(8):
        system = random_system(rng)
        law = derive_emission_law(ground_state(system))
        expected = pair_flux_limits(system)
        scale = np.max(np.abs(system.charges)) ** 2
        np.testing.assert_allclose(law.limits, expected, rtol=1e-7, atol=1e-10 * scale)
        np.testing.assert_allclose(
            law.rates,
            (system.m / (np.pi * system.hbar**3)) * np.maximum(0.0, expected),
            rtol=1e-7,
            atol=1e-10 * scale,
        )


def test_emission_rate_matches_surface_flux(fig_gs, fig_law):
    # independent route: the spherical-surface probability flux of psi1 is
    # radius independent and equals 4 pi (hbar/m) * limit, so the emission
    # rate is (lambda_P / w) * max(0, flux)
    system = fig_gs.system
    factor = fig_gs.poisson_rate / fig_gs.norm_integral
    for j in (1, 2):
        flux = source_flux(system, j, 0.3)
        np.testing.assert_allclose(
            fig_law.limits[j - 1], system.m / (4.0 * np.pi * system.hbar) * flux, rtol=1e-9
        )
        np.testing.assert_allclose(
            fig_law.rates[j - 1], factor * max(0.0, flux), rtol=1e-9, atol=1e-15
        )


def test_symmetric_charges_emit_nothing():
    law = derive_emission_law(ground_state(symmetric_system()))
    assert law.limits.tolist() == [0.0, 0.0]
    assert law.rates.tolist() == [0.0, 0.0]
    assert law.total_rate == 0.0
    # a common phase rotation keeps every pairwise product real
    rotated = symmetric_system()
    rotated = rotated.with_charges(np.exp(1j * np.pi / 7) * rotated.charges)
    law = derive_emission_law(ground_state(rotated))
    assert law.rates.tolist() == [0.0, 0.0]


def test_single_source_emits_nothing():
    system = ChargeSystem(
        positions=np.zeros((1, 3)),
        charges=np.array([1.0 + 2.0j]),
        m=1.0,
        E0=0.2,
        hbar=1.0,
    )
    law = derive_emission_law(ground_state(system))
    assert law.limits.tolist() == [0.0]
    assert law.total_rate == 0.0


def test_rates_scale_with_squared_charge_norm(fig_gs, fig_law):
    scaled = ground_state(fig_gs.system.with_charges(np.sqrt(2.0) * fig_gs.system.charges))
    law2 = derive_emission_law(scaled)
    np.testing.assert_allclose(law2.limits, 2.0 * fig_law.limits, rtol=1e-9)
    np.testing.assert_allclose(law2.rates, 2.0 * fig_law.rates, rtol=1e-9)
    assert scaled.poisson_rate == pytest.approx(2.0 * fig_gs.poisson_rate, rel=1e-10)


def test_emission_law_input_validation(fig_gs):
    with pytest.raises(ValueError):
        derive_emission_law(fig_gs, radii=[0.1, 0.05])
    with pytest.raises(RuntimeError, match="direction"):
        derive_emission_law(fig_gs, direction_tol=0.0)
    # radii clustered far from zero cannot support the extrapolation
    with pytest.raises(RuntimeError, match="converge"):
        derive_emission_law(fig_gs, radii=[0.80, 0.79, 0.78])


def test_resolve_radii():
    system = figure_system()
    eps_absorb, eps_start = _resolve_radii(system, None, None)
    assert eps_absorb == pytest.approx(1e-4)
    assert eps_start == pytest.approx(1e-3)
    assert _resolve_radii(system, 2e-5, 3e-4) == (2e-5, 3e-4)
    with pytest.raises(ValueError):
        _resolve_radii(system, 1e-3, 1e-4)
    with pytest.raises(ValueError):
        _resolve_radii(system, 0.0, 1e-3)


def test_simulation_params_validate():
    with pytest.raises(ValueError):
        SimulationParams(t_max=0.0)
    with pytest.raises(ValueError):
        SimulationParams(t_max=1.0, dt_max=-0.1)


def test_vacuum_run_with_zero_rates_stays_empty():
    gs = ground_state(symmetric_system())
    rec = simulate(gs, SimulationParams(t_max=2.0, seed=0), initial=np.empty((0, 3)))
    assert rec.events == ()
    assert rec.paths == {}
    assert rec.initial_sector == 0
    assert rec.final_sector == 0
    assert rec.t_final == pytest.approx(2.0)
    assert rec.failure is None


def test_vacuum_run_emits_from_the_positive_flux_source(fig_gs, fig_law):
    rec = simulate(
        fig_gs, SimulationParams(t_max=8.0, seed=0), initial=np.empty((0, 3)), law=fig_law
    )
    emits = [e for e in rec.events if isinstance(e, EmitEvent)]
    absorbs = [e for e in rec.events if isinstance(e, AbsorbEvent)]
    assert emits, "no emission within the horizon"
    assert isinstance(rec.events[0], EmitEvent)
    assert all(e.source == 2 for e in emits)
    assert all(a.source == 1 for a in absorbs)
    for e in emits:
        assert np.linalg.norm(e.direction) == pytest.approx(1.0, rel=1e-12)
        # the newborn path starts eps_start along the emission direction
        first = rec.paths[e.particle][0]
        assert first[0] == pytest.approx(e.time)
        offset = first[1:] - fig_gs.system.positions[1]
        assert np.linalg.norm(offset) == pytest.approx(1e-3, rel=1e-12)
    assert rec.final_sector == len(emits) - len(absorbs)


def test_simulate_is_reproducible(fig_gs, fig_law):
    params = SimulationParams(t_max=4.0, seed=11)
    rec1 = simulate(fig_gs, params, law=fig_law)
    rec2 = simulate(fig_gs, params, law=fig_law)
    assert rec1.events == rec2.events
    assert rec1.paths.keys() == rec2.paths.keys()
    for pid in rec1.paths:
        np.testing.assert_array_equal(rec1.paths[pid], rec2.paths[pid])
    rec3 = simulate(fig_gs, SimulationParams(t_max=4.0, seed=12), law=fig_law)
    assert rec3.events != rec1.events


def test_simulate_accepts_explicit_initial_configuration(fig_gs, fig_law):
    start = np.array([[0.3, 0.2, 0.1], [-0.4, 0.5, 0.2]])
    rec = simulate(fig_gs, SimulationParams(t_max=1.0, seed=5), initial=start, law=fig_law)
    assert rec.initial_sector == 2
    np.testing.assert_array_equal(rec.paths[0][0], [0.0, 0.3, 0.2, 0.1])
    np.testing.assert_array_equal(rec.paths[1][0], [0.0, -0.4, 0.5, 0.2])
    wrapped = types.SimpleNamespace(positions=start)
    rec2 = simulate(fig_gs, SimulationParams(t_max=1.0, seed=5), initial=wrapped, law=fig_law)
    assert rec2.events == rec.events


def test_stationary_run_bookkeeping(fig_gs, fig_law):
    rec = simulate(fig_gs, SimulationParams(t_max=5.0, seed=3), law=fig_law)
    assert rec.failure is None
    assert rec.t_final == pytest.approx(5.0)
    emits = sum(isinstance(e, EmitEvent) for e in rec.events)
    absorbs = sum(isinstance(e, AbsorbEvent) for e in rec.events)
    assert rec.final_sector == rec.initial_sector + emits - absorbs
    # events appear in time order and paths stay inside the horizon
    last = 0.0
    for event in rec.events:
        t = event.t_end if isinstance(event, MoveEvent) else event.time
        assert t >= last - 1e-12
        last = t
    for pid, path in rec.paths.items():
        assert path.shape[1] == 4
        assert np.all(np.diff(path[:, 0]) >= -1e-12)
        assert 0.0 <= path[0, 0] <= path[-1, 0] <= 5.0 + 1e-9
    for event in rec.events:
        if isinstance(event, MoveEvent):
            assert all(pid in rec.paths for pid in event.particles)


def _no_emission_law():
    return EmissionLaw(rates=np.zeros(2), limits=np.zeros(2), direction_spread=0.0)


def test_absorption_is_recorded_at_the_contact_time(fig_gs):
    # the first boson reaches source 1 near t = 0.68, the second survives
    start = np.array([[0.5, 0.1, 0.0], [0.5, 0.8, 0.3]])
    rec = simulate(fig_gs, SimulationParams(t_max=2.0), initial=start, law=_no_emission_law())
    move1, absorb, move2 = rec.events
    assert (move1.t_start, move1.particles) == (0.0, (0, 1))
    assert absorb.particle == 0 and absorb.source == 1
    assert move1.t_end == absorb.time == move2.t_start
    assert 0.6 < absorb.time < 0.75
    assert (move2.t_end, move2.particles) == (2.0, (1,))
    absorbed, survivor = rec.paths[0], rec.paths[1]
    assert absorbed[-1, 0] == absorb.time
    assert np.linalg.norm(absorbed[-1, 1:]) < 1e-4
    # the survivor was re-advanced to the contact time, so it has a vertex there
    assert absorb.time in survivor[:, 0]
    assert np.all(np.diff(survivor[:, 0]) <= 0.05 + 1e-12)
    assert survivor[-1, 0] == 2.0


def test_exhausted_substep_budget_ends_the_record(fig_gs, monkeypatch):
    monkeypatch.setattr(process, "_advance", partial(groundstate._advance, max_rounds=1))
    start = np.array([[0.5, 0.1, 0.0]])
    with pytest.warns(UserWarning, match="budget"):
        rec = simulate(fig_gs, SimulationParams(t_max=2.0), initial=start, law=_no_emission_law())
    assert rec.failure is not None and "budget" in rec.failure
    assert rec.t_final < 2.0


def test_ensemble_params_validate():
    with pytest.raises(ValueError):
        EnsembleParams(runs=0, t_max=1.0)
    with pytest.raises(ValueError):
        EnsembleParams(runs=10, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        EnsembleParams(runs=10)
    with pytest.raises(ValueError):
        EnsembleParams(runs=10, t_max=1.0, sample_times=(2.0,))
    params = EnsembleParams(runs=10, sample_times=(1.0, 0.5))
    assert params.sample_times == (0.5, 1.0)
    assert params.horizon == 1.0
    assert EnsembleParams(runs=10, t_max=3.0).horizon == 3.0


def test_ensemble_grid_alignment(fig_gs, fig_law):
    with pytest.raises(ValueError, match="grid"):
        run_ensemble(fig_gs, EnsembleParams(runs=2, t_max=1.0, dt=0.3), law=fig_law)
    with pytest.raises(ValueError, match="grid"):
        run_ensemble(
            fig_gs, EnsembleParams(runs=2, t_max=1.0, sample_times=(0.25,), dt=0.1), law=fig_law
        )


def test_ensemble_counts_and_determinism(fig_gs, fig_law):
    params = EnsembleParams(runs=300, t_max=2.0, seed=1)
    res1 = run_ensemble(fig_gs, params, law=fig_law)
    res2 = run_ensemble(fig_gs, params, law=fig_law)
    np.testing.assert_array_equal(res1.final_sectors, res2.final_sectors)
    np.testing.assert_array_equal(res1.emissions, res2.emissions)
    assert res1.emissions[0] == 0
    assert res1.emissions[1] > 0
    assert res1.absorptions[0] > 0
    # per-run sector bookkeeping closes the global balance
    assert (
        res1.final_sectors.sum()
        == res1.initial_sectors.sum() + res1.emissions.sum() - res1.absorptions.sum()
    )
    assert res1.snapshots == ()
    assert res1.t_final == pytest.approx(2.0)


def test_ensemble_snapshot_structure(fig_gs, fig_law):
    params = EnsembleParams(runs=200, sample_times=(0.0, 1.0), seed=4)
    res = run_ensemble(fig_gs, params, law=fig_law)
    assert tuple(s.time for s in res.snapshots) == (0.0, 1.0)
    for snap in res.snapshots:
        assert snap.positions.shape == (snap.run_ids.size, 3)
        np.testing.assert_array_equal(
            np.bincount(snap.run_ids, minlength=200), snap.sectors
        )


def test_stationary_sector_distribution(fig_gs, fig_law):
    res = run_ensemble(fig_gs, EnsembleParams(runs=1000, t_max=2.0, seed=1), law=fig_law)
    assert _poisson_chisquare(res.final_sectors, fig_gs.poisson_rate) > 0.01


def test_equivariance_input_validation(fig_gs, fig_law):
    with pytest.raises(ValueError, match="1000"):
        equivariance_test(fig_gs, EnsembleParams(runs=100, sample_times=(1.0,)), law=fig_law)
    with pytest.raises(ValueError, match="sample"):
        equivariance_test(fig_gs, EnsembleParams(runs=2000, t_max=1.0), law=fig_law)


def test_equivariance_null_baseline(fig_gs, fig_law):
    # at t = 0 the ensemble is the freshly drawn invariant law, so the test
    # exercises only the statistics machinery
    report = equivariance_test(
        fig_gs, EnsembleParams(runs=2000, sample_times=(0.0,), seed=0), law=fig_law
    )
    assert report.passed
    assert report.poisson_rate == pytest.approx(fig_gs.poisson_rate)


def test_equivariance_is_preserved_by_the_dynamics(fig_gs, fig_law):
    report = equivariance_test(
        fig_gs, EnsembleParams(runs=1500, sample_times=(2.0,), seed=0), law=fig_law
    )
    assert report.passed
    (sample,) = report.samples
    assert sample.time == 2.0
    assert sample.n_bosons > 5000
    assert min(sample.sector_p, sample.radial_p, sample.angular_p) > 0.01


def test_reversal_detects_the_asymmetric_flow(fig_gs, fig_law):
    report = reversal_test(fig_gs, EnsembleParams(runs=1200, t_max=8.0, seed=0), law=fig_law)
    assert not report.balanced
    assert report.emissions[0] == 0 and report.absorptions[1] == 0
    assert report.emissions[1] > 1000 and report.absorptions[0] > 1000
    assert max(report.p_values) < 1e-6
    assert report.flux_balance_error < 0.05


def test_reversal_direction_flips_under_conjugation(fig_gs):
    conj = fig_gs.system.with_charges(np.conj(fig_gs.system.charges))
    report = reversal_test(ground_state(conj), EnsembleParams(runs=400, t_max=6.0, seed=0))
    assert not report.balanced
    assert report.emissions[1] == 0 and report.absorptions[0] == 0
    assert report.emissions[0] > 300 and report.absorptions[1] > 300


def test_reversal_symmetric_charges_trivially_balanced():
    gs = ground_state(symmetric_system())
    report = reversal_test(gs, EnsembleParams(runs=300, t_max=2.0, seed=0))
    assert report.emissions == (0, 0)
    assert report.absorptions == (0, 0)
    assert report.p_values == (1.0, 1.0)
    assert report.balanced


def test_start_offset_sensitivity_is_small(fig_gs, fig_law):
    report = emission_start_sensitivity(fig_gs, t_probe=2.0, law=fig_law)
    assert report.source == 2
    assert report.eps_start == pytest.approx(1e-3)
    assert len(report.deviations) == 6
    assert report.max_deviation == max(report.deviations)
    assert 0.0 < report.max_deviation < 5e-3


def test_start_offset_sensitivity_zero_rate():
    report = emission_start_sensitivity(ground_state(symmetric_system()))
    assert report.deviations == ()
    assert report.max_deviation == 0.0


def test_poisson_chisquare_helper():
    rng = np.random.default_rng(11)
    good = rng.poisson(4.0, size=5000)
    assert _poisson_chisquare(good, 4.0) > 0.01
    shifted = rng.poisson(6.0, size=5000)
    assert _poisson_chisquare(shifted, 4.0) < 1e-6
    assert _poisson_chisquare(np.zeros(10, dtype=int), 0.01) == 1.0
