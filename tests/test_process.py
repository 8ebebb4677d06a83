import time
import types
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from oracles import figure_system

from chargeflow import groundstate, process
from chargeflow.config import ConfigError, ensemble_steps, parse_config
from chargeflow.groundstate import ground_state, source_flux
from chargeflow.model import ChargeSystem
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


# the flux limit found numerically, without the closed form: six axis and
# eight diagonal probe directions, a geometric ladder of seven radii, and
# Neville extrapolation of G(r) = Im[r^2 conj(psi1) d(psi1)/dr] to r = 0
# along each direction
_PROBE_DIRECTIONS = np.concatenate(
    [
        np.eye(3),
        -np.eye(3),
        np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        / np.sqrt(3.0),
    ]
)


def numeric_flux_limits(system):
    """Per-source flux limits extrapolated along every probe direction:
    an (N, 14) array, one column per direction."""
    radii = groundstate._default_radii(system)
    out = np.empty((system.n_sources, len(_PROBE_DIRECTIONS)))
    for j in range(system.n_sources):
        pts = system.positions[j] + radii[None, :, None] * _PROBE_DIRECTIONS[:, None, :]
        val, grad = groundstate.psi1_gradient(system, pts)
        radial = np.einsum("drk,dk->dr", grad, _PROBE_DIRECTIONS)
        g_of_r = radii**2 * np.imag(np.conj(val) * radial)
        out[j] = groundstate._extrapolate_to_zero(radii, list(g_of_r.T))
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
    assert fig_law.limits.tolist() == [-FLUX_LIMIT, FLUX_LIMIT]
    assert fig_law.rates.tolist() == [0.0, EMISSION_RATE]


def test_emission_law_matches_the_numeric_flux_limit_in_every_direction():
    rng = np.random.default_rng(7)
    systems = [figure_system()] + [random_system(rng) for _ in range(12)]
    for system in systems:
        law = derive_emission_law(ground_state(system))
        numeric = numeric_flux_limits(system)
        scale = np.max(np.abs(law.limits))
        assert np.max(np.abs(numeric - law.limits[:, None])) <= 1e-9 * scale


def test_emission_law_evaluates_no_psi1_gradient(fig_gs, monkeypatch):
    calls = []
    gradient = groundstate.psi1_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)

    # the module and any binding imported from it
    monkeypatch.setattr(groundstate, "psi1_gradient", counted)
    monkeypatch.setattr(process, "psi1_gradient", counted, raising=False)
    derive_emission_law(fig_gs)
    assert calls == []
    numeric_flux_limits(fig_gs.system)
    assert calls


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
    rotated = replace(rotated, charges=np.exp(1j * np.pi / 7) * rotated.charges)
    law = derive_emission_law(ground_state(rotated))
    assert law.rates.tolist() == [0.0, 0.0]


# charges with one common phase at three sources: every pair product is real
# up to rounding, which the zero-snap absorbs at any E0
COMMON_PHASE_POSITIONS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
COMMON_PHASE_CHARGES = np.exp(1j) * np.array([1.0, -2.0, 0.7])


@pytest.mark.parametrize("E0", [5e-3, 1e-6, 1e-8, 1e-18])
def test_common_phase_charges_emit_nothing_at_small_E0(E0):
    system = ChargeSystem(COMMON_PHASE_POSITIONS, COMMON_PHASE_CHARGES, m=1.0, E0=E0, hbar=1.0)
    assert np.any(system.im_products != 0.0)
    law = derive_emission_law(ground_state(system))
    assert law.limits.tolist() == [0.0, 0.0, 0.0]
    assert law.rates.tolist() == [0.0, 0.0, 0.0]


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
    scaled = ground_state(replace(fig_gs.system, charges=np.sqrt(2.0) * fig_gs.system.charges))
    law2 = derive_emission_law(scaled)
    np.testing.assert_allclose(law2.limits, 2.0 * fig_law.limits, rtol=1e-9)
    np.testing.assert_allclose(law2.rates, 2.0 * fig_law.rates, rtol=1e-9)
    assert scaled.poisson_rate == pytest.approx(2.0 * fig_gs.poisson_rate, rel=1e-10)


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
    assert SimulationParams(t_max=5e4, dt_max=0.05).t_max == 5e4


def test_unbounded_trajectory_is_rejected_at_once(fig_gs):
    # past t = 1e15 a step of 0.05 no longer advances t, so this run would
    # never end; t_max/dt_max above MAX_TRAJECTORY_STEPS is refused up front
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds 1e\\+06 steps"):
        simulate(fig_gs, SimulationParams(t_max=1e308, dt_max=0.05), initial=np.empty((0, 3)))
    with pytest.raises(ValueError, match="steps"):
        SimulationParams(t_max=1.0, dt_max=1e-300)
    assert time.perf_counter() - start < 1.0


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
    return EmissionLaw(rates=np.zeros(2), limits=np.zeros(2))


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = simulate(fig_gs, SimulationParams(t_max=2.0), initial=start, law=_no_emission_law())
    assert rec.failure is not None and "budget" in rec.failure
    assert rec.t_final < 2.0


def per_step_simulate(gs, params, initial=None, law=None):
    """The trajectory loop that appends one (t, x, y, z) vertex per boson per
    step and pops and re-pushes the open MoveEvent every step: the oracle of
    `process.simulate`, which gathers a stretch between two jumps at once."""
    system = gs.system
    X = system.positions
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    if initial is None:
        n0 = int(rng.poisson(gs.poisson_rate))
        pos = process.sample_boson_positions(gs, n0, rng) if n0 else np.empty((0, 3))
    else:
        pos = np.array(initial, dtype=float).reshape(-1, 3)
        n0 = pos.shape[0]
    ids = list(range(n0))
    paths = {pid: [(0.0, *pos[k])] for k, pid in enumerate(ids)}
    events = []
    failure = None
    next_id = n0
    total = law.total_rate
    cum = np.cumsum(law.rates)
    t = 0.0
    while ids:
        d = np.linalg.norm(pos - X[:, None, :], axis=-1)
        k = int(np.argmin(np.min(d, axis=0)))
        if np.min(d[:, k]) >= eps_absorb:
            break
        s = int(np.argmin(d[:, k]))
        events.append(AbsorbEvent(time=0.0, source=s + 1, particle=ids[k]))
        ids.pop(k)
        pos = np.delete(pos, k, axis=0)
    t_emit = rng.exponential(1.0 / total) if total > 0.0 else np.inf
    velocity = groundstate._column_velocity
    while t < params.t_max - 1e-12:
        t_stop = min(t + params.dt_max, t_emit, params.t_max)
        if ids:
            moved, hit, left = process._advance(system, velocity, pos, t_stop - t, eps_absorb)
            if np.any((hit < 0) & (left > 1e-15)):
                failure = f"substep budget exhausted in the step from t={t:.6g}"
                break
            absorbed = np.flatnonzero(hit >= 0)
            if absorbed.size:
                first = absorbed[np.argmax(left[absorbed])]
                t_stop -= left[first]
                others = np.arange(len(ids)) != first
                moved[others], hit[others], _ = process._advance(
                    system, velocity, pos[others], t_stop - t, eps_absorb
                )
                absorbed = np.flatnonzero(hit >= 0)
            for k, pid in enumerate(ids):
                paths[pid].append((t_stop, *moved[k]))
            t_start = events.pop().t_start if events and isinstance(events[-1], MoveEvent) else t
            events.append(MoveEvent(t_start=t_start, t_end=t_stop, particles=tuple(ids)))
            for k in absorbed:
                events.append(AbsorbEvent(time=t_stop, source=int(hit[k]) + 1, particle=ids[k]))
            ids = [pid for k, pid in enumerate(ids) if hit[k] < 0]
            pos = moved[hit < 0]
        t = t_stop
        if t == t_emit:
            source = int(np.searchsorted(cum, rng.random() * total, side="right"))
            direction = process._unit_vectors(rng, 1)[0]
            born = X[source] + eps_start * direction
            pos = np.vstack([pos, born])
            ids.append(next_id)
            paths[next_id] = [(t, *born)]
            events.append(
                EmitEvent(time=t, source=source + 1, direction=tuple(direction), particle=next_id)
            )
            next_id += 1
            t_emit = t + rng.exponential(1.0 / total)
    return process.TrajectoryRecord(
        seed=params.seed,
        initial_sector=n0,
        t_final=t,
        events=tuple(events),
        paths={pid: np.array(rows) for pid, rows in paths.items()},
        failure=failure,
    )


def assert_same_record(got, want):
    assert got.events == want.events
    assert type(got.t_final) is type(want.t_final) and got.t_final == want.t_final
    assert (got.initial_sector, got.failure) == (want.initial_sector, want.failure)
    assert list(got.paths) == list(want.paths)
    for pid, path in want.paths.items():
        assert got.paths[pid].dtype == path.dtype
        assert np.array_equal(got.paths[pid], path)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8, 13, 21])
def test_simulate_matches_the_per_step_oracle(fig_gs, fig_law, seed):
    params = SimulationParams(t_max=30.0, seed=seed)
    rec = simulate(fig_gs, params, law=fig_law)
    assert_same_record(rec, per_step_simulate(fig_gs, params, law=fig_law))
    assert any(isinstance(e, AbsorbEvent) for e in rec.events)


# explicit starts against the oracle, each with the case it pins
_SIMULATE_CASES = {
    # the first boson starts inside the absorption ball of source 1
    "absorbed at t = 0": (np.array([[3e-5, 0.0, 0.0], [0.5, 0.8, 0.3]]), 0),
    # the first boson's contact cuts the step, and the second is re-advanced
    "cut re-advances the others": (np.array([[0.5, 0.1, 0.0], [0.5, 0.8, 0.3]]), 0),
    # mirror images in the z = 0 plane reach source 1 in the same cut
    "two absorbed in one cut": (np.array([[0.5, 0.1, 0.05], [0.5, 0.1, -0.05]]), 0),
    # the emission clock ends a step while bosons move
    "step ends on the clock": (np.array([[0.5, 0.8, 0.3], [-0.6, 0.4, 0.2]]), 3),
}


@pytest.mark.parametrize("case", list(_SIMULATE_CASES))
def test_simulate_matches_the_per_step_oracle_from_explicit_starts(fig_gs, fig_law, case):
    start, seed = _SIMULATE_CASES[case]
    law = fig_law if case == "step ends on the clock" else _no_emission_law()
    params = SimulationParams(t_max=3.0, seed=seed)
    rec = simulate(fig_gs, params, initial=start, law=law)
    assert_same_record(rec, per_step_simulate(fig_gs, params, initial=start, law=law))
    absorbs = [e for e in rec.events if isinstance(e, AbsorbEvent)]
    if case == "absorbed at t = 0":
        assert absorbs[0] == AbsorbEvent(time=0.0, source=1, particle=0)
    elif case == "cut re-advances the others":
        assert len(absorbs) == 1 and absorbs[0].time in rec.paths[1][:, 0]
    elif case == "two absorbed in one cut":
        assert [a.particle for a in absorbs] == [0, 1]
        assert absorbs[0].time == absorbs[1].time
    else:
        emits = [e.time for e in rec.events if isinstance(e, EmitEvent)]
        moves = [e for e in rec.events if isinstance(e, MoveEvent)]
        assert any(m.t_end in emits and len(m.particles) == 2 for m in moves)


def test_simulate_matches_the_per_step_oracle_when_the_substep_budget_runs_out(fig_gs, monkeypatch):
    monkeypatch.setattr(process, "_advance", partial(groundstate._advance, max_rounds=3))
    start = np.array([[0.5, 0.1, 0.0], [0.5, 0.8, 0.3]])
    params = SimulationParams(t_max=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = simulate(fig_gs, params, initial=start, law=_no_emission_law())
        want = per_step_simulate(fig_gs, params, initial=start, law=_no_emission_law())
    assert rec.failure is not None and rec.t_final > 0.0
    assert_same_record(rec, want)


def test_ensemble_params_validate():
    with pytest.raises(ValueError):
        EnsembleParams(runs=0, t_max=1.0)
    with pytest.raises(ValueError):
        EnsembleParams(runs=10, t_max=1.0, dt=0.0)
    with pytest.raises(ValueError):
        EnsembleParams(runs=10)
    # run_ensemble stops only at positive grid steps and keeps one snapshot
    # per step, so a negative time would vanish and a repeated one merge
    with pytest.raises(ValueError, match="sample times must be nonnegative"):
        EnsembleParams(runs=1000, sample_times=(-0.5, 1.0))
    params = EnsembleParams(runs=10, sample_times=(1.0, 0.5, -0.0))
    assert params.sample_times == (0.0, 0.5, 1.0)
    assert params.horizon == 1.0
    assert params.steps == (100, (0, 50, 100))
    assert EnsembleParams(runs=10, t_max=3.0).horizon == 3.0
    # without a t_max the grid rules hold as with one (table below), but the
    # horizon, the last sample time, may be t = 0
    for times in [(1.0, 1.0), (1.0, 1.0 + 1e-12)]:
        with pytest.raises(ValueError, match="key 'sample_times' entries must be distinct"):
            EnsembleParams(runs=1000, sample_times=times)
    with pytest.raises(ValueError, match="key 'dt' is too small"):
        EnsembleParams(runs=1000, sample_times=(0.0, 1.0), dt=1e-320)
    params = EnsembleParams(runs=1000, sample_times=(0.0,))
    assert (params.horizon, params.steps) == (0.0, (0, (0,)))
    # a non-finite time is its own key's fault, not an overflow of t/dt
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="key 't_max' must be finite"):
            EnsembleParams(runs=10, t_max=value)
        with pytest.raises(ValueError, match="key 'sample_times' must be finite"):
            EnsembleParams(runs=10, sample_times=(0.0, value))


# (t_max, sample_times, dt, and the key at fault or the accepted steps): the
# ensemble's dt grid, as parse_config and EnsembleParams decide it
_GRID_CASES = [
    (10.0, (), 1e-320, "dt"),
    (1.0, (), 0.3, "t_max"),
    (1.0, (0.25,), 0.1, "sample_times"),
    (10.0, (0.005,), 0.01, "sample_times"),
    # both lie on the dt grid at step 0: the ensemble would run no step
    (5e-324, (), 0.01, "t_max"),
    (1e-9, (), 0.01, "t_max"),
    (10.0, (1.0, 1.0), 0.01, "sample_times"),
    (10.0, (1.0, 1.0 + 1e-12), 0.01, "sample_times"),
    (1.0, (2.0,), 0.01, "sample_times"),
    # a sample at t = 0 stays valid, alone or below a t_max of one step
    (10.0, (0.0,), 0.01, (1000, (0,))),
    (0.01, (0.0,), 0.01, (1, (0,))),
    (10.0, (5.0, 10.0), 0.01, (1000, (500, 1000))),
]


@pytest.mark.parametrize(("t_max", "sample_times", "dt", "want"), _GRID_CASES)
def test_config_and_ensemble_params_decide_the_dt_grid_alike(t_max, sample_times, dt, want):
    times = " ".join(map(repr, sample_times))
    text = f"[simulate]\nruns = 1000\nt_max = {t_max!r}\ndt = {dt!r}\nsample_times = {times}\n"
    make = partial(EnsembleParams, runs=1000, t_max=t_max, sample_times=sample_times, dt=dt)
    if isinstance(want, str):
        lineno = {"t_max": 3, "dt": 4, "sample_times": 5}[want]
        with pytest.raises(ConfigError, match=f"^line {lineno}: key '{want}' "):
            parse_config(text)
        with pytest.raises(ValueError, match=f"^key '{want}' "):
            make()
    else:
        opts = parse_config(text).options("simulate")
        assert ensemble_steps(opts["t_max"], opts["sample_times"], opts["dt"]) == want
        assert make().steps == want


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


def per_dt_run_ensemble(gs, params, law):
    """The ensemble driver that steps every boson in lock-step on the dt grid:
    one `_advance` call per dt, carrying that step's newborns from their birth
    times.  It draws the same random stream as `run_ensemble`."""
    system = gs.system
    X = system.positions
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    n_steps, sample_steps = params.steps
    snap_steps = dict(zip(sample_steps, params.sample_times))
    sectors = rng.poisson(gs.poisson_rate, size=params.runs)
    pos = groundstate.sample_boson_positions(gs, int(sectors.sum()), rng)
    run = np.repeat(np.arange(params.runs), sectors)
    initial_sectors = sectors.copy()
    emissions = np.zeros(system.n_sources, dtype=int)
    absorptions = np.zeros(system.n_sources, dtype=int)
    d0 = np.linalg.norm(pos[:, None, :] - X[None, :, :], axis=-1)
    nearest = np.argmin(d0, axis=1)
    inside = d0[np.arange(pos.shape[0]), nearest] < eps_absorb
    np.add.at(absorptions, nearest[inside], 1)
    np.subtract.at(sectors, run[inside], 1)
    pos, run = pos[~inside], run[~inside]
    total = law.total_rate
    cum = np.cumsum(law.rates)
    next_emit = rng.exponential(1.0 / total, size=params.runs)
    snapshots = []
    if 0 in snap_steps:
        snapshots.append(process.EnsembleSnapshot(0.0, sectors.copy(), pos, run))
    for i in range(n_steps):
        t1 = (i + 1) * params.dt
        rows, runs, durations = [pos], [run], [np.full(pos.shape[0], params.dt)]
        while True:
            due = np.flatnonzero(next_emit <= t1)
            if due.size == 0:
                break
            src = np.searchsorted(cum, rng.random(due.size) * total, side="right")
            np.add.at(emissions, src, 1)
            np.add.at(sectors, due, 1)
            rows.append(X[src] + eps_start * process._unit_vectors(rng, due.size))
            runs.append(due)
            durations.append(t1 - next_emit[due])
            next_emit[due] += rng.exponential(1.0 / total, size=due.size)
        pos, run = np.concatenate(rows), np.concatenate(runs)
        pos, hit_src, _ = groundstate._advance(
            system, groundstate._column_velocity, pos, np.concatenate(durations), eps_absorb
        )
        hit = hit_src >= 0
        np.add.at(absorptions, hit_src[hit], 1)
        np.subtract.at(sectors, run[hit], 1)
        pos, run = pos[~hit], run[~hit]
        if i + 1 in snap_steps:
            snapshots.append(process.EnsembleSnapshot(snap_steps[i + 1], sectors.copy(), pos, run))
    return types.SimpleNamespace(
        emissions=emissions,
        absorptions=absorptions,
        initial_sectors=initial_sectors,
        final_sectors=sectors,
        snapshots=tuple(snapshots),
    )


@pytest.mark.parametrize("seed", [3, 7])
def test_ensemble_matches_the_per_dt_oracle(fig_gs, fig_law, seed):
    params = EnsembleParams(runs=1000, sample_times=(0.0, 0.5, 1.0), seed=seed)
    got = run_ensemble(fig_gs, params, law=fig_law)
    want = per_dt_run_ensemble(fig_gs, params, fig_law)
    for name in ("emissions", "absorptions", "initial_sectors", "final_sectors"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert len(got.snapshots) == len(want.snapshots) == 3
    for snap, ref in zip(got.snapshots, want.snapshots):
        assert snap.time == ref.time
        np.testing.assert_array_equal(snap.sectors, ref.sectors)
        np.testing.assert_array_equal(snap.run_ids, ref.run_ids)
        np.testing.assert_allclose(snap.positions, ref.positions, rtol=0.0, atol=1e-3)


def stepwise_births(rng, law, runs, n_steps, dt):
    """The birth draw as a scan over every grid step: the loop that
    `process._draw_births` shortcuts over the steps where no clock is due."""
    total = law.total_rate
    cum = np.cumsum(law.rates)
    next_emit = rng.exponential(1.0 / total, size=runs) if total > 0.0 else np.full(runs, np.inf)
    births = [(np.empty(0, int), np.empty(0), np.empty(0, int), np.empty(0, int), np.empty((0, 3)))]
    for i in range(n_steps):
        while (due := np.flatnonzero(next_emit <= (i + 1) * dt)).size:
            src = np.searchsorted(cum, rng.random(due.size) * total, side="right")
            direction = process._unit_vectors(rng, due.size)
            births.append((np.full(due.size, i + 1), next_emit[due], due, src, direction))
            next_emit[due] += rng.exponential(1.0 / total, size=due.size)
    return [np.concatenate(column) for column in zip(*births)]


def assert_same_ensemble(got, want):
    for name in ("runs", "t_final", "dt", "seed", "eps_absorb", "eps_start"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("emissions", "absorptions", "initial_sectors", "final_sectors"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert len(got.snapshots) == len(want.snapshots)
    for snap, ref in zip(got.snapshots, want.snapshots):
        assert snap.time == ref.time
        for name in ("sectors", "positions", "run_ids"):
            np.testing.assert_array_equal(getattr(snap, name), getattr(ref, name))


def busy_system():
    """Close sources with large couplings: a total emission rate of about 11.5
    per run and unit time at a Poisson rate of about 1.3."""
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]),
        charges=np.array([2.0, 2.0j]),
        E0=0.5,
    )


@pytest.mark.parametrize(
    "system, seed, dt",
    [
        (figure_system(), 1, 1e-3),
        (figure_system(), 2, 1e-3),
        (figure_system(), 5, 1e-3),
        (symmetric_system(), 4, 1e-3),
        (busy_system(), 6, 1e-3),
        # about one birth in ten follows an earlier one of its run in the same step
        (busy_system(), 9, 0.02),
    ],
)
def test_skipping_quiet_grid_steps_draws_every_birth_of_the_step_scan(system, seed, dt, monkeypatch):
    gs = ground_state(system)
    law = derive_emission_law(gs)
    params = EnsembleParams(runs=40, sample_times=(0.0, 0.2, 0.4), dt=dt, seed=seed)
    got = run_ensemble(gs, params, law=law)
    assert (got.emissions.sum() > 0) == (law.total_rate > 0.0)
    monkeypatch.setattr(process, "_draw_births", stepwise_births)
    assert_same_ensemble(got, run_ensemble(gs, params, law=law))


class GridClocks:
    """A stand-in generator whose exponential draws are whole multiples of
    dt as floats, k * dt: clocks due exactly at a step end, where the
    quotient (k * dt) / dt can round past k."""

    def __init__(self, dt, seed):
        self.dt, self.rng = dt, np.random.default_rng(seed)

    def exponential(self, scale, size):
        return self.rng.integers(1, 40, size=size) * self.dt

    def random(self, size):
        return self.rng.random(size)

    def normal(self, size):
        return self.rng.normal(size=size)


@pytest.mark.parametrize("dt", [0.1, 0.01, 0.3, 1e-3])
def test_skipped_steps_land_clocks_due_at_a_step_end_in_that_step(fig_law, dt):
    got = process._draw_births(GridClocks(dt, 1), fig_law, 30, 400, dt)
    want = stepwise_births(GridClocks(dt, 1), fig_law, 30, 400, dt)
    assert got[0].size > 100
    for column, ref in zip(got, want):
        np.testing.assert_array_equal(column, ref)


def test_a_fine_emission_grid_costs_no_step_scan(fig_gs, fig_law):
    # 10^7 grid steps: the step scan took minutes here
    start = time.perf_counter()
    res = run_ensemble(fig_gs, EnsembleParams(runs=10, t_max=1.0, dt=1e-7, seed=3), law=fig_law)
    assert time.perf_counter() - start < 5.0
    assert res.final_sectors.sum() == res.initial_sectors.sum() + res.emissions.sum() - res.absorptions.sum()


def test_ensemble_raises_when_the_substep_budget_runs_out(fig_gs, fig_law, monkeypatch):
    monkeypatch.setattr(process, "_advance", partial(groundstate._advance, max_rounds=2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="budget"):
            run_ensemble(fig_gs, EnsembleParams(runs=50, t_max=1.0, seed=0), law=fig_law)


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
    conj = replace(fig_gs.system, charges=np.conj(fig_gs.system.charges))
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


def test_start_offset_sensitivity_raises_when_the_substep_budget_runs_out(fig_gs, fig_law, monkeypatch):
    monkeypatch.setattr(process, "_advance", partial(groundstate._advance, max_rounds=3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="budget"):
            emission_start_sensitivity(fig_gs, law=fig_law)


def test_poisson_chisquare_helper():
    rng = np.random.default_rng(11)
    good = rng.poisson(4.0, size=5000)
    assert _poisson_chisquare(good, 4.0) > 0.01
    shifted = rng.poisson(6.0, size=5000)
    assert _poisson_chisquare(shifted, 4.0) < 1e-6
    assert _poisson_chisquare(np.zeros(10, dtype=int), 0.01) == 1.0
