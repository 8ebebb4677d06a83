from dataclasses import replace
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import FIGURE_CHARGES, lattice_preset, pool_bins
from scipy import integrate, stats
from scipy.sparse import eye_array

from chargeflow import lattice
from chargeflow.lattice import (
    MAX_DIMENSION,
    LatticeParams,
    NodeError,
    bell_jump_rates,
    build_model,
    check_T_commutation,
    check_gauge_equivalence,
    dimension_error,
    evolve,
    ground_state_current,
    lattice_dimension,
    reversal_conditions_check,
    run_bell_ensemble,
    run_bell_process,
    sector_reversal,
)
from chargeflow.model import classify_charges

THETA_GRID = np.linspace(-np.pi / 2, np.pi / 2, 360, endpoint=False)


def random_params(rng, L_max=6, n_sources_max=3):
    L = int(rng.integers(2, L_max + 1))
    n_max = int(rng.integers(1, 3))
    n_src = int(rng.integers(1, min(n_sources_max, L) + 1))
    sites = tuple(int(s) for s in rng.choice(L, size=n_src, replace=False))
    g = tuple(
        rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(n_src)
    )
    return LatticeParams(
        L=L, a=1.0, n_max=n_max, source_sites=sites, charges=g,
        m=float(rng.uniform(0.5, 2.0)), E0=float(rng.uniform(0.0, 1.0)), hbar=1.0,
    )


def t_commutator_matrix(model, theta):
    """Dense Delta = D conj(H) D^dag - H, D = diag(e^{-2 i theta n(q)}).

    T_theta H - H T_theta applied to psi equals Delta applied to D conj(psi),
    and D is unitary, so any matrix norm of the antilinear commutator equals
    the same norm of Delta.  The oracle for the closed forms of
    check_T_commutation.
    """
    H = model.H.toarray()
    phases = np.exp(-2j * theta * model.sector)
    return (phases[:, None] * np.conj(H)) * np.conj(phases)[None, :] - H


def oracle_op_norm(model, theta):
    return np.linalg.norm(t_commutator_matrix(model, theta), 2)


def random_state(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def test_dimension_formula_and_preset_size():
    model = build_model(lattice_preset())
    assert model.dim == 45 == lattice_dimension(8, 2)
    assert lattice_dimension(2, 1) == 3
    assert lattice_dimension(3, 3) == 1 + 3 + 6 + 10
    for L in range(2, 9):
        for n_max in range(1, 9):
            assert lattice_dimension(L, n_max) == sum(comb(L + k - 1, k) for k in range(n_max + 1))
    # one binomial of min(L, n_max) steps, however large n_max is
    assert lattice_dimension(8, 2**64) > MAX_DIMENSION


def test_free_chain_matrix_by_hand():
    params = LatticeParams(L=2, a=1.0, n_max=1, source_sites=(), charges=())
    model = build_model(params)
    onsite = params.E0 + 1.0
    expected = np.array(
        [[0.0, 0.0, 0.0], [0.0, onsite, -0.5], [0.0, -0.5, onsite]], dtype=complex
    )
    assert model.basis == [(0, 0), (1, 0), (0, 1)]
    np.testing.assert_allclose(model.H.toarray(), expected, atol=1e-15)


def test_single_real_source_gives_real_symmetric_matrix():
    model = build_model(
        LatticeParams(L=4, a=1.0, n_max=2, source_sites=(1,), charges=(0.7,))
    )
    H = model.H.toarray()
    assert np.max(np.abs(H.imag)) == 0.0
    np.testing.assert_allclose(H, H.T, atol=1e-15)


def test_imaginary_source_matrix_by_hand():
    model = build_model(
        LatticeParams(L=2, a=1.0, n_max=1, source_sites=(0,), charges=(1j,), E0=0.5)
    )
    expected = np.array(
        [[0.0, 1j, 0.0], [-1j, 1.5, -0.5], [0.0, -0.5, 1.5]], dtype=complex
    )
    np.testing.assert_allclose(model.H.toarray(), expected, atol=1e-15)


def test_hermiticity_of_random_models():
    rng = np.random.default_rng(0)
    for _ in range(10):
        model = build_model(random_params(rng))
        H = model.H.toarray()
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)


def per_state_oracle(params):
    """Basis and dense H assembled state by state with a dict lookup."""
    L, n_max = params.L, params.n_max
    basis = []
    for k in range(n_max + 1):
        for sites in combinations_with_replacement(range(L), k):
            occ = [0] * L
            for s in sites:
                occ[s] += 1
            basis.append(tuple(occ))
    index = {occ: i for i, occ in enumerate(basis)}
    H = np.zeros((len(basis), len(basis)), dtype=complex)
    hop = params.hbar**2 / (2.0 * params.m * params.a**2)
    onsite = params.E0 + params.hbar**2 / (params.m * params.a**2)
    for i, occ in enumerate(basis):
        H[i, i] = onsite * sum(occ)
        for s in range(L - 1):
            for frm, to in ((s, s + 1), (s + 1, s)):
                if occ[frm]:
                    new = list(occ)
                    new[frm] -= 1
                    new[to] += 1
                    H[index[tuple(new)], i] += -hop * np.sqrt(occ[frm] * (occ[to] + 1))
        for site, g in zip(params.source_sites, params.charges):
            if sum(occ) < n_max:
                new = list(occ)
                new[site] += 1
                H[index[tuple(new)], i] += np.conj(g) * np.sqrt(occ[site] + 1)
            if occ[site]:
                new = list(occ)
                new[site] -= 1
                H[index[tuple(new)], i] += g * np.sqrt(occ[site])
    return basis, H


def oracle_params():
    """The 25 models that test_build_matches_per_state_oracle checks."""
    rng = np.random.default_rng(9)
    for _ in range(25):
        params = random_params(rng, L_max=9)
        yield replace(params, n_max=int(rng.integers(1, 5)), a=float(rng.uniform(0.5, 2.0)))


def test_build_matches_per_state_oracle():
    for params in oracle_params():
        model = build_model(params)
        basis, H = per_state_oracle(params)
        assert model.basis == basis
        assert all(model.state_index(occ) == i for i, occ in enumerate(basis))
        np.testing.assert_array_equal(model.H.toarray(), H)


def test_assembled_hamiltonians_are_hermitian():
    # build_model enters each hop and creation with its conjugate and does
    # not check the sum: the check costs 2 ms a build at dim 10,626
    big = LatticeParams(
        L=20, a=1.0, n_max=4, source_sites=(2, 8), charges=(1.0, 1j), m=1.0, E0=0.5, hbar=1.0
    )
    for params in [*oracle_params(), big]:
        H = build_model(params).H
        assert abs(H - H.conj().T).max() <= 1e-12
    assert H.shape == (10626, 10626)


@pytest.mark.parametrize("L, n_max", [(14, 3), (20, 4), (2, 1), (9, 1)])
def test_basis_tables_match_an_enumeration_beyond_the_oracle_sizes(L, n_max):
    occ = lattice._occupations(L, n_max)
    want = [
        np.bincount(np.array(sites, dtype=np.int64), minlength=L)
        for k in range(n_max + 1)
        for sites in combinations_with_replacement(range(L), k)
    ]
    np.testing.assert_array_equal(occ, np.array(want))
    # every state by a key independent of the basis order: its digits in
    # base n_max + 1
    weights = (n_max + 1) ** np.arange(L, dtype=np.int64)
    keys = occ @ weights
    order = np.argsort(keys)

    def index_of(target_keys):
        found = order[np.searchsorted(keys[order], target_keys)]
        np.testing.assert_array_equal(keys[found], target_keys)
        return found

    basis = lattice._basis(L, n_max)
    frm, bond = np.nonzero(occ[:, :-1])
    hopped = keys[frm] - weights[bond] + weights[bond + 1]
    np.testing.assert_array_equal(frm + basis.shift[frm, bond], index_of(hopped))
    open_states = np.nonzero(basis.total < n_max)[0]
    for c in range(L):
        created = index_of(keys[open_states] + weights[c])
        target = (
            open_states
            + basis.sector_size[basis.total[open_states]]
            + basis.shift_left_of[open_states, c]
        )
        np.testing.assert_array_equal(target, created)


def test_dimension_guard():
    with pytest.raises(ValueError):
        LatticeParams(L=100, a=1.0, n_max=4, source_sites=(0,), charges=(1.0,))


def test_evolve_identity_phase_and_group_property():
    rng = np.random.default_rng(1)
    model = build_model(lattice_preset())
    psi = random_state(rng, model.dim)
    np.testing.assert_allclose(evolve(model, psi, 0.0), psi)
    evals, ground = model.ground()
    np.testing.assert_allclose(
        evolve(model, ground, 0.8), np.exp(-1j * evals[0] * 0.8) * ground, atol=1e-12
    )
    back = evolve(model, evolve(model, psi, 1.3), -1.3)
    np.testing.assert_allclose(back, psi, atol=1e-8)
    drift = abs(np.linalg.norm(evolve(model, psi, 1.0)) - 1.0)
    assert drift < 1e-9


def test_evolve_expm_multiply_branch_matches_spectral_form(monkeypatch):
    rng = np.random.default_rng(10)
    model = build_model(lattice_preset())
    psi = random_state(rng, model.dim)
    spectral = [evolve(model, psi, t) for t in (0.3, -1.7, 4.0)]
    monkeypatch.setattr(lattice, "DENSE_LIMIT", 10)
    with pytest.raises(ValueError):
        build_model(lattice_preset()).eig()
    for t, want in zip((0.3, -1.7, 4.0), spectral):
        np.testing.assert_allclose(evolve(model, psi, t), want, atol=1e-12)


def test_phase_error_obeys_the_duhamel_bound_against_the_spectral_propagator():
    # ||e^{-iHt/hbar} psi - e^{-iEt/hbar} psi|| <= t ||(H - E) psi|| / hbar,
    # the bound `chargeflow lattice` reports, with `evolve` as the oracle
    rng = np.random.default_rng(3)
    eps = np.finfo(float).eps
    for charges in ((1.0, 1j), FIGURE_CHARGES):
        model = build_model(lattice_preset(charges))
        evals, ground = model.ground()
        energy = evals[0]
        h_norm = float(abs(model.H).sum(axis=0).max())
        perturbed = ground + 1e-3 * random_state(rng, model.dim)
        perturbed /= np.linalg.norm(perturbed)
        for psi in (ground, perturbed):
            residual = np.linalg.norm(model.H @ psi - energy * psi)
            for t in (1e-3, 0.1, 10.0, 1e3):
                error = np.linalg.norm(evolve(model, psi, t) - np.exp(-1j * energy * t) * psi)
                # the oracle's own rounding grows with t ||H||
                assert error <= t * residual + 16 * eps * (1.0 + t * h_norm), (t, error)
        # at short t the bound is sharp: the phase error is t ||(H - E) psi||
        # to first order
        residual = np.linalg.norm(model.H @ perturbed - energy * perturbed)
        error = np.linalg.norm(evolve(model, perturbed, 1e-3) - np.exp(-1e-3j * energy) * perturbed)
        assert error >= 0.99e-3 * residual


def test_sector_reversal_is_an_antiunitary_involution():
    rng = np.random.default_rng(2)
    model = build_model(lattice_preset())
    psi = random_state(rng, model.dim)
    phi = random_state(rng, model.dim)
    theta = 0.9
    np.testing.assert_allclose(
        sector_reversal(model, theta, sector_reversal(model, theta, psi)), psi, atol=1e-12
    )
    np.testing.assert_allclose(
        np.vdot(sector_reversal(model, theta, psi), sector_reversal(model, theta, phi)),
        np.conj(np.vdot(psi, phi)),
        atol=1e-12,
    )


def test_T_commutation_vanishes_for_matching_phase():
    model = build_model(lattice_preset((1.0, -2.0)))
    assert check_T_commutation(model, 0.0) <= 1e-10
    rot = build_model(
        lattice_preset((np.exp(1j * np.pi / 3), -2.0 * np.exp(1j * np.pi / 3)))
    )
    assert check_T_commutation(rot, np.pi / 3) <= 1e-10
    assert check_T_commutation(rot, 0.0) > 1e-2


def test_T_commutation_grid_minimum_for_quarter_turn_pair():
    model = build_model(lattice_preset((1.0, 1j)))
    vals = check_T_commutation(model, THETA_GRID, kind="fro")
    assert vals.min() > 1e-2
    # S_j = 10 open creation slots per source makes the norm exactly sqrt(80),
    # independent of theta, for this charge pair
    np.testing.assert_allclose(vals.min(), np.sqrt(80.0), rtol=1e-12)


def test_frobenius_closed_form_matches_explicit_matrix():
    rng = np.random.default_rng(3)
    for _ in range(8):
        model = build_model(random_params(rng))
        theta = float(rng.uniform(-np.pi, np.pi))
        explicit = np.linalg.norm(t_commutator_matrix(model, theta), "fro")
        closed = check_T_commutation(model, theta, kind="fro")
        np.testing.assert_allclose(closed, explicit, rtol=1e-11, atol=1e-13)
        op = check_T_commutation(model, theta, kind="op")
        assert op <= closed * (1 + 1e-9) + 1e-12


def test_operator_norm_matches_the_dense_oracle_on_the_dichotomy_family():
    # the model family of acceptance criterion 01: L = 6, n_max = 1, up to
    # five sources; symmetric sets share a grid phase, asymmetric ones do not
    rng = np.random.default_rng(21)
    sites = (1, 3, 5, 2, 4)
    for n, symmetric in [(1, True), (2, True), (2, False), (3, True), (3, False),
                         (4, True), (4, False), (5, True), (5, False)]:
        mags = rng.uniform(0.3, 2.0, size=n)
        if symmetric:
            phases = THETA_GRID[rng.integers(THETA_GRID.size)] + np.pi * rng.integers(0, 2, n)
        else:
            phases = rng.uniform(-np.pi, np.pi, size=n)
        charges = tuple(mags * np.exp(1j * phases))
        model = build_model(
            LatticeParams(L=6, a=1.0, n_max=1, source_sites=sites[:n], charges=charges, E0=0.7)
        )
        closed = check_T_commutation(model, THETA_GRID)
        oracle = np.array([oracle_op_norm(model, theta) for theta in THETA_GRID])
        np.testing.assert_allclose(closed, oracle, rtol=1e-12, atol=1e-14)
        best = int(np.argmin(oracle))
        np.testing.assert_allclose(
            check_T_commutation(model, THETA_GRID[best]), oracle[best], rtol=1e-12, atol=1e-14
        )
        assert classify_charges(charges).symmetric == symmetric == (closed.min() < 1e-8)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(2, 7),
    n_max=st.integers(1, 4),
    data=st.data(),
    theta=st.floats(-np.pi, np.pi),
)
def test_operator_norm_matches_the_dense_oracle(L, n_max, data, theta):
    n_src = data.draw(st.integers(1, min(3, L)))
    sites = data.draw(st.lists(st.integers(0, L - 1), min_size=n_src, max_size=n_src, unique=True))
    mags = data.draw(st.lists(st.floats(0.3, 2.0), min_size=n_src, max_size=n_src))
    phases = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=n_src, max_size=n_src))
    charges = tuple(r * np.exp(1j * phi) for r, phi in zip(mags, phases))
    model = build_model(
        LatticeParams(L=L, a=1.0, n_max=n_max, source_sites=tuple(sites), charges=charges)
    )
    np.testing.assert_allclose(
        check_T_commutation(model, theta), oracle_op_norm(model, theta), rtol=1e-12, atol=1e-14
    )


def test_commutation_dichotomy_matches_charge_classification():
    rng = np.random.default_rng(4)
    for _ in range(60):
        params = random_params(rng)
        if rng.random() < 0.5:
            # force a symmetric set: common phase, real magnitudes of both signs
            phase = np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
            params = LatticeParams(
                L=params.L, a=params.a, n_max=params.n_max,
                source_sites=params.source_sites,
                charges=tuple(
                    phase * rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
                    for _ in params.source_sites
                ),
                m=params.m, E0=params.E0, hbar=params.hbar,
            )
        model = build_model(params)
        verdict = classify_charges(np.array(params.charges))
        if verdict.symmetric:
            assert check_T_commutation(model, verdict.theta, kind="fro") < 1e-8
        else:
            vals = check_T_commutation(model, THETA_GRID, kind="fro")
            assert vals.min() > 1e-8


def test_gauge_equivalence_is_exact():
    rng = np.random.default_rng(5)
    model = build_model(lattice_preset((1.0, 1j)))
    assert check_gauge_equivalence(model, 0.0) <= 1e-12
    for _ in range(10):
        m = build_model(random_params(rng))
        theta = float(rng.uniform(-np.pi, np.pi))
        assert check_gauge_equivalence(m, theta) <= 1e-12
    # group law: composing two rotations equals the single rotation
    t1, t2 = 0.4, -1.1
    assert check_gauge_equivalence(model, t1 + t2) <= 1e-12


def test_bell_rates_net_current_identity():
    rng = np.random.default_rng(6)
    model = build_model(lattice_preset((1.0, 1j)))
    psi = random_state(rng, model.dim)
    for qi in rng.choice(model.dim, size=5, replace=False):
        rates_out = bell_jump_rates(model, psi, int(qi))
        for occ, rate in rates_out.items():
            qj = model.state_index(occ)
            rates_back = bell_jump_rates(model, psi, occ)
            back = rates_back.get(model.basis[int(qi)], 0.0)
            lhs = rate * abs(psi[qi]) ** 2 - back * abs(psi[qj]) ** 2
            rhs = (
                2.0
                / model.params.hbar
                * np.imag(np.conj(psi[qj]) * model.H[qj, qi] * psi[qi])
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-14)
            assert rate == 0.0 or back == 0.0  # at most one active direction


def test_bell_rates_vanish_for_real_eigenstates():
    model = build_model(lattice_preset((1.0, -2.0)))
    _, ground = model.ground()
    ground = ground / np.exp(1j * np.angle(ground[np.argmax(np.abs(ground))]))
    for qi in range(model.dim):
        if abs(ground[qi]) > 1e-12:
            assert bell_jump_rates(model, ground, qi) == {}


def test_bell_rates_match_brute_force_on_three_state_model():
    model = build_model(
        LatticeParams(L=2, a=1.0, n_max=1, source_sites=(0,), charges=(1j,), E0=0.5)
    )
    rng = np.random.default_rng(7)
    psi = random_state(rng, 3)
    for qi in range(3):
        rates = bell_jump_rates(model, psi, qi)
        for qj in range(3):
            expected = (
                2.0 * max(0.0, np.imag(np.conj(psi[qj]) * model.H[qj, qi] * psi[qi]))
            ) / abs(psi[qi]) ** 2
            got = rates.get(model.basis[qj], 0.0)
            if qj == qi:
                assert model.basis[qj] not in rates
            else:
                np.testing.assert_allclose(got, expected, atol=1e-14)
    _, ground = model.ground()
    # single source is gauge-equivalent to a real coupling: stationary, no jumps
    assert all(
        bell_jump_rates(model, ground, qi) == {}
        for qi in range(3)
        if abs(ground[qi]) > 1e-12
    )


def test_bell_rates_signal_nodes():
    model = build_model(lattice_preset((1.0, 1j)))
    psi = np.zeros(model.dim, dtype=complex)
    psi[3] = 1.0
    with pytest.raises(NodeError):
        bell_jump_rates(model, psi, 0)


def test_bell_process_stationary_for_real_ground_state():
    model = build_model(lattice_preset((1.0, -2.0)))
    _, ground = model.ground()
    rec = run_bell_process(model, ground, 0.5, seed=11)
    assert len(rec.states) == 1 and rec.node_warnings == 0
    res = run_bell_ensemble(model, ground, 0.5, 300, seed=12)
    assert res.n_jumps.sum() == 0


def test_bell_ensemble_equivariance_three_presets():
    rng_seeds = {"real": 21, "rotated": 22, "asymmetric": 23}
    charge_sets = {
        "real": (1.0, -2.0),
        "rotated": (np.exp(1j * np.pi / 3), -2.0 * np.exp(1j * np.pi / 3)),
        "asymmetric": (1.0, 1j),
    }
    for name, charges in charge_sets.items():
        model = build_model(lattice_preset(charges))
        psi0 = np.zeros(model.dim, dtype=complex)
        psi0[0] = 1.0
        res = run_bell_ensemble(model, psi0, 0.6, 6000, seed=rng_seeds[name])
        probs = np.abs(evolve(model, psi0, 0.6)) ** 2
        counts = np.bincount(res.final_indices, minlength=model.dim)
        pooled = pool_bins(counts, probs * 6000)
        p = stats.chisquare(*pooled).pvalue
        assert p > 0.01, (name, p)


def test_bell_process_is_the_one_chain_ensemble():
    model = build_model(lattice_preset((1.0, 1j)))
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = 1.0
    jumps = 0
    for seed in (3, 4, 5):
        rec = run_bell_process(model, psi0, 1.5, seed=seed)
        res = run_bell_ensemble(model, psi0, 1.5, 1, seed=seed)
        assert model.state_index(rec.states[-1]) == res.final_indices[0]
        assert len(rec.states) == len(rec.times) == res.n_jumps[0] + 1
        assert np.all(np.diff(rec.times) > 0) and rec.times[-1] <= 1.5
        jumps += res.n_jumps[0]
    assert jumps > 0


def test_sparse_sizes_above_the_dense_limit():
    params = LatticeParams(
        L=13, a=1.0, n_max=4, source_sites=(2, 9), charges=(1.0, 0.6 * np.exp(0.4j)), E0=0.5
    )
    model = build_model(params)
    assert model.dim == 2380 > lattice.DENSE_LIMIT
    with pytest.raises(ValueError):
        model.eig()
    op = check_T_commutation(model, 0.0)
    assert 0.0 < op <= check_T_commutation(model, 0.0, kind="fro")
    assert check_gauge_equivalence(model, 0.9) <= 1e-12
    rng = np.random.default_rng(11)
    psi = random_state(rng, model.dim)
    for qi in rng.choice(model.dim, size=4, replace=False):
        rates = bell_jump_rates(model, psi, int(qi))
        assert rates
        for occ, rate in rates.items():
            qj = model.state_index(occ)
            flow = 2.0 * np.imag(np.conj(psi[qj]) * model.H[qj, qi] * psi[qi])
            np.testing.assert_allclose(rate * abs(psi[qi]) ** 2, flow, rtol=1e-12)
            assert model.basis[int(qi)] not in bell_jump_rates(model, psi, qj)
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = 1.0
    res = run_bell_ensemble(model, psi0, 0.3, 3000, seed=12)
    probs = np.abs(evolve(model, psi0, 0.3)) ** 2
    np.testing.assert_allclose(np.sum(probs), 1.0, atol=1e-12)
    counts = np.bincount(res.final_indices, minlength=model.dim)
    assert stats.chisquare(*pool_bins(counts, probs * 3000)).pvalue > 0.01


def test_reversal_identity_follows_commutation():
    rng = np.random.default_rng(8)
    psi = random_state(rng, 45)
    sym = build_model(lattice_preset((1.0, -2.0)))
    rot = build_model(
        lattice_preset((np.exp(1j * np.pi / 5), -2.0 * np.exp(1j * np.pi / 5)))
    )
    asym = build_model(lattice_preset((1.0, 1j)))
    assert reversal_conditions_check(sym, 0.0, psi).passed
    assert reversal_conditions_check(rot, np.pi / 5, psi).passed
    assert not reversal_conditions_check(rot, 0.0, psi).passed
    for theta in np.linspace(-np.pi / 2, np.pi / 2, 9):
        rep = reversal_conditions_check(asym, theta, psi)
        assert not rep.passed
        assert rep.commutator_norm > 1e-2


def test_ground_state_current_dichotomy():
    assert ground_state_current(build_model(lattice_preset((1.0, -2.0)))).max_abs == 0.0
    rotated = build_model(
        lattice_preset((0.8 * np.exp(1j * 0.7), -1.2 * np.exp(1j * 0.7)))
    )
    assert ground_state_current(rotated).max_abs <= 1e-10
    rep = ground_state_current(build_model(lattice_preset(FIGURE_CHARGES)))
    assert rep.max_abs > 1e-3
    np.testing.assert_allclose(rep.max_abs, 0.009720226158657539, rtol=1e-9)


def test_ground_state_current_signals_degeneracy():
    model = build_model(lattice_preset((1.0, 1j)))
    with pytest.raises(ValueError):
        ground_state_current(model, gap_tol=1e9)


def test_truncation_convergence_is_quartic_in_coupling():
    def energy(scale, n_max):
        params = LatticeParams(
            L=5, a=1.0, n_max=n_max, source_sites=(1, 3),
            charges=(scale, -0.8 * scale), E0=1.0,
        )
        return build_model(params).ground()[0][0]

    g = 0.2
    d12 = abs(energy(g, 1) - energy(g, 2))
    d12_half = abs(energy(g / 2, 1) - energy(g / 2, 2))
    ratio = d12 / d12_half
    assert 10.0 < ratio < 24.0  # fourth-order scaling: ratio ~ 16
    d23 = abs(energy(g, 2) - energy(g, 3))
    assert d23 < d12


def test_dimension_error_formats_no_dimension_above_10_to_the_18(monkeypatch):
    for L in range(1, 12):
        for n_max in range(0, 12):
            dim = comb(L + n_max, n_max)
            if dim <= MAX_DIMENSION:
                assert dimension_error(L, n_max) is None
            else:
                assert dimension_error(L, n_max).startswith(f"basis dimension {dim} exceeds")
    # C(62, 31) is below 10**18 and C(64, 32) above it
    assert dimension_error(31, 31).startswith(f"basis dimension {comb(62, 31)} exceeds")
    for L, n_max in ((32, 32), (40, 10**100), (10**100, 60)):
        assert dimension_error(L, n_max).startswith("basis dimension above 10**18 exceeds")

    # past min(L, n_max) = 60 the dimension is not computed at all
    def refuse(*args, **kwargs):
        raise AssertionError("the dimension of a huge lattice is not computed")

    monkeypatch.setattr(lattice, "comb", refuse)
    for n in (61, 10**5, 10**6, 10**100):
        with pytest.raises(ValueError, match="above 10\\*\\*18"):
            LatticeParams(L=n, a=1.0, n_max=n, source_sites=(0,), charges=(1.0,))


def ground_pair_models():
    yield build_model(lattice_preset())
    yield build_model(lattice_preset(FIGURE_CHARGES))
    # the chain of the benchmark's lattice workload (dimension 680)
    yield build_model(
        LatticeParams(L=14, a=1.0, n_max=3, source_sites=(2, 10), charges=(1.0, 1j), E0=0.5)
    )
    rng = np.random.default_rng(14)
    for _ in range(12):
        yield build_model(random_params(rng, L_max=7))


def test_ground_pair_matches_dense_eigh():
    for model in ground_pair_models():
        evals, ground = model.ground()
        want, vecs = np.linalg.eigh(model.H.toarray())
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(evals - want)) <= 1e-12 * scale
        assert abs(np.vdot(vecs[:, 0], ground)) >= 1.0 - 1e-12
        assert np.linalg.norm(model.H @ ground - evals[0] * ground) <= 1e-12 * scale
        assert model.ground()[1] is ground


def test_ground_pair_failure_raises_linalg_error(monkeypatch):
    failures = {
        "dsytrd": lambda a, lower, lwork, overwrite_a: (None, None, None, None, -1),
        "dsterf": lambda d, e: (None, 1),
    }
    for name, failure in failures.items():
        with monkeypatch.context() as patch:
            patch.setattr(lattice.lapack, name, failure)
            with pytest.raises(np.linalg.LinAlgError, match=name):
                build_model(lattice_preset()).ground()


def test_ground_vector_residual_check_raises_linalg_error(monkeypatch):
    # a factorization shifted one unit off the ground energy leaves two
    # inverse-iteration solves far from the eigenvector
    factor = lattice.splu
    monkeypatch.setattr(
        lattice, "splu", lambda a, **kw: factor(a + eye_array(a.shape[0], format="csc"), **kw)
    )
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        build_model(lattice_preset()).ground()


@pytest.mark.parametrize("charges", [(1j, 2j), (1j, -3j)])
def test_quarter_turn_charges_leave_every_ground_flux_exactly_zero(charges):
    model = build_model(
        LatticeParams(L=6, a=1.0, n_max=3, source_sites=(1, 4), charges=charges, E0=0.5)
    )
    _, ground = model.ground()
    assert np.all(np.maximum(0.0, lattice._current(model, ground)) == 0.0)
    assert ground_state_current(model).max_abs == 0.0


def test_real_charges_give_an_exactly_real_ground_vector():
    model = build_model(
        LatticeParams(L=6, a=1.0, n_max=3, source_sites=(1, 4), charges=(1.0, -2.0), E0=0.5)
    )
    _, ground = model.ground()
    assert np.all(ground.imag == 0.0) and ground[0].real > 0.0


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(2, 7),
    n_max=st.integers(1, 3),
    data=st.data(),
    E0=st.floats(0.0, 2.0),
    m=st.floats(0.5, 2.0),
    a=st.floats(0.5, 2.0),
)
def test_mode_spectrum_matches_dense_eigvalsh(L, n_max, data, E0, m, a):
    n_src = data.draw(st.integers(0, min(3, L)))
    sites = data.draw(st.lists(st.integers(0, L - 1), min_size=n_src, max_size=n_src, unique=True))
    mags = data.draw(st.lists(st.floats(0.1, 3.0), min_size=n_src, max_size=n_src))
    phases = data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=n_src, max_size=n_src))
    charges = tuple(r * np.exp(1j * phi) for r, phi in zip(mags, phases))
    model = build_model(
        LatticeParams(
            L=L, a=a, n_max=n_max, source_sites=tuple(sites), charges=charges, m=m, E0=E0
        )
    )
    want = np.linalg.eigvalsh(model.H.toarray())
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(model._mode_spectrum() - want)) <= 1e-12 * scale


# ground states with a current: the figure lattice (dim 45) and the
# benchmark's chain (dim 680), each with a time long enough for jumps
STATIONARY_RUNS = {
    "figure": (lattice_preset(), 2.0),
    "chain": (
        LatticeParams(L=14, a=1.0, n_max=3, source_sites=(2, 10), charges=(1.0, 1j), E0=0.5),
        50.0,
    ),
}


def stationary_run(name, n_chains=20000, seed=7):
    """(model, ground state, sigma_out per configuration, t, ensemble result)
    of a stationary Bell run that may call no `evolve`."""
    params, t = STATIONARY_RUNS[name]
    model = build_model(params)
    _, ground = model.ground()
    out_rates = np.array([sum(bell_jump_rates(model, ground, q).values()) for q in range(model.dim)])

    def refuse(*args, **kwargs):
        raise AssertionError("a stationary run propagates nothing")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "evolve", refuse)
        res = run_bell_ensemble(model, ground, t, n_chains, seed=seed)
    return model, ground, out_rates, t, res


@pytest.mark.parametrize("name", sorted(STATIONARY_RUNS))
def test_stationary_ensemble_builds_one_rate_table(name):
    model, ground, _, t, res = stationary_run(name)
    assert res.t_final == t and res.n_jumps.sum() > 500
    counts = np.bincount(res.final_indices, minlength=model.dim)
    p = stats.chisquare(*pool_bins(counts, np.abs(ground) ** 2 * counts.sum())).pvalue
    assert p > 0.01, p
    again = run_bell_ensemble(model, ground, t, counts.sum(), seed=7)
    np.testing.assert_array_equal(again.final_indices, res.final_indices)
    np.testing.assert_array_equal(again.n_jumps, res.n_jumps)


@pytest.mark.parametrize("name", sorted(STATIONARY_RUNS))
def test_stationary_chains_hold_for_exponential_times(name):
    # a chain that starts at q stays there to t with probability
    # e^{-sigma_out(q) t}, so the chains that never jump are binomial and
    # sit where |psi|^2 e^{-sigma_out t} puts them
    model, ground, out_rates, t, res = stationary_run(name)
    stay = np.abs(ground) ** 2 * np.exp(-out_rates * t)
    idle = res.n_jumps == 0
    assert stats.binomtest(int(idle.sum()), idle.size, float(stay.sum())).pvalue > 0.01
    counts = np.bincount(res.final_indices[idle], minlength=model.dim)
    p = stats.chisquare(*pool_bins(counts, stay / stay.sum() * idle.sum())).pvalue
    assert p > 0.01, p


@pytest.mark.parametrize("name", sorted(STATIONARY_RUNS))
def test_stationary_jump_count_matches_the_total_flux(name):
    # |psi|^2 is stationary, so each chain expects t sum_q |psi(q)|^2
    # sigma_out(q) jumps; the chains are independent, so their total lies
    # within 3 standard errors of chains times that
    model, ground, out_rates, t, res = stationary_run(name)
    expected = res.n_jumps.size * t * np.sum(np.abs(ground) ** 2 * out_rates)
    error = np.sqrt(res.n_jumps.size * res.n_jumps.var())
    assert abs(res.n_jumps.sum() - expected) <= 3.0 * error, (res.n_jumps.sum(), expected, error)


def test_stationary_bell_process_records_its_jump_times():
    model = build_model(lattice_preset())
    _, ground = model.ground()
    jumps = 0
    for seed in (3, 4, 5):
        rec = run_bell_process(model, ground, 100.0, seed=seed)
        res = run_bell_ensemble(model, ground, 100.0, 1, seed=seed)
        assert model.state_index(rec.states[-1]) == res.final_indices[0]
        assert len(rec.states) == len(rec.times) == res.n_jumps[0] + 1
        assert rec.times[0] == 0.0 and np.all(np.diff(rec.times) > 0) and rec.times[-1] <= 100.0
        again = run_bell_process(model, ground, 100.0, seed=seed)
        np.testing.assert_array_equal(again.times, rec.times)
        jumps += res.n_jumps[0]
    assert jumps > 10


def test_stationary_holding_times_are_exponential():
    # a chain that enters q leaves after an exponential time at rate
    # sigma_out(q), so 1 - e^{-sigma_out(q) tau} is uniform; one long chain
    # gives about 2,200 holding times (the last, cut off at t, is left out)
    model = build_model(lattice_preset())
    _, ground = model.ground()
    rec = run_bell_process(model, ground, 20000.0, seed=9)
    out_rates = np.array([sum(bell_jump_rates(model, ground, q).values()) for q in rec.states[:-1]])
    held = np.diff(rec.times)
    assert held.size > 1000
    assert stats.kstest(-np.expm1(-out_rates * held), "uniform").pvalue > 0.01


def test_forced_stretches_keep_the_stationary_law(monkeypatch):
    # the figure ground state run as if it were not stationary: cut into
    # stretches of at most BELL_DT_CAP, at whose starts every chain draws its
    # holding time afresh, it keeps the jump total and the occupations of the
    # one-stretch run
    params, t = STATIONARY_RUNS["figure"]
    model = build_model(params)
    _, ground = model.ground()
    out_rates = np.array([sum(bell_jump_rates(model, ground, q).values()) for q in range(model.dim)])
    monkeypatch.setattr(lattice, "_is_stationary", lambda model, psi: False)
    res = run_bell_ensemble(model, ground, t, 20000, seed=7)
    expected = res.n_jumps.size * t * np.sum(np.abs(ground) ** 2 * out_rates)
    error = np.sqrt(res.n_jumps.size * res.n_jumps.var())
    assert abs(res.n_jumps.sum() - expected) <= 3.0 * error, (res.n_jumps.sum(), expected, error)
    counts = np.bincount(res.final_indices, minlength=model.dim)
    p = stats.chisquare(*pool_bins(counts, np.abs(ground) ** 2 * counts.sum())).pvalue
    assert p > 0.01, p


def test_vacuum_jump_count_matches_the_integrated_flux():
    # the vacuum run of acceptance criterion 08: chains distributed as
    # |psi_s|^2 jump at the total directed flux sum F_s(q -> q') of psi_s,
    # so the independent chains' total lies within 3 standard errors of
    # chains times its integral over [0, t]
    model = build_model(lattice_preset())
    psi0 = np.zeros(model.dim, dtype=complex)
    psi0[0] = 1.0
    res = run_bell_ensemble(model, psi0, 1.0, 20000, seed=201)
    flux, flux_error = integrate.quad(
        lambda s: np.maximum(0.0, lattice._current(model, evolve(model, psi0, s))).sum(),
        0.0,
        1.0,
        limit=200,
    )
    expected = res.n_jumps.size * flux
    error = np.sqrt(res.n_jumps.size * res.n_jumps.var())
    assert res.n_jumps.size * flux_error <= 1e-3 * error
    assert abs(res.n_jumps.sum() - expected) <= 3.0 * error, (res.n_jumps.sum(), expected, error)
