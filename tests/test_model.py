from dataclasses import replace

import numpy as np
import pytest

from chargeflow.model import (
    ChargeSystem,
    Configuration,
    classify_charges,
    classify_general_ibc,
    gauge_transform,
    sector_inner_product,
    time_reverse,
)


def random_psi(rng, max_sector=4):
    psi = {}
    for n in range(max_sector + 1):
        shape = (3,) * 0 + (2,) * min(n, 1) + (3,) * max(0, n - 1)
        psi[n] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return psi


def test_real_ratio_charges_are_symmetric_with_zero_phase():
    v = classify_charges([1.0, -2.0])
    assert v.symmetric
    assert v.theta == 0.0
    assert v.witness is None


def test_quarter_turn_pair_is_asymmetric_with_first_pair_witness():
    v = classify_charges([1.0, 1j])
    assert not v.symmetric
    assert v.witness == (1, 2)
    assert v.theta is None


def test_common_phase_is_recovered():
    g = [2.0 * np.exp(1j * np.pi / 3), -3.0 * np.exp(1j * np.pi / 3)]
    v = classify_charges(g)
    assert v.symmetric
    np.testing.assert_allclose(v.theta, np.pi / 3, rtol=0, atol=1e-15)


def test_phase_is_reduced_to_half_open_interval():
    v = classify_charges([np.exp(-2j * np.pi / 3), 2.0 * np.exp(1j * np.pi / 3)])
    assert v.symmetric
    np.testing.assert_allclose(v.theta, np.pi / 3, atol=1e-15)
    v = classify_charges([1j, 2j])
    assert v.symmetric
    np.testing.assert_allclose(v.theta, np.pi / 2, atol=1e-15)


def test_single_source_is_always_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = rng.normal() + 1j * rng.normal()
        if abs(g) == 0:
            continue
        assert classify_charges([g]).symmetric


def test_classification_invariant_under_global_phase_and_conjugation():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 6)
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = classify_charges(g)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert classify_charges(phase * g).symmetric == v.symmetric
        assert classify_charges(np.conj(g)).symmetric == v.symmetric


def test_witness_is_lexicographically_first():
    g = [1.0, 2.0, 1j]
    assert classify_charges(g).witness == (1, 3)
    g = [1.0, 1j, 1j]
    assert classify_charges(g).witness == (1, 2)


def test_tolerance_is_relative():
    g = np.array([1.0, 1e6 * np.exp(1j * 1e-12)])
    assert classify_charges(g, tol=1e-10).symmetric
    assert not classify_charges(g, tol=1e-14).symmetric


def test_zero_coupling_rejected():
    with pytest.raises(ValueError):
        classify_charges([1.0, 0.0])


def test_time_reverse_is_an_involution():
    rng = np.random.default_rng(3)
    psi = random_psi(rng)
    theta = 0.4
    back = time_reverse(time_reverse(psi, theta), theta)
    for n in psi:
        np.testing.assert_allclose(back[n], psi[n], rtol=0, atol=1e-15)


def test_time_reverse_is_antilinear():
    rng = np.random.default_rng(4)
    psi = random_psi(rng)
    phi = random_psi(rng)
    a = 0.3 - 1.1j
    b = -0.2 + 0.7j
    combo = {n: a * psi[n] + b * phi[n] for n in psi}
    theta = -0.9
    lhs = time_reverse(combo, theta)
    rhs = {
        n: np.conj(a) * time_reverse(psi, theta)[n] + np.conj(b) * time_reverse(phi, theta)[n]
        for n in psi
    }
    for n in lhs:
        np.testing.assert_allclose(lhs[n], rhs[n], atol=1e-14)


def test_time_reverse_conjugates_inner_products():
    rng = np.random.default_rng(5)
    psi = random_psi(rng)
    phi = random_psi(rng)
    theta = 1.2
    ip = sector_inner_product(psi, phi)
    ip_rev = sector_inner_product(time_reverse(psi, theta), time_reverse(phi, theta))
    np.testing.assert_allclose(ip_rev, np.conj(ip), atol=1e-13)


def test_gauge_transform_is_unitary_and_invertible():
    rng = np.random.default_rng(6)
    psi = random_psi(rng)
    phi = random_psi(rng)
    theta = 0.77
    np.testing.assert_allclose(
        sector_inner_product(gauge_transform(psi, theta), gauge_transform(phi, theta)),
        sector_inner_product(psi, phi),
        atol=1e-13,
    )
    back = gauge_transform(gauge_transform(psi, theta), -theta)
    for n in psi:
        np.testing.assert_allclose(back[n], psi[n], atol=1e-15)


def test_charge_system_validation():
    with pytest.raises(ValueError):
        ChargeSystem(positions=np.zeros((2, 3)), charges=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ChargeSystem(
            positions=np.array([[0.0, 0.0, 0.0]]), charges=np.array([1.0, 2.0])
        )
    with pytest.raises(ValueError):
        ChargeSystem(
            positions=np.array([[0.0, 0.0, 0.0]]),
            charges=np.array([1.0]),
            m=-1.0,
        )
    sys_ = ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.array([1.0, 1j]),
    )
    assert sys_.n_sources == 2
    np.testing.assert_allclose(sys_.min_source_spacing(), 1.0)
    with pytest.raises(ValueError):
        sys_.positions[0, 0] = 5.0


def test_charge_system_freezes_copies_and_leaves_the_callers_arrays_writable():
    positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    charges = np.array([1.0, 1j])
    sys_ = ChargeSystem(positions=positions, charges=charges)
    assert positions.flags.writeable and charges.flags.writeable
    positions[0, 0], charges[0] = 5.0, 2.0
    np.testing.assert_array_equal(sys_.positions[0], [0.0, 0.0, 0.0])
    assert sys_.charges[0] == 1.0
    assert not sys_.positions.flags.writeable and not sys_.charges.flags.writeable


def test_im_products_are_antisymmetric_to_the_bit():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 4, 6):
        g = rng.uniform(0.1, 3.0, size=n) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
        sys_ = ChargeSystem(positions=rng.uniform(-2.0, 2.0, size=(n, 3)), charges=g)
        B = sys_.im_products
        np.testing.assert_array_equal(B, -B.T)
        np.testing.assert_array_equal(np.diag(B), 0.0)
        want = np.imag(np.conj(g)[:, None] * g[None, :])
        np.testing.assert_allclose(B, want, rtol=0, atol=1e-15 * np.max(np.abs(g)) ** 2)
        assert not B.flags.writeable
        np.testing.assert_array_equal(replace(sys_, charges=np.conj(g)).im_products, -B)



def test_re_products_are_the_scalar_pair_products_to_the_bit():
    # two real outer products give the bits of each scalar conj(g_i) * g_j
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4, 6):
        g = rng.uniform(0.1, 3.0, size=n) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=n))
        A = ChargeSystem(positions=rng.uniform(-2.0, 2.0, size=(n, 3)), charges=g).re_products
        np.testing.assert_array_equal(A, [[np.real(np.conj(gi) * gj) for gj in g] for gi in g])
        np.testing.assert_array_equal(A, A.T)
        assert not A.flags.writeable

def test_configuration_sector():
    assert Configuration(positions=np.zeros((0, 3))).sector == 0
    assert Configuration(positions=np.array([[1.0, 0.0, 0.0]])).sector == 1


def test_general_ibc_equal_mod_pi_is_symmetric():
    v = classify_general_ibc(np.array([0.3, 0.3 + np.pi]))
    assert v.symmetric
    np.testing.assert_allclose(v.theta, 0.3, atol=1e-12)


def test_general_ibc_detects_phase_gap():
    v = classify_general_ibc(np.array([0.0, np.pi / 4]))
    assert not v.symmetric
    assert v.witness == (1, 2)


def test_general_ibc_single_source_symmetric():
    assert classify_general_ibc(np.array([1.1])).symmetric


def test_general_ibc_needs_a_phase():
    # as classify_charges needs a coupling
    with pytest.raises(ValueError, match="at least one phase is required"):
        classify_general_ibc([])

