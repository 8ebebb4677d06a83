"""Reference systems and oracles that only the tests use.

The continuum figure system places two unit-separated sources with couplings
(1, e^{i pi/4}) and decay constant alpha = 0.1; its asymmetric phase gap
produces a visible ground-state current looping from one source to the
other.  The lattice preset is the smallest chain on which all symmetry,
gauge and jump-process statements are exercised exactly (dimension 45).
`current_numeric` is the finite-difference oracle for the closed-form
current, and `pool_bins` pools the thin bins of a lattice occupation table
for `scipy.stats.chisquare`.
"""

import numpy as np

from chargeflow.groundstate import _source_displacements, psi1
from chargeflow.lattice import LatticeParams
from chargeflow.model import ChargeSystem

FIGURE_CHARGES = (1.0, np.exp(1j * np.pi / 4))


def figure_system(charges=FIGURE_CHARGES):
    """Two sources at distance 1, m = hbar = 1, E0 = 0.005 (alpha = 0.1)."""
    return ChargeSystem(
        positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        charges=np.asarray(charges, dtype=complex),
        m=1.0,
        E0=0.005,
        hbar=1.0,
    )


def lattice_preset(charges=(1.0, 1j)):
    """Eight sites, truncation n_max = 2, sources at sites 2 and 5 (dim 45)."""
    return LatticeParams(
        L=8,
        a=1.0,
        n_max=2,
        source_sites=(2, 5),
        charges=tuple(charges),
        m=1.0,
        E0=0.5,
        hbar=1.0,
    )


def current_numeric(system, y, h=1e-3):
    """Finite-difference oracle (hbar/m) Im[conj(psi1) grad_h psi1].

    Central differences of step h per axis, second-order accurate; requires
    every evaluation point to be farther than 10*h from all sources.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    y = np.asarray(y, dtype=float)
    shape = y.shape
    flat = y.reshape(-1, 3)
    _, r = _source_displacements(system, flat)
    if np.any(r <= 10.0 * h):
        raise ValueError("step too large relative to distance to the nearest source")
    val = psi1(system, flat)
    grad = np.empty(flat.shape, dtype=complex)
    for ax in range(3):
        step = np.zeros(3)
        step[ax] = h
        grad[:, ax] = (psi1(system, flat + step) - psi1(system, flat - step)) / (2.0 * h)
    return (system.hbar / system.m * np.imag(np.conj(val)[:, None] * grad)).reshape(shape)


def pool_bins(counts, expected):
    """Observed and expected counts pooled greedily, in order of descending
    expected count, until each pool expects at least 5; a thin remainder
    joins the last pool and the expected counts are rescaled to the observed
    total.  The frozen-seed p-values of the lattice tests rest on this
    order, which differs from `pooled_chisquare`'s left-to-right one."""
    order = np.argsort(-expected)
    obs_pool, exp_pool = [], []
    acc_o = acc_e = 0.0
    for i in order:
        acc_o += counts[i]
        acc_e += expected[i]
        if acc_e >= 5.0:
            obs_pool.append(acc_o)
            exp_pool.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and exp_pool:
        obs_pool[-1] += acc_o
        exp_pool[-1] += acc_e
    obs = np.array(obs_pool)
    exp = np.array(exp_pool)
    return obs, exp * obs.sum() / exp.sum()
