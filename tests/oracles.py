"""Reference systems and oracles that only the tests use.

The continuum figure system places two unit-separated sources with couplings
(1, e^{i pi/4}) and decay constant alpha = 0.1; its asymmetric phase gap
produces a visible ground-state current looping from one source to the
other.  The lattice preset is the smallest chain on which all symmetry,
gauge and jump-process statements are exercised exactly (dimension 45).
`current_numeric` is the finite-difference oracle for the closed-form
current, and `pool_bins` pools the thin bins of a lattice occupation table
for `scipy.stats.chisquare`.  `source_displacements` is the row-layout
(..., N, 3) distance table, and `reference_psi1` is psi1 summed over it one
source term at a time, as `psi1` evaluated it before it went through the
field kernel.  `reference_flow`, `reference_velocity`,
`reference_rk4_round` and `reference_offcenter_shell_density` are the field
kernel, the RK4 round and the off-centre quadrature as they were written
before they went points-last, over (K, N, 3) arrays: the bit-identity
reference for the points-last code.  `reference_hamiltonian` is the
lattice Hamiltonian assembled from int64 triplets joined by
np.concatenate, the bit-identity reference for the preallocated assembly.
"""

from itertools import combinations

import numpy as np
from scipy.sparse import csr_array

from chargeflow.groundstate import _sphere_nodes, psi1
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
        n_max=2,
        source_sites=(2, 5),
        charges=tuple(charges),
        E0=0.5,
    )


def reference_hamiltonian(basis, params):
    """H of `params` over the tables of a `lattice._Basis`, read as int64: the
    hops right and the creations site after site as COO triplets, each joined
    to its Hermitian conjugate by np.concatenate, then the diagonal, through
    csr_array."""
    occ = basis.occupations.astype(np.int64)
    shift = basis.shift.astype(np.int64)
    shift_left_of = basis.shift_left_of.astype(np.int64)
    total = basis.total.astype(np.int64)
    sector_size = basis.sector_size
    hop = 0.5
    onsite = params.E0 + 1.0
    frm, bond = np.nonzero(occ[:, :-1])
    values = -hop * np.sqrt(occ[frm, bond] * (occ[frm, bond + 1] + 1))
    hops = frm + shift[frm, bond], frm, values
    open_states = np.nonzero(total < len(sector_size) - 1)[0]
    sites = np.asarray(params.source_sites, dtype=np.int64)
    target = open_states + sector_size[total[open_states]]
    rows = target + shift_left_of[open_states][:, sites].T
    values = np.conj(params.charges)[:, None] * np.sqrt(occ[open_states][:, sites].T + 1.0)
    creations = rows.ravel(), np.broadcast_to(open_states, rows.shape).ravel(), values.ravel()
    rows, cols, vals = (np.concatenate(pair) for pair in zip(hops, creations))
    i = np.arange(len(total))
    return csr_array(
        (
            np.concatenate([vals, np.conj(vals), onsite * total]),
            (np.concatenate([rows, cols, i]), np.concatenate([cols, rows, i])),
        ),
        shape=(len(i), len(i)),
        dtype=complex,
    )


def source_displacements(system, y):
    """Displacements y - x_j with shape (..., N, 3) and distances (..., N)."""
    y = np.asarray(y, dtype=float)
    d = y[..., None, :] - system.positions
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("evaluation point coincides with a source")
    return d, r


def reference_psi1(system, y):
    """sum_j conj(g_j) exp(-alpha r_j)/r_j over the (..., N) distances of
    `source_displacements`, dividing conj(g_j) exp(-alpha r_j) by r_j."""
    _, r = source_displacements(system, y)
    a = system.alpha
    return np.sum(np.conj(system.charges) * np.exp(-a * r) / r, axis=-1)


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
    _, r = source_displacements(system, flat)
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


def reference_flow(system, y):
    """psi1 and its current at points y (any leading shape), over (..., N, 3)
    displacements with einsum sums."""
    d = np.asarray(y, dtype=float)[..., None, :] - system.positions
    r = np.sqrt(np.einsum("...i,...i->...", d, d))
    if (r == 0.0).any():
        raise ValueError("evaluation point coincides with a source")
    a = system.alpha
    u = np.exp(-a * r) / r
    w = (u @ system.im_products) * (a + 1.0 / r) * u / r
    cur = system.hbar_over_m * np.einsum("...n,...ni->...i", w, d) + 0.0
    return (u @ system.conj_rows).view(complex)[..., 0], cur


def reference_velocity(system, y):
    """current/|psi1|^2 from `reference_flow`, the density floored at 1e-300."""
    val, cur = reference_flow(system, y)
    return cur / np.maximum(np.abs(val) ** 2, 1e-300)[..., None]


def _reference_row_norms(x):
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def reference_rk4_round(system, field, p, remaining, nearest_d, eps_absorb):
    """One RK4 substep of the (K, 3) rows p along field(system, rows)."""
    k1 = field(system, p)
    speed = _reference_row_norms(k1)
    target = np.maximum(0.25 * nearest_d, 0.25 * eps_absorb)
    h = np.minimum(remaining, target / np.maximum(speed, 1e-300))[:, None]
    half = 0.5 * h
    k2 = field(system, p + half * k1)
    k3 = field(system, p + half * k2)
    k4 = field(system, p + h * k3)
    p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    dd = _reference_row_norms(p[:, None, :] - system.positions)
    nearest_d = dd.min(axis=1)
    absorbed = np.where(nearest_d < eps_absorb, dd.argmin(axis=1), -1)
    return p, remaining - h[:, 0], nearest_d, absorbed


def reference_offcenter_shell_density(system, center):
    """`groundstate._offcenter_shell_density` over an (ns, nq, No, 3)
    displacement table and `np.linalg.norm`."""
    others = [k for k in range(system.n_sources) if k != center - 1]
    if len(others) < 2:
        return None
    a = system.alpha
    g = system.charges
    xc = system.positions[center - 1]
    omega, w = _sphere_nodes()

    def density(s):
        pts = xc + np.atleast_1d(s)[:, None, None] * omega  # (ns, nq, 3)
        d = np.linalg.norm(pts[..., None, :] - system.positions[others], axis=-1)
        u = np.exp(-a * d) / d
        total = sum(
            2.0 * np.real(np.conj(g[ki]) * g[kj]) * np.sum(u[..., i] * u[..., j] * w, axis=-1)
            for (i, ki), (j, kj) in combinations(enumerate(others), 2)
        )
        return float(total[0]) * s**2 if np.isscalar(s) else total * s**2

    return density
