"""Exactly diagonalizable lattice truncation of the particle-creation model.

Bosons hop on a 1D chain of L sites (spacing a, reflecting ends) and are
created/annihilated at source sites; the Fock space is truncated at a total
boson number n_max.  In the occupation basis {(n_1..n_L): sum n_s <= n_max}
the Hamiltonian is

    H = sum_s (E0 + hbar^2/(m a^2)) n_s
        - hbar^2/(2 m a^2) sum_<s,s'> b_s'^dag b_s          (hopping)
        + sum_j (g_j b_{s_j} + conj(g_j) b_{s_j}^dag),      (sources)

the second quantization of the discrete Laplacian plus rest energy, with the
continuum smearing collapsed to a site delta.  Everything stays finite, so
time-reversal and gauge statements become exact matrix identities:

  * T_theta psi = e^{-2 i theta n(q)} conj(psi) commutes with H exactly when
    every coupling satisfies conj(g_j) = e^{-2 i theta} g_j;
  * U_theta = diag(e^{-i theta n(q)}) intertwines the models with couplings
    g and e^{i theta} g identically;
  * the minimal-jump Bell process built from H is equivariant (occupation
    statistics follow |psi_t|^2) and reverses exactly when T commutes.

Site indices are 0-based; basis states are ordered sector-major (total boson
number ascending), deterministic across runs.  H is stored as a sparse CSR
array at every size; the spectral data are limited to DENSE_LIMIT states.
The ground pair takes every eigenvalue from the real Hamiltonian of the
chain's normal modes, which has H's spectrum (one real Householder
reduction of a dense copy), and the ground eigenvector from H by sparse
inverse iteration; only the full eigendecomposition behind the spectral
`evolve` needs a dense complex copy of H.
"""

import cmath
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import comb, sqrt

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_array, eye_array
from scipy.sparse.linalg import expm_multiply, splu
from scipy.special import roots_hermite

__all__ = [
    "LatticeParams",
    "LatticeModel",
    "JumpChainRecord",
    "BellEnsembleResult",
    "ReversalReport",
    "GroundCurrentReport",
    "NodeError",
    "lattice_dimension",
    "dimension_error",
    "build_model",
    "evolve",
    "check_T_commutation",
    "check_gauge_equivalence",
    "sector_reversal",
    "bell_jump_rates",
    "run_bell_process",
    "run_bell_ensemble",
    "reversal_conditions_check",
    "ground_state_current",
]

MAX_DIMENSION = 200_000
DENSE_LIMIT = 2000  # largest dimension with a dense copy of H (ground, eig, spectral evolve)
BELL_DT_CAP = 2e-3  # longest stretch of constant Bell rates for a psi0 that is not stationary
BELL_NODE_FLOOR = 1e-12  # Bell rate denominators are floored at this share of the largest density


class NodeError(ValueError):
    """Jump rates requested at a configuration where the wavefunction vanishes."""


def lattice_dimension(L, n_max):
    """Number of occupation states with at most n_max bosons on L sites:
    sum_k C(L + k - 1, k) over k <= n_max, which is C(L + n_max, n_max)
    (hockey-stick identity) and costs min(L, n_max) steps, so a huge n_max
    is rejected at once."""
    return comb(L + n_max, n_max)


def dimension_error(L, n_max):
    """The message rejecting a basis of more than MAX_DIMENSION states, or
    None.  The dimension is at least C(2k, k) with k = min(L, n_max), which
    passes 10**18 from k = 32 on, so past k = 60 it is not computed at all,
    and a dimension above 10**18 is never formatted in full."""
    dim = lattice_dimension(L, n_max) if min(L, n_max) <= 60 else None
    if dim is not None and dim <= MAX_DIMENSION:
        return None
    shown = dim if dim is not None and dim <= 10**18 else "above 10**18"
    return f"basis dimension {shown} exceeds the supported maximum {MAX_DIMENSION}"


@dataclass(frozen=True)
class LatticeParams:
    """Build parameters: chain size, truncation, sources and couplings."""

    L: int
    a: float
    n_max: int
    source_sites: tuple
    charges: tuple
    m: float = 1.0
    E0: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("need at least two lattice sites")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.a <= 0 or self.m <= 0 or self.hbar <= 0:
            raise ValueError("a, m and hbar must be positive")
        if self.E0 < 0:
            raise ValueError("E0 must be nonnegative")
        sites = tuple(int(s) for s in self.source_sites)
        charges = tuple(complex(g) for g in self.charges)
        if len(sites) != len(charges):
            raise ValueError("one coupling per source site is required")
        if len(set(sites)) != len(sites):
            raise ValueError("source sites must be distinct")
        if any(not 0 <= s < self.L for s in sites):
            raise ValueError("source sites must lie on the chain")
        if any(g == 0 for g in charges):
            raise ValueError("couplings must be nonzero")
        error = dimension_error(self.L, self.n_max)
        if error is not None:
            raise ValueError(error)
        object.__setattr__(self, "source_sites", sites)
        object.__setattr__(self, "charges", charges)


def _sector_blocks(L, n_max):
    """(n, c, source, target) row slices of the basis recursion, sector by
    sector.  The rows of sector n whose first occupied site is c are, in
    order, the rows `source` of sector n - 1 with no boson left of c (its
    last C(L - c + n - 2, n - 1) rows) plus a boson at c; they fill the rows
    `target`.  Row 0 is the vacuum."""
    start = 1
    for n in range(1, n_max + 1):
        row = start
        for c in range(L):
            count = comb(L - c + n - 2, n - 1)
            yield n, c, slice(start - count, start), slice(row, row + count)
            row += count
        start = row


def _occupations(L, n_max):
    """Occupation rows of the truncated basis in basis order, written sector
    by sector from `_sector_blocks` with no sorting.

    Sector-major (total boson number ascending), then within sector n the
    order of combinations_with_replacement(range(L), n) over sorted site
    tuples, which is descending lexicographic in (n_1..n_L).
    """
    occ = np.zeros((lattice_dimension(L, n_max), L), dtype=np.int64)
    for _, c, source, target in _sector_blocks(L, n_max):
        occ[target, c:] = occ[source, c:]
        occ[target, c] += 1
    return occ


@dataclass(frozen=True)
class _Basis:
    """Index tables of the truncated basis, shared by every Hamiltonian
    assembled over it.

    Combinatorial number system of the basis order: moving one boson from
    site s to s+1 raises the index by shift[i, s], the number of placements
    of the bosons right of s on the L-s-1 sites there; creating a boson at
    site c raises it by the size of the state's sector plus shift_left_of[i,
    c], the shifts of every bond left of c.  Both raise the index, so these
    entries of a Hamiltonian lie in its strictly lower triangle.
    """

    occupations: np.ndarray  # (dim, L) occupation rows in basis order
    total: np.ndarray  # boson number of each state
    shift: np.ndarray  # (dim, L - 1)
    shift_left_of: np.ndarray  # (dim, L)
    sector_size: np.ndarray  # states with exactly k bosons, k = 0..n_max


def _basis(L, n_max):
    occ = _occupations(L, n_max)
    sector_size = np.array([comb(L + k - 1, k) for k in range(n_max + 1)], dtype=np.int64)
    # ways[r, s] places r bosons on the L - s - 1 sites right of s, and
    # left[r, c] sums ways[r, s] over s < c: the tables of a state whose r
    # bosons all lie right of the sites in question
    ways = np.array(
        [[comb(r + L - s - 2, r) for s in range(L - 1)] for r in range(n_max + 1)],
        dtype=np.int64,
    )
    left = np.zeros((n_max + 1, L), dtype=np.int64)
    np.cumsum(ways, axis=1, out=left[:, 1:])
    shift = np.empty((len(occ), L - 1), dtype=np.int64)
    shift_left_of = np.empty((len(occ), L), dtype=np.int64)
    shift[0], shift_left_of[0] = ways[0], left[0]
    for n, c, source, target in _sector_blocks(L, n_max):
        # the boson added at c leaves every bond right of c as it was in
        # the source row and puts all n bosons right of each bond left of c
        shift[target, :c] = ways[n, :c]
        shift[target, c:] = shift[source, c:]
        shift_left_of[target, :c] = left[n, :c]
        shift_left_of[target, c:] = shift_left_of[source, c:] + (left[n, c] - left[n - 1, c])
    return _Basis(
        occupations=occ,
        total=np.repeat(np.arange(n_max + 1), sector_size),
        shift=shift,
        shift_left_of=shift_left_of,
        sector_size=sector_size,
    )


def _hop_entries(basis, hop):
    """(rows, cols, values) of the hops right, -hop sqrt(n_s (n_{s+1} + 1))."""
    occ = basis.occupations
    frm, bond = np.nonzero(occ[:, :-1])
    values = -hop * np.sqrt(occ[frm, bond] * (occ[frm, bond + 1] + 1))
    return frm + basis.shift[frm, bond], frm, values


def _creation_entries(basis, sites, amplitudes):
    """(rows, cols, values) of the creations amplitude sqrt(n_site + 1), one
    site after the other."""
    n_max = len(basis.sector_size) - 1
    open_states = np.nonzero(basis.total < n_max)[0]
    sites = np.asarray(sites, dtype=np.int64)
    target = open_states + basis.sector_size[basis.total[open_states]]
    rows = target + basis.shift_left_of[open_states][:, sites].T
    occ = basis.occupations[open_states][:, sites].T
    values = np.asarray(amplitudes)[:, None] * np.sqrt(occ + 1.0)
    return rows.ravel(), np.broadcast_to(open_states, rows.shape).ravel(), values.ravel()


def _hamiltonian(basis, params):
    """H of `params` over `basis` as CSR: each hop right and each creation
    together with its Hermitian conjugate (hop left, annihilation)."""
    hop = params.hbar**2 / (2.0 * params.m * params.a**2)
    onsite = params.E0 + params.hbar**2 / (params.m * params.a**2)
    hops = _hop_entries(basis, hop)
    creations = _creation_entries(basis, params.source_sites, np.conj(params.charges))
    rows, cols, vals = (np.concatenate(pair) for pair in zip(hops, creations))
    i = np.arange(len(basis.total))
    return csr_array(
        (
            np.concatenate([vals, np.conj(vals), onsite * basis.total]),
            (np.concatenate([rows, cols, i]), np.concatenate([cols, rows, i])),
        ),
        shape=(len(i), len(i)),
        dtype=complex,
    )


class LatticeModel:
    """Immutable assembled model: basis, CSR Hamiltonian, cached spectral data.

    `H` is a scipy CSR array at every size and `occupations` the basis as a
    (dim, L) integer array; `basis` (occupation tuples) and `index` (tuple to
    basis index) are built on first use.  Only `ground` and `eig` work on
    dense matrices, so they and what builds on them (`ground_state_current`,
    the spectral `evolve`) are limited to DENSE_LIMIT states and raise
    ValueError above it.  `ground` reduces the real
    Hamiltonian of the chain's normal modes, not H itself (see there).
    """

    def __init__(self, params, basis, H):
        self.params = params
        self._basis = basis
        self.occupations = basis.occupations
        self.sector = basis.total
        self.H = H
        self.dim = len(self.occupations)
        # row of each stored entry of H
        self._rows = np.repeat(np.arange(self.dim), np.diff(H.indptr))
        self._ground = None
        self._eig = None

    @cached_property
    def basis(self):
        return list(map(tuple, self.occupations.tolist()))

    @cached_property
    def index(self):
        return dict(zip(self.basis, range(self.dim)))

    def state_index(self, q):
        """Index of an occupation tuple (or pass an int index through)."""
        if isinstance(q, (int, np.integer)):
            if not 0 <= q < self.dim:
                raise IndexError("basis index out of range")
            return int(q)
        key = tuple(int(n) for n in q)
        if key not in self.index:
            raise KeyError(f"occupation {key} is not in the truncated basis")
        return self.index[key]

    def _check_dense(self, what):
        if self.dim > DENSE_LIMIT:
            raise ValueError(
                f"the {what} is limited to {DENSE_LIMIT} states (dimension {self.dim})"
            )

    def ground(self):
        """Cached ground pair: every eigenvalue of H (ascending) and the
        eigenvector of the lowest, at most DENSE_LIMIT states.

        The spectrum comes from the chain's normal modes.  The open chain's
        one-boson Hamiltonian has the modes W_kx = sqrt(2/(L+1))
        sin(k pi (x+1)/(L+1)) with energies eps_k = E0 + hbar^2/(m a^2)
        (1 - cos(k pi/(L+1))), k = 1..L; the sources couple to mode k with
        phi_k = sum_j W_{k s_j} conj(g_j).  A_k = e^{-i arg phi_k} sum_x
        W_kx b_x are Bose modes that keep every boson-number sector, so the
        truncated H is unitarily equivalent to the real symmetric
            H' = sum_k eps_k n_k + sum_k |phi_k| (A_k + A_k^dag)
        on the same occupation basis, with a source of amplitude |phi_k| on
        every mode and no hopping.  dsytrd reduces a dense copy of H' to
        tridiagonal form and dsterf gives its eigenvalues (LAPACK Users'
        Guide, SIAM 1999).

        The ground vector comes from H itself, by inverse iteration: one
        sparse LU factorization of H - sigma, sigma a few ulps of the
        spectral scale below the lowest eigenvalue, and two solves from the
        start x0(q) = d^n(q) r(q), r a fixed real vector and d = conj(g_1) /
        |g_1|.  H - sigma is positive definite and its pattern is symmetric,
        so the factorization orders it by minimum degree on A + A^T and
        pivots on the diagonal (George & Liu, SIAM Rev. 31 (1989) 1): 9.6x
        fill-in at dimension 680 and 101x at 10,626, against 17.1x and 217x
        under the default column ordering (COLAMD).  A Hamiltonian that a
        sector phase d^n makes real keeps every iterate in that gauge,
        exactly so when d is a power of i, and the phase fixed by a real
        positive vacuum amplitude makes a real H's ground vector exactly
        real.  A spectral scale max(1, |E|) beyond 1e154 raises ValueError;
        a LAPACK failure, or a vector whose residual ||H psi - E0 psi||
        exceeds 1e-12 times that scale, raises LinAlgError.
        """
        if self._ground is None:
            self._check_dense("ground state")
            evals = self._mode_spectrum()
            self._ground = (evals, self._ground_vector(evals))
        return self._ground

    def _mode_spectrum(self):
        p = self.params
        k = np.arange(1, p.L + 1)
        eps = p.E0 + p.hbar**2 / (p.m * p.a**2) * (1.0 - np.cos(k * np.pi / (p.L + 1)))
        modes = sqrt(2.0 / (p.L + 1)) * np.sin(
            np.outer(k, np.add(p.source_sites, 1)) * (np.pi / (p.L + 1))
        )
        phi = modes @ np.conj(np.array(p.charges, dtype=complex))
        rows, cols, vals = _creation_entries(self._basis, range(p.L), np.abs(phi))
        # only the lower triangle, which every creation lies in, is read
        h = np.zeros((self.dim, self.dim), order="F")
        h[rows, cols] = vals
        h[np.diag_indices(self.dim)] = self.occupations @ eps
        lwork, info = lapack.dsytrd_lwork(self.dim, lower=1)
        _check_lapack("dsytrd_lwork", info)
        _, d, e, _, info = lapack.dsytrd(h, lower=1, lwork=int(lwork), overwrite_a=1)
        _check_lapack("dsytrd", info)
        evals, info = lapack.dsterf(d, e)
        _check_lapack("dsterf", info)
        return evals

    def _ground_vector(self, evals):
        scale = max(1.0, abs(evals[0]), abs(evals[-1]))
        if not scale < 1e154:
            # a solve's entries are near 1/(eps*scale) and the norm squares
            # them, which underflows from a scale of about 1e169 on; the
            # bound is about the square root of the float range
            p = self.params
            raise ValueError(
                f"the lattice spectral scale {scale:.3g} exceeds 1e+154 at m = {p.m!r}, "
                f"a = {p.a!r}, hbar = {p.hbar!r}, E0 = {p.E0!r}"
            )
        shifted = self.H - (evals[0] - 4.0 * np.spacing(scale)) * eye_array(self.dim)
        # minimum degree on A + A^T and diagonal pivots (see `ground`)
        lu = splu(
            shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}
        )
        charges = self.params.charges
        d = charges[0].conjugate() / abs(charges[0]) if charges else 1.0
        powers = [1.0 + 0j]
        for _ in range(self.params.n_max):
            powers.append(powers[-1] * d)
        # a fixed real start vector, in the gauge of the first charge
        psi = np.array(powers)[self.sector] * np.random.default_rng(20).random(self.dim)
        for _ in range(2):
            psi = lu.solve(psi)
            psi /= np.linalg.norm(psi)
        residual = float(np.linalg.norm(self.H @ psi - evals[0] * psi))
        if not residual <= 1e-12 * scale:
            raise np.linalg.LinAlgError(
                f"inverse iteration left a ground-state residual of {residual:.3e}"
            )
        # the vacuum amplitude of the ground state never vanishes
        return psi * (np.conj(psi[0]) / abs(psi[0]))

    def eig(self):
        """Cached eigendecomposition of a dense copy of H (at most DENSE_LIMIT
        states); only the spectral `evolve` needs every eigenvector."""
        if self._eig is None:
            self._check_dense("eigendecomposition")
            self._eig = tuple(np.linalg.eigh(self.H.toarray(order="F")))
        return self._eig


def _check_lapack(name, info):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {name} failed (info = {info})")


def build_model(params):
    """Assemble the truncated Hamiltonian over the occupation basis as CSR.

    The entries come as COO triplets for whole arrays of states: a hop or a
    creation maps basis index i to i + shift, with the shift read off the
    combinatorial number system of the basis order (`_Basis`, kept on the
    model).  Each hop right and each creation is entered together with its
    Hermitian conjugate (hop left, annihilation), so H is Hermitian by
    construction; the tests check it at the oracle sizes and at dim 10,626.
    """
    basis = _basis(params.L, params.n_max)
    return LatticeModel(params, basis, _hamiltonian(basis, params))


def evolve(model, psi, t):
    """Propagate psi by e^{-iHt/hbar}.

    Up to DENSE_LIMIT states this is the spectral form of the matrix
    exponential (exact, norm drift at rounding level); above it, scipy's
    expm_multiply on the CSR H (Al-Mohy & Higham, SIAM J. Sci. Comput. 33
    (2011) 488), which needs no eigendecomposition.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (model.dim,):
        raise ValueError("psi must be a vector over the basis")
    if t == 0:
        return psi.copy()
    if model.dim > DENSE_LIMIT:
        return expm_multiply((-1j * t / model.params.hbar) * model.H, psi)
    evals, evecs = model.eig()
    return evecs @ (np.exp(-1j * evals * t / model.params.hbar) * (evecs.conj().T @ psi))


def sector_reversal(model, theta, psi):
    """Apply T_theta: multiply sector n by e^{-2 i theta n} and conjugate."""
    psi = np.asarray(psi, dtype=complex)
    return np.exp(-2j * theta * model.sector) * np.conj(psi)


@lru_cache(maxsize=None)
def _largest_hermite_root(n):
    """Largest root of the physicists' Hermite polynomial H_n."""
    return float(roots_hermite(n)[0].max())


def check_T_commutation(model, theta, kind="op"):
    """Norm of the commutator of T_theta with H, in closed form at every size.

    T_theta H - H T_theta applied to psi equals Delta applied to D conj(psi),
    with D = diag(e^{-2 i theta n(q)}) unitary and Delta = D conj(H) D^dag - H.
    Hopping and on-site terms are real and keep the sector, so only the
    sources survive:
        Delta = -2i e^{i theta} sum_j s_j b_{s_j} + h.c.,
        s_j = Im(e^{-i theta} g_j).
    Both norms are sqrt(sum_j w_j s_j^2):
    kind="op": w_j = 8 x^2, with x the largest root of the Hermite polynomial
        H_{n_max+1}.  A sector phase and a rotation of the modes turn Delta
        into 2 |s| (b + b^dag) under the cutoff n_max, whose largest
        eigenvalue is sqrt(2) x (the Jacobi matrix of Gauss-Hermite
        quadrature; Golub & Welsch, Math. Comp. 23 (1969) 221).
    kind="fro": w_j = 8 S_j, where S_j sums n_{s_j}(q) + 1 over the states q
        that still accept a boson: the squared magnitudes of Delta's entries.
    theta may be an array.  The two norms vanish together, and
    op <= fro <= sqrt(rank) * op.
    """
    charges = model.params.charges
    if kind == "op":
        weights = (8.0 * _largest_hermite_root(model.params.n_max + 1) ** 2,) * len(charges)
    elif kind == "fro":
        open_states = model.sector < model.params.n_max
        occ = model.occupations[open_states][:, list(model.params.source_sites)]
        weights = tuple(8.0 * np.sum(occ + 1, axis=0))
    else:
        raise ValueError("kind must be 'op' or 'fro'")
    if np.ndim(theta) == 0:
        # scalar theta in plain Python: a sweep calls this once per grid point
        rot = cmath.exp(-1j * theta)
        return sqrt(sum(w * (rot * g).imag ** 2 for w, g in zip(weights, charges)))
    s = np.imag(np.exp(-1j * np.asarray(theta, dtype=float)[..., None]) * np.array(charges))
    return np.sqrt(np.sum(np.array(weights) * s**2, axis=-1))


def check_gauge_equivalence(model, theta):
    """Frobenius norm of U_theta^dag H_{e^{i theta} g} U_theta - H_g.

    U_theta multiplies sector n by e^{-i theta n}.  The difference vanishes
    identically (the transform shifts every coupling phase back), so the
    returned value is a rounding-level residual; it bounds the operator norm
    from above.
    """
    charges = tuple(np.exp(1j * theta) * g for g in model.params.charges)
    # assembled over the model's own basis tables, so it stores its entries
    # in the CSR positions of H's
    rot = _hamiltonian(model._basis, replace(model.params, charges=charges))
    phases = np.exp(-1j * theta * model.sector)
    entries = (np.conj(phases)[model._rows] * rot.data) * phases[rot.indices]
    return float(np.linalg.norm(entries - model.H.data))


def _current(model, psi):
    """J(q -> q') = (2/hbar) Im[conj(psi(q')) H_{q'q} psi(q)] at each stored
    entry (q', q) of H, in CSR order; antisymmetric, as H is Hermitian."""
    H = model.H
    return 2.0 / model.params.hbar * np.imag((np.conj(psi)[model._rows] * H.data) * psi[H.indices])


def bell_jump_rates(model, psi, q):
    """Minimal jump rates out of configuration q under wavefunction psi.

    sigma(q -> q') = (2/hbar) max{0, Im[conj(psi(q')) H_{q'q} psi(q)]} / |psi(q)|^2
    for every q' coupled to q by H.  Between any pair at most one direction is
    active, and the difference of the two directed flows reproduces the net
    probability current.  Each flux is max{0, -J} in row q of H (`_current`).
    Keys of the returned map are occupation tuples.
    """
    psi = np.asarray(psi, dtype=complex)
    qi = model.state_index(q)
    dens = abs(psi[qi]) ** 2
    if dens == 0.0:
        raise NodeError("jump rates are undefined at a node of psi")
    lo, hi = model.H.indptr[qi], model.H.indptr[qi + 1]
    flux = np.maximum(0.0, -_current(model, psi)[lo:hi])
    return {
        model.basis[target]: float(f / dens)
        for target, f in zip(model.H.indices[lo:hi], flux)
        if f > 0.0 and target != qi
    }


@dataclass(frozen=True)
class JumpChainRecord:
    """One Bell-process chain: jump times, visited configurations, floored-node visits."""

    times: np.ndarray
    states: list
    t_max: float
    seed: int
    node_warnings: int


@dataclass(frozen=True)
class BellEnsembleResult:
    """Ensemble of Bell chains: final occupation statistics."""

    final_indices: np.ndarray
    n_jumps: np.ndarray
    t_final: float
    node_warnings: int


def _is_stationary(model, psi):
    """Whether unit-norm psi is an eigenvector of H to rounding:
    ||H psi - E psi|| <= 1e-12 max(1, ||H||_1) with E = <psi|H|psi>.  Then
    psi(t) = e^{-iEt/hbar} psi, whose error is at most t ||(H - E) psi||/hbar,
    and every jump rate is constant in time."""
    H_psi = model.H @ psi
    residual = np.linalg.norm(H_psi - np.vdot(psi, H_psi).real * psi)
    return residual <= 1e-12 * max(1.0, float(abs(model.H).sum(axis=0).max()))


def _run_chains(model, psi0, t_max, n_chains, seed):
    """The chains of run_bell_ensemble.  Returns its result and the path of
    the first chain as (time, states[:1]) pairs: the start and each of its
    jumps."""
    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    rng = np.random.default_rng(seed)
    H, rows = model.H, model._rows
    # row q of the rate table holds sigma(q -> q') for the q' of row q of H
    slots = np.arange(H.nnz) - H.indptr[rows]
    targets = np.zeros((model.dim, slots.max() + 1), dtype=np.int64)
    targets[rows, slots] = H.indices

    def cumulative_rates(psi):
        dens = np.abs(psi) ** 2
        floor = BELL_NODE_FLOOR * np.max(dens)
        rates = np.zeros(targets.shape)
        rates[rows, slots] = np.maximum(0.0, -_current(model, psi)) / np.maximum(dens, floor)[rows]
        return np.cumsum(rates, axis=1), dens < floor

    def land(chains, cum):
        # the uniforms go to the jumping chains ordered by current state;
        # returns the states they land in, in the order of `chains`
        moving = chains[np.argsort(states[chains], kind="stable")]
        at = states[moving]
        row = cum[at]
        row /= np.maximum(row[:, -1:], 1e-300)
        slot = np.sum(row <= rng.random(chains.size)[:, None], axis=1)
        states[moving] = targets[at, slot]
        return states[chains]

    states = rng.choice(model.dim, size=n_chains, p=np.abs(psi0) ** 2)
    n_jumps = np.zeros(n_chains, dtype=int)
    path = [(0.0, states[:1].copy())]
    cum, flagged = cumulative_rates(psi0)
    node_hits = int(np.sum(flagged[states]))
    stationary = _is_stationary(model, psi0)
    t = 0.0
    while t < t_max:
        # a stretch [t, end) of constant rates: the whole run for a
        # stationary psi0, else a step with the rates of its midpoint
        if stationary:
            end = t_max
        else:
            lam = cum[:, -1].max()
            end = min(t + (min(BELL_DT_CAP, 0.05 / lam) if lam > 0 else BELL_DT_CAP), t_max)
            cum, flagged = cumulative_rates(evolve(model, psi0, (t + end) / 2.0))
        # each chain waits an exponential time at its total rate and jumps
        # until its clock passes the end; the holding time is memoryless, so
        # the next stretch draws afresh from its start
        total = cum[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            clock = t + rng.standard_exponential(n_chains) / total[states]
        live = np.flatnonzero(clock < end)
        clock = clock[live]
        while live.size:
            at = land(live, cum)
            n_jumps[live] += 1
            node_hits += int(np.sum(flagged[at]))
            if live[0] == 0:
                path.append((float(clock[0]), states[:1].copy()))
            with np.errstate(divide="ignore", invalid="ignore"):
                clock += rng.standard_exponential(live.size) / total[at]
            keep = clock < end
            live, clock = live[keep], clock[keep]
        t = end
    result = BellEnsembleResult(
        final_indices=states, n_jumps=n_jumps, t_final=float(t_max), node_warnings=node_hits
    )
    return result, path


def run_bell_process(model, psi0, t_max, seed):
    """Run one minimal-jump chain (the wavefunction evolved alongside unless
    psi0 is stationary).

    The chain is an ensemble of one (`run_bell_ensemble` with n_chains=1 and
    the same seed ends in the same state, by the same rule); the record
    holds its exact jump times and the configurations it visits.
    """
    result, path = _run_chains(model, psi0, t_max, 1, seed)
    return JumpChainRecord(
        times=np.array([time for time, _ in path]),
        states=[model.basis[state[0]] for _, state in path],
        t_max=float(t_max),
        seed=int(seed),
        node_warnings=result.node_warnings,
    )


def run_bell_ensemble(model, psi0, t_max, n_chains, seed):
    """Evolve n_chains independent jump chains in continuous time
    (Gillespie, J. Phys. Chem. 81 (1977) 2340).

    Starts are drawn from |psi0|^2.  The run is cut into stretches of
    constant rates: one, [0, t_max), for a stationary psi0 (an eigenvector
    to rounding, `_is_stationary`); for any other psi0, steps of at most
    BELL_DT_CAP and 5% total jump probability under the previous table, each
    with the rates of psi at its midpoint from `evolve`, the run's only
    approximation.  In a stretch every chain draws exponential holding times
    at sigma_out of its state, and jumps from q to q' with probability
    sigma(q -> q') / sigma_out(q), until its clock passes the end; the next
    stretch draws afresh, which the memoryless exponential makes exact.  A
    stationary run costs about chains * (1 + t_max * sum_q |psi0(q)|^2
    sigma_out(q)).

    Rate denominators are floored at BELL_NODE_FLOOR times the largest
    density; node_warnings counts the chain visits (start or landing) to a
    floored configuration and is the only report of the capped rates.
    """
    return _run_chains(model, psi0, t_max, n_chains, seed)[0]


@dataclass(frozen=True)
class ReversalReport:
    """Pointwise check of the jump-rate reversal identity for T_theta psi.

    The identity F^{T psi}(q -> q') = F^{psi}(q' -> q) over all basis pairs
    (flux form, no division, so nodes are unproblematic) holds for all psi
    exactly when T_theta commutes with H; `commutator_norm` reports that norm
    for cross-reference.  A single psi can satisfy the identity accidentally,
    so callers probing asymmetry should use a generic psi.
    """

    passed: bool
    max_violation: float
    commutator_norm: float
    theta: float


def reversal_conditions_check(model, theta, psi):
    """Verify that reversing psi reverses every directed jump flux, to 1e-10."""
    psi = np.asarray(psi, dtype=complex)
    # at entry (q', q): F^{T psi}(q -> q') against F^{psi}(q' -> q)
    forward = np.maximum(0.0, _current(model, sector_reversal(model, theta, psi)))
    backward = np.maximum(0.0, -_current(model, psi))
    max_violation = float(np.max(np.abs(forward - backward)))
    return ReversalReport(
        passed=bool(max_violation <= 1e-10),
        max_violation=max_violation,
        commutator_norm=check_T_commutation(model, theta, kind="fro"),
        theta=float(theta),
    )


@dataclass(frozen=True)
class GroundCurrentReport:
    """Net probability currents of the exact ground state over basis pairs.

    `currents` is a CSR array on H's non-zeros, entry [q', q] = J(q, q').
    """

    currents: csr_array
    max_abs: float
    eigengap: float
    energy: float


def ground_state_current(model, gap_tol=1e-8):
    """J(q, q') = (2/hbar) Im[conj(psi(q')) H_{q'q} psi(q)] on the ground state.

    Requires a nondegenerate ground level (gap > gap_tol); the maximum |J|
    vanishes (<= 1e-10) exactly for symmetric couplings and is strictly
    positive otherwise.
    """
    evals, ground = model.ground()
    gap = float(evals[1] - evals[0])
    scale = max(abs(evals[-1]), abs(evals[0]), 1.0)
    if gap <= gap_tol * scale:
        raise ValueError(f"ground state is degenerate within tolerance (gap {gap:.3e})")
    J = _current(model, ground)
    return GroundCurrentReport(
        currents=csr_array((J, model.H.indices, model.H.indptr), shape=model.H.shape),
        max_abs=float(np.max(np.abs(J))),
        eigengap=gap,
        energy=float(evals[0]),
    )
