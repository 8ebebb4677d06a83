"""Model definition and time-symmetry classification.

A model consists of N static point sources at pairwise distinct positions
x_j in R^3, each carrying a nonzero complex coupling g_j, which emit and
absorb bosons of mass m and rest energy E0.  Whether the dynamics admits an
anti-unitary time-reversal operator depends only on the coupling phases:
reversal is possible exactly when every product conj(g_i) * g_j is real,
i.e. when all phases are equal or opposite ("symmetric" charges).

The candidate reversal operators form a one-parameter family acting
sector-wise on Fock wave functions,

    (T_theta psi)_n = exp(-2i*theta*n) * conj(psi_n),

and the matching gauge rotations are (U_theta psi)_n = exp(-i*theta*n) psi_n.
Both are implemented here on sector-indexed data (a mapping from boson
number to that sector's array).  Neither the groundstate nor the lattice
module calls them: the lattice applies T_theta to its occupation vectors
with its own `sector_reversal`.

Source labels in verdicts and reports are 1-based (sources are numbered
1..N as in the usual physics notation g_1, g_2, ...).
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChargeSystem",
    "Configuration",
    "SymmetryVerdict",
    "classify_charges",
    "classify_general_ibc",
    "time_reverse",
    "gauge_transform",
    "sector_inner_product",
]


def _reduce_mod_pi(phi):
    """Reduce an angle mod pi to the canonical interval (-pi/2, pi/2]."""
    out = np.mod(phi, np.pi)
    if out > np.pi / 2:
        out -= np.pi
    return float(out)


@dataclass(frozen=True)
class ChargeSystem:
    """Static sources with complex couplings plus the physical constants.

    positions : (N, 3) array of source locations, pairwise distinct
    charges   : (N,) complex array of nonzero couplings g_j
    m         : boson mass, > 0
    E0        : boson rest energy, >= 0
    hbar      : action scale, > 0 (kept explicit; default 1)

    Derived, read-only: im_products, the (N, N) matrix Im(conj(g_i) g_j) of
    the pair currents, built as P - P^T from P_ij = Re(g_i) Im(g_j) so that
    it is antisymmetric to the bit (a complex product gives B + B^T != 0 in
    the last place, which the current's cancellations amplify); alpha =
    sqrt(2 m E0)/hbar, the decay constant of psi1 (inf when it leaves the
    float range); hbar_over_m; and, for the points-last field kernel, the
    (N, 2) rows conj_rows = (Re g, -Im g) of conj(g), im_products_t, the
    view im_products.T, and source_columns, the (3, N, 1) positions.
    """

    positions: np.ndarray
    charges: np.ndarray
    m: float = 1.0
    E0: float = 1.0
    hbar: float = 1.0
    im_products: np.ndarray = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False, repr=False, compare=False)
    hbar_over_m: float = field(init=False, repr=False, compare=False)
    conj_rows: np.ndarray = field(init=False, repr=False, compare=False)
    im_products_t: np.ndarray = field(init=False, repr=False, compare=False)
    source_columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        g = np.atleast_1d(np.asarray(self.charges, dtype=complex))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if g.shape != (pos.shape[0],):
            raise ValueError("need exactly one coupling per source")
        if g.size == 0:
            raise ValueError("at least one source is required")
        if np.any(np.abs(g) == 0):
            raise ValueError("couplings must be nonzero")
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        n = pos.shape[0]
        if n > 1 and np.min(dist[~np.eye(n, dtype=bool)]) == 0.0:
            raise ValueError("sources must be pairwise distinct")
        if not self.m > 0:
            raise ValueError("m must be positive")
        if self.E0 < 0:
            raise ValueError("E0 must be nonnegative")
        if not self.hbar > 0:
            raise ValueError("hbar must be positive")
        m, E0, hbar = float(self.m), float(self.E0), float(self.hbar)
        outer = np.outer(g.real, g.imag)
        im_products = outer - outer.T
        conj_rows = np.conj(g).view(float).reshape(-1, 2)
        source_columns = pos.T[:, :, None].copy()
        for arr in (pos, g, im_products, conj_rows, source_columns):
            arr.flags.writeable = False
        with np.errstate(over="ignore"):
            alpha = np.sqrt(2.0 * m * E0) / hbar
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "charges", g)
        object.__setattr__(self, "im_products", im_products)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "E0", E0)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "hbar_over_m", hbar / m)
        object.__setattr__(self, "conj_rows", conj_rows)
        object.__setattr__(self, "im_products_t", im_products.T)
        object.__setattr__(self, "source_columns", source_columns)

    @property
    def n_sources(self):
        return self.positions.shape[0]

    def pair_distances(self):
        """Symmetric (N, N) matrix of source separations."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.linalg.norm(diff, axis=-1)

    def min_source_spacing(self):
        """Smallest pairwise separation; None for a single source."""
        if self.n_sources < 2:
            return None
        d = self.pair_distances()
        return float(np.min(d[~np.eye(self.n_sources, dtype=bool)]))


@dataclass(frozen=True)
class Configuration:
    """A point of the configuration space: n >= 0 boson positions.

    Permutations of the positions represent the same physical configuration;
    every operation consuming a Configuration must be permutation-invariant.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        pos = np.atleast_2d(pos)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must have shape (n, 3)")
        pos = pos.copy()
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def sector(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of a symmetry classification.

    Exactly one of `theta` (symmetric case: the common coupling phase,
    canonicalized to (-pi/2, pi/2]) and `witness` (asymmetric case: the
    lexicographically first 1-based pair (i, j) with conj(g_i)*g_j not real)
    is populated.  `theta_of_n` describes the sector phase function of the
    reversal operator in the symmetric case.
    """

    symmetric: bool
    theta: float | None = None
    witness: tuple[int, int] | None = None
    theta_of_n: str | None = None

    def __post_init__(self):
        if (self.theta is None) == (self.witness is None):
            raise ValueError("exactly one of theta and witness must be set")


def _sector_phase_description(theta):
    return f"theta(n) = -2*n*{theta:.12g} mod 2*pi"


def _phase_verdict(g, phases, tol, what):
    """The verdict of the pair test |Im(conj(g_i) g_j)| <= tol * |g_i| * |g_j|
    over the nonzero couplings g, with the common phase phases[0] when it
    passes; g is built from at least one `what`."""
    if g.size == 0:
        raise ValueError(f"at least one {what} is required")
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = g.size
    for i in range(n):
        for j in range(i + 1, n):
            if abs(np.imag(np.conj(g[i]) * g[j])) > tol * abs(g[i]) * abs(g[j]):
                return SymmetryVerdict(symmetric=False, witness=(i + 1, j + 1))
    theta = _reduce_mod_pi(phases[0])
    return SymmetryVerdict(
        symmetric=True, theta=theta, theta_of_n=_sector_phase_description(theta)
    )


def classify_charges(charges, tol=1e-10):
    """Decide whether the couplings admit a time-reversal operator.

    The criterion: conj(g_i)*g_j must be real for every pair, tested with the
    scale-free tolerance |Im(conj(g_i) g_j)| <= tol * |g_i| * |g_j|.  In the
    symmetric case the returned theta is the phase of g_1 reduced mod pi to
    (-pi/2, pi/2] (the common phase is only defined mod pi, since sources with
    opposite phase carry real couplings of opposite sign).
    """
    g = np.atleast_1d(np.asarray(charges, dtype=complex))
    if np.any(np.abs(g) == 0):
        raise ValueError("couplings must be nonzero")
    return _phase_verdict(g, np.angle(g), tol, "coupling")


def _sector_map(psi, phases):
    out = {}
    for n, arr in psi.items():
        n = int(n)
        if n < 0:
            raise ValueError("sector numbers must be nonnegative")
        out[n] = phases(n) * np.asarray(arr, dtype=complex)
    return out


def time_reverse(psi, theta):
    """Apply T_theta: sector n picks up exp(-2i*theta*n) after conjugation.

    `psi` is a mapping from sector number to a complex array of any shape
    (values of the n-boson component).  Anti-linear and norm-preserving;
    applying it twice with the same theta restores psi.
    """
    return _sector_map(
        {n: np.conj(np.asarray(a, dtype=complex)) for n, a in psi.items()},
        lambda n: np.exp(-2j * theta * n),
    )


def gauge_transform(psi, theta):
    """Apply U_theta: sector n is multiplied by exp(-i*theta*n).

    Unitary; compensates a global phase rotation of the couplings
    g -> exp(i*theta) g.
    """
    return _sector_map(psi, lambda n: np.exp(-1j * theta * n))


def sector_inner_product(psi, phi):
    """<psi, phi> summed over sectors, conjugate-linear in the first slot.

    Sectors missing from either argument contribute zero.
    """
    total = 0.0 + 0.0j
    for n, a in psi.items():
        if n in phi:
            total += np.vdot(np.asarray(a, dtype=complex), np.asarray(phi[n], dtype=complex))
    return complex(total)


def classify_general_ibc(thetas, tol=1e-10):
    """Symmetry classification for the general IBC family, from the phase
    theta_j attached to each source j.

    Only the phases decide: the real parameters (alpha_j, beta_j, gamma_j,
    delta_j) of each source's condition do not enter.  The test is that of
    `classify_charges` on the unit phasors exp(i*theta_j): symmetric exactly
    when |sin(theta_i - theta_j)| <= tol for every pair, so all theta_j are
    equal mod pi; the sector phase function is then
    theta(n) = -2*n*theta_1 mod 2*pi, which is insensitive to the mod-pi
    ambiguity of theta_1.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    return _phase_verdict(np.exp(1j * th), th, tol, "phase")
