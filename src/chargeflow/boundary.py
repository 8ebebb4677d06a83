"""One-dimensional boundary conditions as a laboratory for time symmetry.

Three stand-ins for the interior boundary condition of the full model are
implemented on simple 1D geometries, in natural units (hbar = m = 1; README
gives the rescaling to other units):

  * Robin conditions alpha*psi + beta*psi' = 0 at the ends of [0, 1]: the end
    conserves probability exactly when beta = 0 (Dirichlet) or alpha/beta is
    real; a complex ratio produces a boundary current
    j(end) = -|psi(end)|^2 Im(alpha/beta) with psi' always taken as
    d/dx (so a positive Im(alpha/beta) means outflow at the left end and
    inflow at the right end).
  * The Bethe-Peierls condition lim_{r->0} (d/dr - gamma)(r psi) = 0 of a 3D
    point interaction, checked by polynomial extrapolation of radial samples.
  * Phase-shifted periodic conditions psi(x+1) = e^{i theta} psi(x) on the
    circle: plane waves e^{ikx} with k = theta + 2*pi*n, ground state k =
    theta carrying the constant current theta; time symmetric exactly
    when theta is a multiple of pi (conjugation maps theta to -theta).

An emission-witness constructor shows that any local condition
(alpha + beta d/dn) psi(q') = psi(q) with psi(q) != 0 admits boundary values
with either sign of normal current, which is the mechanism behind stochastic
emission and absorption in the full model.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import zgttrf, zgttrs

__all__ = [
    "RobinBC",
    "WitnessInput",
    "EndVerdict",
    "ConservationReport",
    "BethePeierlsReport",
    "DiscreteGroundReport",
    "PeriodicVerdict",
    "EmissionWitness",
    "RobinEvolution",
    "LeakReport",
    "is_probability_conserving",
    "bethe_peierls_check",
    "periodic_spectrum",
    "discrete_periodic_ground",
    "symmetry_verdict_periodic",
    "emission_witness",
    "evolve_robin",
    "robin_leak_check",
]


def _check_end(alpha, beta, label):
    if alpha == 0 and beta == 0:
        raise ValueError(f"boundary condition at {label} must have (alpha, beta) != (0, 0)")


@dataclass(frozen=True)
class RobinBC:
    """Local conditions alpha*psi + beta*psi' = 0 at x=0 and x=L (psi' = d/dx)."""

    alpha0: complex
    beta0: complex
    alpha1: complex
    beta1: complex

    def __post_init__(self):
        _check_end(self.alpha0, self.beta0, "end 0")
        _check_end(self.alpha1, self.beta1, "end 1")


@dataclass(frozen=True)
class WitnessInput:
    """Data of the local condition (alpha + beta d/dn) psi(q') = psi(q)."""

    alpha: complex
    beta: complex
    psi_q: complex

    def __post_init__(self):
        _check_end(self.alpha, self.beta, "the witness condition")
        if self.psi_q == 0:
            raise ValueError(
                "psi(q) must be nonzero (psi(q) = 0 is the absorbing case, not supported)"
            )


@dataclass(frozen=True)
class EndVerdict:
    """Conservation verdict for one end.

    `leak_coefficient` is Im(alpha/beta) (0 for Dirichlet): the boundary
    current there is -|psi|^2 * leak_coefficient at the right end and
    +|psi|^2 * leak_coefficient at the left end (outflow positive).
    """

    conserving: bool
    dirichlet: bool
    leak_coefficient: float


@dataclass(frozen=True)
class ConservationReport:
    end0: EndVerdict
    end1: EndVerdict

    @property
    def conserving(self):
        return self.end0.conserving and self.end1.conserving


def _end_verdict(alpha, beta):
    if beta == 0:
        return EndVerdict(conserving=True, dirichlet=True, leak_coefficient=0.0)
    ratio = alpha / beta
    im = float(np.imag(ratio))
    return EndVerdict(conserving=abs(im) <= 1e-12, dirichlet=False, leak_coefficient=im)


def is_probability_conserving(bc):
    """Per-end verdict: conserving iff Dirichlet or |Im(alpha/beta)| <= 1e-12.

    A conserving end forces j(end) = 0 for every wavefunction satisfying the
    condition, and the condition is conjugation invariant there (real
    ratio), so the end is compatible with time reversal.
    """
    return ConservationReport(
        end0=_end_verdict(bc.alpha0, bc.beta0),
        end1=_end_verdict(bc.alpha1, bc.beta1),
    )


@dataclass(frozen=True)
class BethePeierlsReport:
    """Extrapolated residual of lim_{r->0} (d/dr - gamma)(r psi)."""

    residual: complex
    passed: bool
    conjugate_passed: bool


def bethe_peierls_check(gamma, radii, values, tol=1e-8):
    """Check the point-interaction condition from radial samples of psi.

    Fits f(r) = r*psi(r) on the given strictly decreasing radii with a low
    degree polynomial and reports the extrapolated residual f'(0) - gamma*f(0).
    The conjugate samples are checked with the same (real) gamma, which must
    succeed exactly when the original does: point interactions with real
    strength are time reversal invariant.
    """
    gamma = float(gamma)
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=complex)
    if radii.size != values.size:
        raise ValueError("radii and values must have equal length")
    if radii.size < 3 or np.any(np.diff(radii) >= 0) or np.any(radii <= 0):
        raise ValueError("radii must be strictly decreasing, positive, length >= 3")
    f = radii * values
    deg = min(4, radii.size - 1)
    coeffs = np.polyfit(radii, f, deg)
    if not np.all(np.isfinite(coeffs)):
        raise ArithmeticError("polynomial extrapolation failed")
    f0, df0 = coeffs[-1], coeffs[-2]
    residual = df0 - gamma * f0
    conj_coeffs = np.polyfit(radii, np.conj(f), deg)
    conj_residual = conj_coeffs[-2] - gamma * conj_coeffs[-1]
    scale = max(1.0, abs(gamma)) * max(1.0, abs(f0))
    return BethePeierlsReport(
        residual=complex(residual),
        passed=bool(abs(residual) <= tol * scale),
        conjugate_passed=bool(abs(conj_residual) <= tol * scale),
    )


@dataclass(frozen=True)
class DiscreteGroundReport:
    """Finite-difference circle ground state versus the analytic one, whose
    current is theta."""

    eigenvalue: float
    continuum_energy: float
    energy_rel_error: float
    current: float | None
    continuum_current: float
    current_rel_error: float | None


def discrete_periodic_ground(theta, n_grid=512):
    """Ground state of the phase-shifted finite-difference ring versus e^{i theta x}.

    The ring is the second difference on n_grid >= 3 nodes x_j = j*h,
    h = 1/n_grid, whose wraparound bonds carry e^{+/- i theta}.  The twisted
    translation commutes with it, so its eigenvectors are the sampled plane
    waves e^{ikx}, k = theta + 2*pi*n for n_grid consecutive n, with
    eigenvalues (2 / h^2) sin^2(k h / 2).  The lowest one, at k = theta,
    approaches theta^2 / 2 at second order in h.  The current of the
    normalized ground wave, taken with the phase-aware central difference
    across the wrap, is the constant sin(theta h) / h; it is reported as
    None when the ground level is degenerate (theta = pi, where k = +/-pi
    tie and the current within the eigenspace is not determined).
    """
    if not (-np.pi < theta <= np.pi):
        raise ValueError("theta must lie in (-pi, pi]")
    if n_grid < 3:
        raise ValueError("the ring needs at least 3 grid points")
    h = 1.0 / n_grid
    k = theta + 2.0 * np.pi * (np.arange(n_grid) - n_grid // 2)
    # the sin^2 form keeps the digits that 1 - cos(k h) loses to cancellation
    evals = np.sort(2.0 / h**2 * np.sin(k * h / 2.0) ** 2)
    e0 = float(evals[0])
    econt = theta**2 / 2.0
    scale = 0.5
    # relative to the analytic energy; theta = 0 falls back to the unit scale
    rel = abs(e0 - econt) / (abs(econt) if econt != 0 else scale)
    gap = float(evals[1] - evals[0])
    current = None
    current_rel = None
    if gap > 1e-8 * scale:
        current = float(np.sin(theta * h) / h)
        current_rel = abs(current - theta) / max(abs(theta), 1e-300)
    return DiscreteGroundReport(
        eigenvalue=e0,
        continuum_energy=econt,
        energy_rel_error=float(rel),
        current=current,
        continuum_current=theta,
        current_rel_error=current_rel,
    )


def periodic_spectrum(theta, n_range=3):
    """Plane-wave levels (k, E) of the phase-shifted circle, sorted by energy.

    k = theta + 2*pi*n for n in -n_range..n_range, E = k^2 / 2.
    The ground state sits at k = theta; `discrete_periodic_ground` gives its
    finite-difference counterpart.
    """
    if not (-np.pi < theta <= np.pi):
        raise ValueError("theta must lie in (-pi, pi]")
    levels = []
    for n in range(-int(n_range), int(n_range) + 1):
        k = theta + 2.0 * np.pi * n
        levels.append((k, k**2 / 2.0))
    levels.sort(key=lambda ke: ke[1])
    return levels


@dataclass(frozen=True)
class PeriodicVerdict:
    """Time-symmetry verdict for the phase-shifted circle."""

    symmetric: bool
    theta: float
    distance_to_pi_multiple: float


def symmetry_verdict_periodic(theta):
    """Symmetric iff theta is an integer multiple of pi (within 1e-12).

    Conjugation maps the theta model to the -theta model, which coincides with
    the original exactly on the lattice pi*Z.
    """
    d = np.mod(theta, np.pi)
    dist = float(min(d, np.pi - d))
    return PeriodicVerdict(symmetric=dist <= 1e-12, theta=float(theta), distance_to_pi_multiple=dist)


@dataclass(frozen=True)
class EmissionWitness:
    """Boundary data (u, v) = (psi(q'), d/dn psi(q')) realizing each current sign."""

    positive: tuple
    negative: tuple
    current_positive: float
    current_negative: float


def emission_witness(w):
    """Construct boundary values of both current signs for a local condition.

    The condition alpha*u + beta*v = psi(q) always admits solutions with
    normal current of either sign.  For beta = 0, u is forced and v is free:
    v = +/- i*u gives current +/- |u|^2.  For beta != 0 write
    psi(q)/beta = s*e^{i chi} and pick u = r*e^{i phi} with phi = chi -/+ pi/2
    and r = s / (2*(1 + |alpha/beta|)); then the current
    r*s*sin(chi - phi) - r^2*Im(alpha/beta) has the sign selected
    by phi, and |alpha*u/beta| < s/2 keeps a large real ratio from drowning it
    in rounding.  Both pairs are verified against the condition (1e-14
    relative) and their current signs before returning; a failure raises
    ArithmeticError.  Inputs whose current under- or overflows (zero or not
    finite) raise ValueError.
    """
    alpha, beta, psi_q = w.alpha, w.beta, w.psi_q
    if beta == 0:
        u = psi_q / alpha
        pairs = {"positive": (u, 1j * u), "negative": (u, -1j * u)}
    else:
        ratio = psi_q / beta
        s = abs(ratio)
        chi = np.angle(ratio)
        r = s / (2.0 * (1.0 + abs(alpha / beta)))
        pairs = {}
        for label, sign in (("positive", 1.0), ("negative", -1.0)):
            u = r * np.exp(1j * (chi - sign * np.pi / 2.0))
            pairs[label] = (u, (psi_q - alpha * u) / beta)
    currents = {}
    for label, (u, v) in pairs.items():
        with np.errstate(all="ignore"):  # a current out of range is rejected next
            j = float(np.imag(np.conj(u) * v))
        if not np.isfinite(j) or j == 0:
            raise ValueError(f"the witness current is {j}: alpha, beta and psi(q) are out of range")
        residual = abs(alpha * u + beta * v - psi_q)
        if residual > 1e-14 * max(abs(psi_q), abs(alpha * u), abs(beta * v)):
            raise ArithmeticError("witness violates the boundary condition")
        if (j > 0) != (label == "positive"):
            raise ArithmeticError("witness current has the wrong sign")
        currents[label] = j
    return EmissionWitness(
        positive=pairs["positive"],
        negative=pairs["negative"],
        current_positive=currents["positive"],
        current_negative=currents["negative"],
    )


@dataclass(frozen=True)
class RobinEvolution:
    """Crank-Nicolson trajectory of a packet in a Robin-bounded box."""

    grid: np.ndarray
    times: np.ndarray
    norms: np.ndarray
    end0_density: np.ndarray
    end1_density: np.ndarray
    psi_final: np.ndarray


def _build_robin_tridiag(bc, n_grid):
    """The Hamiltonian's diagonal, upper and lower bands on the active nodes,
    the active-node mask and the grid spacing.

    With a ghost point eliminated through alpha*psi + beta*psi' = 0 the end
    row of the second-difference operator becomes
    2c*(1 -/+ h*alpha/beta)*psi_end - 2c*psi_neighbor (minus at end 0, plus at
    end 1).  Dirichlet ends (beta = 0) simply drop the end node.
    """
    h = 1.0 / (n_grid - 1)
    c = 1.0 / (2.0 * h**2)
    ends = ((0, -1.0, bc.alpha0, bc.beta0), (-1, 1.0, bc.alpha1, bc.beta1))
    active = np.ones(n_grid, dtype=bool)
    for end, _, _, beta in ends:
        active[end] = beta != 0
    na = int(active.sum())
    if na < 3:
        raise ValueError("the grid needs at least 3 nodes besides its Dirichlet ends")
    diag = np.full(na, 2.0 * c, dtype=complex)
    up = np.full(na - 1, -c, dtype=complex)
    lo = np.full(na - 1, -c, dtype=complex)
    # an end's coupling to its neighbour is up[0] at end 0 and lo[-1] at end 1
    for (end, sign, alpha, beta), band in zip(ends, (up, lo)):
        if beta != 0:
            diag[end] = 2.0 * c * (1.0 + sign * h * alpha / beta)
            band[end] = -2.0 * c
    return diag, up, lo, active, h


# steps of `evolve_robin`, whatever t_final
_ROBIN_STEPS = 2000
# steps of `evolve_robin` recorded per block of full-grid rows: 256 kB at
# grid 512; with one solve a step, 128 rows ran no faster (30-37 ms a
# leak check either way) and tripled the traced peak to 2.3 MB
_ROBIN_BLOCK_ROWS = 32


def evolve_robin(bc, psi0, t_final, n_grid=512):
    """Evolve a packet under Robin conditions with Crank-Nicolson stepping.

    `psi0` is a callable on x or an array of n_grid samples on the uniform
    grid over [0, 1].  Dirichlet end values are clamped to zero.  The
    implicit midpoint scheme is exactly norm preserving for conserving
    conditions and tracks the boundary leak for complex ratios.  It always
    takes 2000 steps of dt = t_final/2000, each one tridiagonal solve against
    a matrix factored once, about 15 us at grid 512 on a 2-CPU Xeon, so a
    call takes about 30 ms whatever t_final.  Returns times, box norms
    (trapezoid rule) and the squared end densities alongside the final state.
    """
    if not 0.0 < t_final < np.inf:
        raise ValueError("t_final must be positive and finite")
    dt = t_final / _ROBIN_STEPS
    grid = np.linspace(0.0, 1.0, n_grid)
    psi = psi0(grid).astype(complex) if callable(psi0) else np.asarray(psi0, dtype=complex).copy()
    if psi.shape != grid.shape:
        raise ValueError("psi0 must provide one value per grid node")
    diag, up, lo, active, h = _build_robin_tridiag(bc, n_grid)
    psi[~active] = 0.0
    z = 1j * dt / 2.0
    # Crank-Nicolson, (I + zH) psi_next = (I - zH) psi, in its Cayley form
    # psi_next = 2 y - psi with (I + zH) y = psi: the tridiagonal I + zH is
    # LU-factored once (LAPACK gttrf) and solved once per step (gttrs)
    # an extreme Robin ratio makes the bands non-finite, which is checked next
    with np.errstate(over="ignore", invalid="ignore"):
        bands = (z * lo, 1.0 + z * diag, z * up)
    if not (np.isfinite(psi).all() and all(np.isfinite(b).all() for b in bands)):
        raise ValueError("the packet and the Robin ratios must give finite values")
    *lu, info = zgttrf(*bands)
    if info > 0:
        raise LinAlgError("singular matrix")
    times = np.arange(_ROBIN_STEPS + 1) * dt
    norms = np.empty(_ROBIN_STEPS + 1)
    d0 = np.empty(_ROBIN_STEPS + 1)
    d1 = np.empty(_ROBIN_STEPS + 1)
    # trapezoid weights make the discrete operator self-adjoint for real ratios
    wts = np.full(n_grid, h)
    wts[0] = wts[-1] = h / 2.0

    def record(k, full):
        # box norms and end densities of the full-grid rows of steps k, k+1, ...
        sq = np.abs(full) ** 2
        norms[k : k + len(sq)] = np.sum(wts * sq, axis=1)
        d0[k : k + len(sq)], d1[k : k + len(sq)] = sq[:, 0], sq[:, -1]

    record(0, psi[None])
    # the active nodes are the grid less its Dirichlet ends; each step is
    # written as a full-grid row into a block whose Dirichlet columns stay 0,
    # and a block is recorded at once
    first = 0 if active[0] else 1
    rows = np.zeros((_ROBIN_BLOCK_ROWS, n_grid), dtype=complex)
    inner = rows[:, first : first + diag.size]
    act = psi[active]
    for k0 in range(0, _ROBIN_STEPS, _ROBIN_BLOCK_ROWS):
        block = rows[: _ROBIN_STEPS - k0]
        for out in inner[: len(block)]:
            y = zgttrs(*lu, act)[0]
            act = np.subtract(2.0 * y, act, out=out)
        record(k0 + 1, block)
    return RobinEvolution(
        grid=grid,
        times=times,
        norms=norms,
        end0_density=d0,
        end1_density=d1,
        psi_final=block[-1].copy(),
    )


@dataclass(frozen=True)
class LeakReport:
    """Measured outward boundary current versus the Robin prediction.

    Positive values mean probability leaves the box through the tested end
    (the norm decays); the prediction is -|psi(1)|^2 Im(alpha1/beta1)
    at the right end and +|psi(0)|^2 Im(alpha0/beta0) at the left.
    times and norms are the packet's evolution the measurement was read from.
    """

    end: int
    measured: float
    predicted: float
    rel_error: float
    passed: bool
    sample_time: float
    times: np.ndarray
    norms: np.ndarray


def robin_leak_check(bc, end=1, n_grid=512, tol=0.1):
    """Quantify the boundary leak of a non-conserving end against its formula.

    A smooth packet is evolved to t = 0.3 with Crank-Nicolson; at the time
    of maximal boundary density (after an initial settling window) the
    outward current through the tested end (0 or 1), measured as
    -d(norm)/dt, is compared with the Robin prediction evaluated at the
    instantaneous boundary density.  The opposite end must conserve
    probability so the whole norm change is attributed to the tested end.
    """
    if end not in (0, 1):
        raise ValueError(f"the tested end must be 0 or 1, got {end!r}")
    verdicts = is_probability_conserving(bc)
    opposite = verdicts.end0 if end == 1 else verdicts.end1
    if not opposite.conserving:
        raise ValueError("the opposite end must conserve probability for a clean leak test")

    def packet(x):
        return np.exp(-((x - 0.5) ** 2) / (2 * 0.12**2))

    ev = evolve_robin(bc, packet, 0.3, n_grid=n_grid)
    dens = ev.end1_density if end == 1 else ev.end0_density
    coef = (verdicts.end1 if end == 1 else verdicts.end0).leak_coefficient
    # the window skips a settling tenth at each end, so the sample k has
    # neighbours on both sides
    settle = ev.times.size // 10
    k = settle + int(np.argmax(dens[settle : ev.times.size - settle]))
    dtv = ev.times[1] - ev.times[0]
    measured = -(ev.norms[k + 1] - ev.norms[k - 1]) / (2.0 * dtv)
    sign = -1.0 if end == 1 else 1.0
    predicted = sign * dens[k] * coef
    rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return LeakReport(
        end=end,
        measured=float(measured),
        predicted=float(predicted),
        rel_error=float(rel),
        passed=bool(rel <= tol),
        sample_time=float(ev.times[k]),
        times=ev.times,
        norms=ev.norms,
    )
