"""Closed-form ground state of the particle-creation model and its fields.

For E0 > 0 the model has an explicit ground state whose n-boson component is
a symmetrized product,

    psi_min(y_1..y_n) = Ncal * (-m)^n / ((2*pi*hbar^2)^n * sqrt(n!)) *
                        prod_k psi1(y_k),

built from the single-boson profile

    psi1(y) = sum_j conj(g_j) * exp(-alpha*|y - x_j|) / |y - x_j|,

with decay constant alpha = sqrt(2*m*E0)/hbar.  psi1 solves the stationary
free equation (-hbar^2/(2m) Lap + E0) psi1 = 0 away from the sources, and
the full state satisfies the interior boundary condition

    lim_{r->0} r * psi(y, x_j + r*omega) =
        -(m * conj(g_j) / (2*pi*hbar^2*sqrt(n))) * psi(y)

at every source.  The squared norm of the state is Poisson over sectors with
mean lambda_P = (m/(2*pi*hbar^2))^2 * integral |psi1|^2, positions within a
sector i.i.d. with density |psi1|^2; hence Ncal = exp(-lambda_P/2).

When the coupling phases are neither all equal nor opposite, psi1 carries a
nonzero probability current (hbar/m) Im[conj(psi1) grad psi1] even though it
is (the one-boson shadow of) a ground state; `current_closed_form` evaluates
it in closed form, and the tests cross-check it against finite differences.

Source labels in all public signatures are 1-based.  scipy is imported only
inside the radial-CDF functions, so the field and its streamlines load none.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations, pairwise
from math import lgamma

import numpy as np

from .model import ChargeSystem, Configuration

__all__ = [
    "GroundState",
    "ground_state",
    "psi1",
    "psi1_gradient",
    "psi_min",
    "current_closed_form",
    "velocity",
    "ground_energy",
    "effective_kappa",
    "verify_ibc",
    "verify_eigen_vacuum",
    "streamlines",
    "source_flux",
    "sample_boson_positions",
    "radial_distance_cdf",
    "radial_cdf_interpolator",
]


# RK4 substeps a point may take to cover one span: an `_advance` call, or
# one arc chunk of a streamline
_SUBSTEP_BUDGET = 20000


def _pair_scale(system):
    """m/(pi*hbar^2), the scale of the pair couplings and the ground energy;
    ValueError when it leaves the float range."""
    try:
        scale = system.m / (np.pi * system.hbar**2)
    except (OverflowError, ZeroDivisionError):  # hbar**2 left the float range
        scale = 0.0
    if not 0.0 < scale < np.inf:
        raise ValueError(
            f"m/(pi*hbar^2) leaves the float range at m = {system.m!r}, hbar = {system.hbar!r}"
        )
    return scale


def _positions_of(q):
    if isinstance(q, Configuration):
        return q.positions
    pos = np.asarray(q, dtype=float)
    if pos.size == 0:
        return pos.reshape(0, 3)
    return np.atleast_2d(pos)


def _source_displacements(system, y):
    """Displacements y - x_j with shape (..., N, 3) and distances (..., N)."""
    y = np.asarray(y, dtype=float)
    d = y[..., None, :] - system.positions
    r = np.linalg.norm(d, axis=-1)
    if np.any(r == 0.0):
        raise ValueError("evaluation point coincides with a source")
    return d, r


def psi1(system, y):
    """Single-boson profile sum_j conj(g_j) exp(-alpha r_j)/r_j.

    Vectorized over any leading shape of `y` (last axis length 3).  Near a
    source x_j the value behaves as conj(g_j)/r + O(1); evaluation exactly at
    a source is rejected.
    """
    _, r = _source_displacements(system, y)
    a = system.alpha
    return np.sum(np.conj(system.charges) * np.exp(-a * r) / r, axis=-1)


def psi1_gradient(system, y):
    """psi1 and its analytic gradient, vectorized like `psi1`.

    grad psi1 = sum_j conj(g_j) * (-(alpha + 1/r_j)) * exp(-alpha r_j)/r_j * e_j
    with e_j the unit vector from x_j towards y.
    """
    d, r = _source_displacements(system, y)
    a = system.alpha
    u = np.exp(-a * r) / r
    val = np.sum(np.conj(system.charges) * u, axis=-1)
    coef = np.conj(system.charges) * (-(a + 1.0 / r)) * u / r
    grad = np.sum(coef[..., None] * d, axis=-2)
    return val, grad


@dataclass(frozen=True)
class GroundState:
    """Ground-state data: decay constant, normalization and Poisson rate.

    norm_const is Ncal = exp(-poisson_rate/2); norm_integral is the
    closed-form integral of |psi1|^2 over R^3.
    """

    system: ChargeSystem
    alpha: float
    norm_const: float
    poisson_rate: float
    norm_integral: float


def _norm_integral_closed(system):
    """integral |psi1|^2 d^3y in closed form,

    (2*pi/alpha) * (sum_j |g_j|^2 + 2 sum_{i<j} Re(conj(g_i) g_j) e^{-alpha R_ij}).

    The square expands into pair terms conj(g_i) g_j u_i u_j with
    u_j = exp(-alpha r_j)/r_j; a diagonal term is 4*pi*int_0^inf exp(-2 alpha r) dr
    and a cross term, in prolate spheroidal coordinates around the pair axis,
    2*pi*R*int_1^inf exp(-alpha R xi) dxi with R the source separation.
    """
    a = system.alpha
    g = system.charges
    dist = system.pair_distances()
    total = np.sum(np.abs(g) ** 2)
    for i in range(system.n_sources):
        for j in range(i + 1, system.n_sources):
            total += 2.0 * np.real(np.conj(g[i]) * g[j]) * np.exp(-a * dist[i, j])
    return 2.0 * np.pi / a * total


def ground_state(system):
    """Construct the GroundState (requires E0 > 0 for normalizability).

    The norm integral and hence the Poisson rate use the closed form of
    `_norm_integral_closed`.
    """
    if not system.E0 > 0:
        raise ValueError("E0 must be positive: |psi1|^2 is not integrable otherwise")
    scale = _pair_scale(system)
    # halving m/(pi*hbar^2) is exact, and the float64 power has the bits of
    # the float one but overflows to inf (or to nan, times a w that underflowed);
    # w itself is infinite where 1/alpha leaves the float range
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = _norm_integral_closed(system)
        lam = np.float64(scale / 2.0) ** 2 * w
    if not np.isfinite(lam):
        raise ValueError(
            "the Poisson rate lambda = (m/(2*pi*hbar^2))^2 * int |psi1|^2 leaves the float "
            f"range at m = {system.m!r}, hbar = {system.hbar!r}"
        )
    return GroundState(
        system=system,
        alpha=system.alpha,
        norm_const=float(np.exp(-lam / 2.0)),
        poisson_rate=float(lam),
        norm_integral=float(w),
    )


def psi_min(gs, q):
    """Ground-state amplitude at configuration q (sequence of boson positions).

    Permutation invariant by construction; the empty configuration returns
    Ncal.  Configurations with a boson exactly at a source are rejected.
    """
    pos = _positions_of(q)
    n = pos.shape[0]
    sys_ = gs.system
    pref = gs.norm_const * (-sys_.m) ** n / (
        (2.0 * np.pi * sys_.hbar**2) ** n * np.exp(0.5 * lgamma(n + 1))
    )
    if n == 0:
        return complex(pref)
    return complex(pref * np.prod(psi1(sys_, pos)))


def _flow(system, y):
    """psi1 and its current at points y (any leading shape), in one pass.

    With u_j = exp(-alpha r_j)/r_j and B = system.im_products, the current is
    (hbar/m) sum_j (u @ B)_j (alpha + 1/r_j) u_j/r_j (y - x_j): the pair sum
    of `current_closed_form` taken over its first index first.  B is exactly
    antisymmetric; for real charges it is zero, the terms of that sum can be
    -0.0, and the + 0.0 makes the current +0.0 whatever order they add in.
    """
    d = np.asarray(y, dtype=float)[..., None, :] - system.positions
    r = np.sqrt(np.einsum("...i,...i->...", d, d))
    if (r == 0.0).any():
        raise ValueError("evaluation point coincides with a source")
    a = system.alpha
    u = np.exp(-a * r) / r
    w = (u @ system.im_products) * (a + 1.0 / r) * u / r
    cur = system.hbar_over_m * np.einsum("...n,...ni->...i", w, d) + 0.0
    # psi1 = u @ conj(g) as one real product with the (N, 2) rows (Re, -Im)
    return (u @ system.conj_rows).view(complex)[..., 0], cur


def current_closed_form(system, y):
    """Probability current of psi1 in closed form.

    j(y) = (hbar/m) sum_{i != j} Im[conj(g_i) g_j] * u_i u_j * (alpha + 1/r_j) * e_j
    where u_j = exp(-alpha r_j)/r_j and e_j = (y - x_j)/r_j, evaluated by
    `_flow`.  Of the two possible unit-vector attachments in this double
    sum, the one tying e_j to the radial factor (alpha + 1/r_j) agrees with
    the finite-difference evaluation of (hbar/m) Im[conj(psi1) grad psi1]; a
    regression test against a finite-difference oracle freezes that reading.
    """
    return _flow(system, y)[1]


def velocity(system, y):
    """Bohmian velocity field current/|psi1|^2, the density floored at 1e-300.

    Invariant under a global phase rotation of the couplings.  It never
    raises near a node: trajectories spend vanishing time there, and the
    ensemble driver must not die there.  Real charge vectors give an exactly
    zero current and hence exactly zero velocity.
    """
    val, cur = _flow(system, y)
    return cur / np.maximum(np.abs(val) ** 2, 1e-300)[..., None]


def _rk4_round(system, field, p, remaining, nearest_d, eps_absorb):
    """One RK4 substep of the rows p, each of at most its `remaining` span.

    A substep moves a point by at most a quarter of its distance to the
    nearest source, nearest_d, floored at a quarter of the absorption
    radius, so a point cannot cross the absorption ball undetected.  Every
    quantity is per row: a row's substep does not depend on the others.
    Returns (positions, remaining, nearest_d, absorbed) after the substep,
    absorbed[k] being the 0-based source whose ball row k entered, or -1.
    """
    k1 = field(system, p)
    speed = _row_norms(k1)
    target = np.maximum(0.25 * nearest_d, 0.25 * eps_absorb)
    h = np.minimum(remaining, target / np.maximum(speed, 1e-300))[:, None]
    half = 0.5 * h
    k2 = field(system, p + half * k1)
    k3 = field(system, p + half * k2)
    k4 = field(system, p + h * k3)
    p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    dd = _row_norms(p[:, None, :] - system.positions)
    nearest_d = dd.min(axis=1)
    absorbed = np.where(nearest_d < eps_absorb, dd.argmin(axis=1), -1)
    return p, remaining - h[:, 0], nearest_d, absorbed


def _row_norms(x):
    """Euclidean norms over the last axis: what np.linalg.norm(x, axis=-1)
    computes for real x, without its Python wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _nearest_distance(system, pts):
    return _row_norms(pts[:, None, :] - system.positions).min(axis=1)


def _short_of_span(absorbed, left):
    """Rows neither absorbed nor within rounding of their span's end; a NaN
    span counts as ended."""
    return (absorbed < 0) & (left > 1e-15)


def _advance(system, field, pts, span, eps_absorb, max_rounds=_SUBSTEP_BUDGET):
    """Advance points by `span` (scalar or per-row) along field(system, pts).

    The integrator of the trajectory and the ensemble: classical RK4 with
    per-point adaptive substepping, one `_rk4_round` per round for every
    row still short of its span.  Returns (positions, absorbed, left):
    absorbed[k] is the 0-based source whose ball row k entered, or -1, and
    left[k] the part of its span not travelled, so an absorbed row made
    contact at span - left.  A row still `_short_of_span` when the round
    budget runs out is left there.
    """
    K = pts.shape[0]
    out = pts.copy()
    remaining = np.empty(K)
    remaining[:] = span
    absorbed = np.full(K, -1, dtype=int)
    active = remaining > 0.0
    # nearest-source distance of every row, carried from each round's step end
    nearest_d = _nearest_distance(system, out)
    for _ in range(max_rounds):
        act = active.nonzero()[0]
        if act.size == 0:
            return out, absorbed, remaining
        if act.size == K:
            # every row moves: no gather and scatter
            out, remaining, nearest_d, absorbed = _rk4_round(
                system, field, out, remaining, nearest_d, eps_absorb
            )
            active = _short_of_span(absorbed, remaining)
            continue
        out[act], remaining[act], nearest_d[act], absorbed[act] = _rk4_round(
            system, field, out[act], remaining[act], nearest_d[act], eps_absorb
        )
        active[act] = _short_of_span(absorbed[act], remaining[act])
    warnings.warn("substepping budget exhausted; some points frozen early")
    return out, absorbed, remaining


def ground_energy(system):
    """Ground-state energy

    E_min = (m/(pi*hbar^2)) * ( (sqrt(2 m E0)/(2 hbar)) sum_j |g_j|^2
            - sum_{i<j} Re(conj(g_i) g_j) exp(-sqrt(2 m E0) r_ij / hbar)/r_ij ).

    The pair term is a Yukawa attraction of strength kappa_ij and range
    hbar/sqrt(2 m E0); see `effective_kappa`.
    """
    if not system.E0 > 0:
        raise ValueError("E0 must be positive")
    scale = _pair_scale(system)
    a = system.alpha
    g = system.charges
    dist = system.pair_distances()
    self_term = (np.sqrt(2.0 * system.m * system.E0) / (2.0 * system.hbar)) * np.sum(
        np.abs(g) ** 2
    )
    pair_term = 0.0
    for i in range(system.n_sources):
        for j in range(i + 1, system.n_sources):
            R = dist[i, j]
            pair_term += np.real(np.conj(g[i]) * g[j]) * np.exp(-a * R) / R
    energy = float(scale * (self_term - pair_term))
    if not np.isfinite(energy):
        raise ValueError(
            f"the ground energy leaves the float range at m = {system.m!r}, hbar = {system.hbar!r}"
        )
    return energy


@dataclass(frozen=True)
class KappaResult:
    """Yukawa pair-interaction strength and range between two sources."""

    kappa: float
    interaction_range: float


def effective_kappa(system, i, j):
    """Effective pair coupling kappa_ij = (m/(pi*hbar^2)) Re(conj(g_i) g_j).

    i, j are 1-based source labels, i != j.  The interaction range
    hbar/sqrt(2 m E0) is reported alongside; kappa vanishes exactly for a
    phase gap of pi/2 and is maximal in magnitude at equal or opposite phases.
    """
    n = system.n_sources
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("source labels out of range (labels are 1-based)")
    if i == j:
        raise ValueError("pair interaction needs two distinct sources")
    g = system.charges
    kappa = _pair_scale(system) * float(
        np.real(np.conj(g[i - 1]) * g[j - 1])
    )
    if system.E0 > 0:
        rng = system.hbar / np.sqrt(2.0 * system.m * system.E0)
    else:
        rng = np.inf
    return KappaResult(kappa=kappa, interaction_range=float(rng))


def _extrapolate_to_zero(rs, vals):
    """Neville polynomial extrapolation of vals(r) to r = 0."""
    rs = np.asarray(rs, dtype=float)
    cur = [np.asarray(v) for v in vals]
    n = len(cur)
    if n < 2:
        raise ValueError("extrapolation needs at least two radii")
    for k in range(1, n):
        nxt = []
        for i in range(n - k):
            nxt.append((rs[i] * cur[i + 1] - rs[i + k] * cur[i]) / (rs[i] - rs[i + k]))
        cur = nxt
    return cur[0]


def _default_radii(system, n=7, start_fraction=0.05):
    d = system.min_source_spacing()
    if d is None:
        d = 1.0 / system.alpha
    r0 = start_fraction * d
    return np.array([r0 * 0.5**k for k in range(n)])


@dataclass(frozen=True)
class IBCReport:
    """Result of the interior-boundary-condition check at one source."""

    source: int
    limit: complex
    target: complex
    rel_error: float
    passed: bool
    radii: np.ndarray


def verify_ibc(gs, base_config, source, direction, radii=None, tol=1e-8):
    """Check the interior boundary condition at a source numerically.

    Extrapolates r * psi_min(base_config + extra boson at x_j + r*omega) to
    r -> 0 and compares with -(m conj(g_j)/(2*pi*hbar^2*sqrt(n))) * psi_min of
    the base configuration, n being the sector including the extra boson.
    `source` is a 1-based label, `direction` a (not necessarily unit) vector.
    """
    sys_ = gs.system
    if not (1 <= source <= sys_.n_sources):
        raise IndexError("source label out of range (labels are 1-based)")
    base = _positions_of(base_config)
    omega = np.asarray(direction, dtype=float)
    omega = omega / np.linalg.norm(omega)
    if radii is None:
        radii = _default_radii(sys_)
    radii = np.asarray(radii, dtype=float)
    if radii.size < 3 or np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing with at least 3 entries")
    xj = sys_.positions[source - 1]
    vals = []
    for r in radii:
        cfg = np.vstack([base, xj + r * omega]) if base.size else (xj + r * omega)[None, :]
        vals.append(r * psi_min(gs, cfg))
    limit = complex(_extrapolate_to_zero(radii, vals))
    n_new = base.shape[0] + 1
    target = (
        -(sys_.m * np.conj(sys_.charges[source - 1]))
        / (2.0 * np.pi * sys_.hbar**2 * np.sqrt(n_new))
        * psi_min(gs, base)
    )
    rel = abs(limit - target) / abs(target)
    return IBCReport(
        source=source,
        limit=limit,
        target=complex(target),
        rel_error=float(rel),
        passed=bool(rel <= tol),
        radii=radii,
    )


def _sphere_nodes():
    """Gauss-Legendre x trapezoid product nodes and weights on the unit
    sphere: 24 polar by 48 azimuthal nodes.

    Weights sum to 4*pi; spectrally accurate for smooth integrands.
    """
    n_azimuth = 48
    nodes, wts = np.polynomial.legendre.leggauss(24)
    phis = np.arange(n_azimuth) * 2.0 * np.pi / n_azimuth
    ct = nodes
    st = np.sqrt(1.0 - ct**2)
    omega = np.stack(
        [
            np.outer(st, np.cos(phis)),
            np.outer(st, np.sin(phis)),
            np.outer(ct, np.ones_like(phis)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    w = (np.outer(wts, np.ones_like(phis)) * (2.0 * np.pi / n_azimuth)).reshape(-1)
    return omega, w


@dataclass(frozen=True)
class EigenVacuumReport:
    """Numeric vacuum-sector energy versus the closed-form ground energy."""

    numeric_energy: complex
    closed_form_energy: float
    rel_error: float
    passed: bool
    per_source: np.ndarray


def verify_eigen_vacuum(gs, radii=None, tol=1e-6):
    """Apply the Hamiltonian's vacuum sector to the ground state numerically.

    The vacuum component of H psi_min is
        sum_j g_j * (1/(4*pi)) * integral_{S^2} domega
              lim_{r->0} d/dr [ r * psi^{(1)}(x_j + r*omega) ]
    with psi^{(1)} the one-boson component.  The spherical integral uses a
    Gauss-Legendre x trapezoid product rule, the radial derivative central
    differences on the smooth function r*psi^{(1)}, and the limit Neville
    extrapolation over the radii schedule.  The result must equal
    ground_energy * psi_min(vacuum); imaginary parts only survive at
    rounding level.
    """
    sys_ = gs.system
    if radii is None:
        radii = _default_radii(sys_, n=6, start_fraction=0.08)
    radii = np.asarray(radii, dtype=float)
    omega, w = _sphere_nodes()

    def sector1(pts):
        return (-sys_.m / (2.0 * np.pi * sys_.hbar**2)) * psi1(sys_, pts)

    contributions = np.empty(sys_.n_sources, dtype=complex)
    for j in range(sys_.n_sources):
        xj = sys_.positions[j]
        vals = []
        for r in radii:
            h = r / 8.0
            f_plus = (r + h) * sector1(xj + (r + h) * omega)
            f_minus = (r - h) * sector1(xj + (r - h) * omega)
            deriv = (f_plus - f_minus) / (2.0 * h)
            vals.append(np.sum(deriv * w) / (4.0 * np.pi))
        contributions[j] = sys_.charges[j] * _extrapolate_to_zero(radii, vals)
    numeric = complex(np.sum(contributions))
    closed = ground_energy(sys_)
    rel = abs(numeric - closed) / abs(closed)
    return EigenVacuumReport(
        numeric_energy=numeric,
        closed_form_energy=closed,
        rel_error=float(rel),
        passed=bool(rel <= tol),
        per_source=contributions,
    )


@dataclass(frozen=True)
class Streamline:
    """One integral curve of the normalized current field."""

    points: np.ndarray
    arc_lengths: np.ndarray
    termination: str
    source: int | None = None


def _unit_current(system, pts):
    """Direction field j/|j|, zero where the current vanishes."""
    j = current_closed_form(system, pts)
    n = _row_norms(j)[..., None]
    return np.divide(j, n, out=np.zeros_like(j), where=n > 0.0)


def streamlines(system, seeds, eps_absorb=None, max_arc=None, domain_radius=None):
    """Integrate integral curves of the current direction field.

    The curves are parametrized by arc length (dy/ds = j/|j|), which traces
    the same geometric paths as Bohmian motion dy/dt = v(y) since
    v = j/|psi1|^2 and |psi1|^2 > 0.  Each curve runs through arc-length
    chunks of a quarter of the smallest source spacing (of 1/alpha for one
    source), with one vertex per chunk end.  Every live curve takes one
    `_rk4_round` substep per round, and a curve that ends a chunk starts its
    next one in the same round, so a batch takes as many rounds as its
    longest curve and each curve comes out as it would alone.  Each curve
    terminates on source contact (within eps_absorb, the last vertex being
    the contact point), on leaving the ball of domain_radius about the
    origin (the last vertex being the first chunk end outside), when the arc
    budget max_arc is exhausted, or, as "substep_budget", when a chunk is
    still unfinished after _SUBSTEP_BUDGET substeps (the last vertex and
    arc length being where it stopped); seeds at stationary points
    (symmetric charges) return a degenerate zero-length polyline.
    """
    a = system.alpha
    spacing = system.min_source_spacing()
    extent = float(np.max(np.linalg.norm(system.positions, axis=1)))
    # the defaults that scale with the decay length 1/alpha are infinite at
    # alpha = 0 (E0 = 0) and where 1/alpha leaves the float range
    with np.errstate(divide="ignore", over="ignore"):
        scale = spacing if spacing is not None else 1.0 / a
        if eps_absorb is None:
            eps_absorb = 1e-4 * scale
        if max_arc is None:
            max_arc = max(100.0 * scale, 60.0 / a)
        if domain_radius is None:
            domain_radius = extent + 40.0 / a
    if not max_arc >= 0.0:
        raise ValueError(f"max_arc must be nonnegative, got {max_arc!r}")

    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    n = len(seeds)
    points = [[seed] for seed in seeds]
    arcs = [[0.0] for _ in seeds]
    termination = ["stationary"] * n
    source = [None] * n
    # per curve: position, end of its current chunk and the span left to it,
    # nearest-source distance, absorbing source and substeps in the chunk
    pos = seeds.copy()
    s_next = np.full(n, min(0.25 * scale, max_arc))
    left = s_next.copy()
    nearest_d = _nearest_distance(system, pos)
    hit = np.full(n, -1)
    substeps = np.zeros(n, dtype=int)
    running = np.linalg.norm(current_closed_form(system, seeds), axis=1) > 0.0
    while np.any(running):
        live = np.flatnonzero(running)
        pos[live], left[live], nearest_d[live], hit[live] = _rk4_round(
            system, _unit_current, pos[live], left[live], nearest_d[live], eps_absorb
        )
        substeps[live] += 1
        # the test of `_advance`, so that a NaN span ends the chunk too
        going = _short_of_span(hit[live], left[live])
        end = live[~going | (substeps[live] == _SUBSTEP_BUDGET)]
        # stopped short of the chunk end: by contact or by the substep budget
        short = (hit[end] >= 0) | _short_of_span(hit[end], left[end])
        outside = np.linalg.norm(pos[end], axis=1) > domain_radius
        for row, cut, out in zip(end, short, outside):
            points[row].append(pos[row].copy())
            arcs[row].append(s_next[row] - left[row] if cut else s_next[row])
            if hit[row] >= 0:
                termination[row], source[row] = "source_hit", int(hit[row]) + 1
            elif cut:
                termination[row] = "substep_budget"
            elif out:
                termination[row] = "domain_exit"
            elif s_next[row] == max_arc:
                termination[row] = "arc_budget"
        stop = short | outside | (s_next[end] == max_arc)
        running[end[stop]] = False
        go = end[~stop]
        s = s_next[go]
        s_next[go] = np.minimum(s + 0.25 * scale, max_arc)
        left[go] = s_next[go] - s
        substeps[go] = 0
    return [
        Streamline(np.array(p), np.array(arc), term, src)
        for p, arc, term, src in zip(points, arcs, termination, source)
    ]


def source_flux(system, source, radius):
    """Net outward probability flux of the psi1 current through a sphere.

    Sphere of given radius centered on the 1-based `source`; as radius -> 0
    this converges to (hbar/m) * 4*pi * sum_{i != j} Im[conj(g_i) g_j]
    exp(-alpha r_ij)/r_ij, the rate at which psi1-probability is created (>0)
    or absorbed (<0) at the source.
    """
    if not (1 <= source <= system.n_sources):
        raise IndexError("source label out of range (labels are 1-based)")
    omega, w = _sphere_nodes()
    pts = system.positions[source - 1] + radius * omega
    j = current_closed_form(system, pts)
    return float(np.sum(np.sum(j * omega, axis=-1) * w) * radius**2)


def sample_boson_positions(gs, n, rng):
    """Draw n i.i.d. positions with density |psi1|^2 / integral |psi1|^2.

    Rejection sampling: propose a source with probability proportional to
    |g_j|^2, a radius from Exp(2*alpha), a uniform direction; accept with
    probability |psi1|^2 / (N * sum_j |g_j|^2 u_j^2), which is at most 1 by
    the Cauchy-Schwarz inequality.
    """
    sys_ = gs.system
    a = gs.alpha
    g2 = np.abs(sys_.charges) ** 2
    probs = g2 / g2.sum()
    out = np.empty((n, 3))
    have = 0
    while have < n:
        k = max(64, int(1.5 * (n - have)))
        which = rng.choice(sys_.n_sources, size=k, p=probs)
        r = rng.exponential(1.0 / (2.0 * a), size=k)
        u = rng.normal(size=(k, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        pts = sys_.positions[which] + r[:, None] * u
        d = np.linalg.norm(pts[:, None, :] - sys_.positions, axis=-1)
        ok = np.all(d > 0.0, axis=1)
        pts = pts[ok]
        d = d[ok]
        dens = np.abs(np.sum(np.conj(sys_.charges) * np.exp(-a * d) / d, axis=-1)) ** 2
        bound = sys_.n_sources * np.sum(g2 * np.exp(-2.0 * a * d) / d**2, axis=-1)
        accept = rng.random(pts.shape[0]) * bound < dens
        pts = pts[accept]
        take = min(n - have, pts.shape[0])
        out[have : have + take] = pts[:take]
        have += take
    return out


def _offcenter_shell_density(system, center):
    """dG/ds of the pairs of two distinct non-center sources, or None.

    G(r) is the integral of |psi1|^2 over the ball of radius r about the
    center.  These pairs, present from three sources on, have no closed form
    and take a product quadrature over the sphere of radius s."""
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


def _e1_antiderivatives(t, b):
    """int E1(b t) dt = t E1(b t) - exp(-b t)/b and int t E1(b t) dt =
    t^2 E1(b t)/2 - (b t + 1) exp(-b t)/(2 b^2) (Abramowitz & Stegun 5.1),
    with t E1(b t) and t^2 E1(b t) set to exactly 0 at t = 0."""
    from scipy.special import exp1

    with np.errstate(invalid="ignore"):
        t_e1 = np.where(t > 0.0, t * exp1(b * t), 0.0)
    decay = np.exp(-b * t) / b
    return t_e1 - decay, 0.5 * t * t_e1 - decay * (b * t + 1.0) / (2.0 * b)


def _radial_closed_cdf(system, center, r):
    """G(r) without the off-center pairs, unnormalized.  With R = |x_k - x_c|
    and b = 2 alpha, the shell densities integrate in closed form:
      center-center: |g_c|^2 * 4*pi * exp(-b s) integrates to
          |g_c|^2 (2*pi/alpha) (1 - exp(-b r));
      center-other: 2 Re(conj(g_c) g_k) * (2*pi/(R*alpha)) * exp(-alpha s)
          * (exp(-alpha |s-R|) - exp(-alpha (s+R))) is exp(-alpha R)
          (1 - exp(-b s)) inside R and 2 sinh(alpha R) exp(-b s) beyond;
      other-other (same source): |g_k|^2 * (2*pi*s/R)
          * (E1(b |s-R|) - E1(b (s+R))) integrates, in t = |s - R| and
          t = s + R, through the antiderivatives of E1(b t) and t E1(b t).
    """
    a = system.alpha
    b = 2.0 * a
    g = system.charges
    c = center - 1
    decayed = np.expm1(-b * r)
    total = np.abs(g[c]) ** 2 * (-2.0 * np.pi / a) * decayed
    for k in (k for k in range(system.n_sources) if k != c):
        R = float(np.linalg.norm(system.positions[k] - system.positions[c]))
        inside = np.minimum(r, R)
        beyond = np.maximum(r - R, 0.0)
        cross = np.exp(-a * R) * (inside + (decayed - np.expm1(-b * beyond)) / b)
        total += 2.0 * np.real(np.conj(g[c]) * g[k]) * 2.0 * np.pi / (R * a) * cross
        (i_far, j_far), (i_near, j_near), (i_out, j_out), (i_0, j_0) = (
            _e1_antiderivatives(t, b) for t in (r + R, R - inside, beyond, 0.0)
        )
        same = R * (i_far - i_near + i_out - i_0) - j_far + j_near + j_out - j_0
        total += abs(g[k]) ** 2 * 2.0 * np.pi / R * same
    return total


def radial_distance_cdf(system, center, r_values):
    """CDF of the distance to the 1-based `center` source under |psi1|^2.

    `_radial_closed_cdf` plus, from three sources on, the off-center pairs:
    one adaptive quadrature per gap between the radii merged with the source
    distances (where that density has a kink) and a cumulative sum.  Values
    are normalized by the closed-form integral of |psi1|^2, and +inf maps to
    exactly 1.  Negative or NaN radii raise ValueError.  A scalar radius
    returns a float, anything else an array of the input's shape.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    if np.any(np.isnan(r) | (r < 0.0)):
        raise ValueError("radii must be nonnegative numbers")
    finite = np.isfinite(r)
    total = _radial_closed_cdf(system, center, r[finite])
    density = _offcenter_shell_density(system, center)
    if density is not None:
        from scipy import integrate

        radii, where = np.unique(r[finite], return_inverse=True)
        xc = system.positions[center - 1]
        kinks = np.linalg.norm(np.delete(system.positions, center - 1, axis=0) - xc, axis=1)
        nodes = np.union1d(np.concatenate([[0.0], radii]), kinks[kinks < radii.max(initial=0.0)])
        gaps = [integrate.quad(density, lo, hi, limit=200)[0] for lo, hi in pairwise(nodes)]
        total += np.concatenate([[0.0], np.cumsum(gaps)])[np.searchsorted(nodes, radii)][where]
    out = np.ones(r.shape)
    out[finite] = total / _norm_integral_closed(system)
    return out if np.ndim(r_values) else float(out[0])


def radial_cdf_interpolator(system, center, r_max, n_grid=512):
    """Monotone interpolant of `radial_distance_cdf` on [0, r_max].

    Suitable as the cdf callable of a Kolmogorov-Smirnov test; clamps to
    [0, 1] and returns the exact tail value beyond r_max.  The grid is
    refined geometrically around each source distance, where the shell
    density has a kink.
    """
    from scipy.interpolate import PchipInterpolator

    r_max = float(r_max)
    grid = np.linspace(0.0, r_max, n_grid)
    xc = system.positions[center - 1]
    for k in range(system.n_sources):
        if k == center - 1:
            continue
        R = float(np.linalg.norm(system.positions[k] - xc))
        if R >= r_max:
            continue
        offsets = R * np.geomspace(1e-4, 0.5, 12)
        cluster = np.concatenate([[R], R - offsets, R + offsets])
        grid = np.concatenate([grid, cluster[(cluster > 0) & (cluster < r_max)]])
    grid = np.unique(grid)
    vals = radial_distance_cdf(system, center, grid)
    interp = PchipInterpolator(grid, vals, extrapolate=False)
    tail = float(vals[-1])

    def cdf(r):
        r = np.asarray(r, dtype=float)
        out = np.where(r >= grid[-1], tail, np.nan_to_num(interp(np.clip(r, 0.0, grid[-1]))))
        return np.clip(out, 0.0, 1.0)

    return cdf
