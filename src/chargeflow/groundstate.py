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
nonzero probability current even though it is (the one-boson shadow of) a
ground state; the closed-form current implemented here is cross-checked
against a finite-difference evaluation of (hbar/m) Im[conj(psi1) grad psi1].

Source labels in all public signatures are 1-based.
"""

import warnings
from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import exp1

from .model import ChargeSystem, Configuration

__all__ = [
    "GroundState",
    "NearNodeError",
    "ground_state",
    "psi1",
    "psi1_gradient",
    "psi_min",
    "current_closed_form",
    "current_numeric",
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


class NearNodeError(ValueError):
    """Velocity requested at a point where |psi1| underflows."""


def _alpha(system):
    return np.sqrt(2.0 * system.m * system.E0) / system.hbar


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
    a = _alpha(system)
    return np.sum(np.conj(system.charges) * np.exp(-a * r) / r, axis=-1)


def psi1_gradient(system, y):
    """psi1 and its analytic gradient, vectorized like `psi1`.

    grad psi1 = sum_j conj(g_j) * (-(alpha + 1/r_j)) * exp(-alpha r_j)/r_j * e_j
    with e_j the unit vector from x_j towards y.
    """
    d, r = _source_displacements(system, y)
    a = _alpha(system)
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
    a = _alpha(system)
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
    w = _norm_integral_closed(system)
    lam = (system.m / (2.0 * np.pi * system.hbar**2)) ** 2 * w
    return GroundState(
        system=system,
        alpha=_alpha(system),
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


def current_closed_form(system, y):
    """Probability current of psi1 in closed form.

    j(y) = (hbar/m) sum_{i != j} Im[conj(g_i) g_j] * u_i u_j * (alpha + 1/r_j) * e_j
    where u_j = exp(-alpha r_j)/r_j and e_j = (y - x_j)/r_j.  Of the two
    possible unit-vector attachments in this double sum, the one tying e_j to
    the radial factor (alpha + 1/r_j) agrees with the finite-difference
    evaluation of (hbar/m) Im[conj(psi1) grad psi1]; a regression test against
    `current_numeric` freezes that reading.
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    d, r = _source_displacements(system, y.reshape(-1, 3))
    a = _alpha(system)
    u = np.exp(-a * r) / r
    e = d / r[..., None]
    g = system.charges
    out = np.zeros((r.shape[0], 3))
    for i in range(system.n_sources):
        for j in range(system.n_sources):
            if i == j:
                continue
            w = np.imag(np.conj(g[i]) * g[j]) * u[:, i] * u[:, j] * (a + 1.0 / r[:, j])
            out += w[:, None] * e[:, j, :]
    return (system.hbar / system.m * out).reshape(shape)


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


def velocity(system, y):
    """Bohmian velocity field current/|psi1|^2.

    Invariant under a global phase rotation of the couplings.  Points where
    |psi1|^2 underflows (within 1e-300 of zero on the natural charge scale)
    raise NearNodeError.
    """
    val = np.asarray(psi1(system, y))
    dens = np.abs(val) ** 2
    scale = float(np.max(np.abs(system.charges)) * _alpha(system)) ** 2
    if np.any(dens < 1e-300 * max(scale, 1.0)):
        raise NearNodeError("velocity requested at a near-node of psi1")
    return current_closed_form(system, y) / dens[..., None]


def _advance(system, field, pts, span, eps_absorb, max_rounds=20000):
    """Advance points by `span` (scalar or per-row) along field(system, pts).

    The one integrator of every path through the flow: classical RK4 with
    per-point adaptive substepping.  Each substep moves a point by at most a
    quarter of its current distance to the nearest source (floored at a
    quarter of the absorption radius), so a point cannot cross the
    absorption ball undetected.  Returns (positions, absorbed, left):
    absorbed[k] is the 0-based source whose ball row k entered, or -1, and
    left[k] the part of its span not travelled, so an absorbed row made
    contact at span - left.  A row still short of its span when the round
    budget runs out keeps absorbed = -1 and left > 1e-15.
    """
    K = pts.shape[0]
    X = system.positions
    out = pts.copy()
    remaining = np.broadcast_to(np.asarray(span, dtype=float), (K,)).copy()
    absorbed = np.full(K, -1, dtype=int)
    active = remaining > 0.0
    for _ in range(max_rounds):
        act = np.flatnonzero(active)
        if act.size == 0:
            return out, absorbed, remaining
        p = out[act]
        k1 = field(system, p)
        speed = np.linalg.norm(k1, axis=1)
        d = np.min(np.linalg.norm(p[:, None, :] - X[None, :, :], axis=-1), axis=1)
        target = np.maximum(0.25 * d, 0.25 * eps_absorb)
        h = np.minimum(remaining[act], target / np.maximum(speed, 1e-300))[:, None]
        k2 = field(system, p + 0.5 * h * k1)
        k3 = field(system, p + 0.5 * h * k2)
        k4 = field(system, p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[act] = p
        remaining[act] -= h[:, 0]
        dd = np.linalg.norm(p[:, None, :] - X[None, :, :], axis=-1)
        nearest = np.argmin(dd, axis=1)
        hit = dd[np.arange(act.size), nearest] < eps_absorb
        absorbed[act[hit]] = nearest[hit]
        active[act] = ~hit & (remaining[act] > 1e-15)
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
    a = _alpha(system)
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
    return float(system.m / (np.pi * system.hbar**2) * (self_term - pair_term))


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
    kappa = system.m / (np.pi * system.hbar**2) * float(
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
        d = 1.0 / _alpha(system)
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


def _sphere_nodes(n_polar=24, n_azimuth=48):
    """Gauss-Legendre x trapezoid product nodes and weights on the unit sphere.

    Weights sum to 4*pi; spectrally accurate for smooth integrands.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_polar)
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


def verify_eigen_vacuum(gs, radii=None, tol=1e-6, n_polar=24, n_azimuth=48):
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
    omega, w = _sphere_nodes(n_polar, n_azimuth)

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
    n = np.linalg.norm(j, axis=-1, keepdims=True)
    return np.divide(j, n, out=np.zeros_like(j), where=n > 0.0)


def streamlines(system, seeds, eps_absorb=None, max_arc=None, domain_radius=None):
    """Integrate integral curves of the current direction field.

    The curves are parametrized by arc length (dy/ds = j/|j|), which traces
    the same geometric paths as Bohmian motion dy/dt = v(y) since
    v = j/|psi1|^2 and |psi1|^2 > 0.  All seeds advance together through
    `_advance` in arc-length chunks of a quarter of the smallest source
    spacing (of 1/alpha for one source), with one vertex per chunk end.  Each curve terminates on source contact
    (within eps_absorb, the last vertex being the contact point), on leaving
    the ball of domain_radius about the origin (the last vertex being the
    first chunk end outside), or when the arc budget max_arc is exhausted;
    seeds at stationary points (symmetric charges) return a degenerate
    zero-length polyline.
    """
    a = _alpha(system)
    spacing = system.min_source_spacing()
    scale = spacing if spacing is not None else 1.0 / a
    if eps_absorb is None:
        eps_absorb = 1e-4 * scale
    if max_arc is None:
        max_arc = max(100.0 * scale, 60.0 / a)
    extent = float(np.max(np.linalg.norm(system.positions, axis=1)))
    if domain_radius is None:
        domain_radius = extent + 40.0 / a

    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    points = [[seed] for seed in seeds]
    arcs = [[0.0] for _ in seeds]
    termination = ["stationary"] * len(seeds)
    source = [None] * len(seeds)
    pos = seeds.copy()
    live = np.flatnonzero(np.linalg.norm(current_closed_form(system, seeds), axis=1) > 0.0)
    s = 0.0
    while live.size:
        s_next = min(s + 0.25 * scale, max_arc)
        pos[live], hit, left = _advance(system, _unit_current, pos[live], s_next - s, eps_absorb)
        outside = np.linalg.norm(pos[live], axis=1) > domain_radius
        for k, row in enumerate(live):
            points[row].append(pos[row].copy())
            if hit[k] >= 0:
                arcs[row].append(s_next - left[k])
                termination[row], source[row] = "source_hit", int(hit[k]) + 1
                continue
            arcs[row].append(s_next)
            if outside[k]:
                termination[row] = "domain_exit"
            elif s_next == max_arc:
                termination[row] = "arc_budget"
        live = live[(hit < 0) & ~outside & (s_next < max_arc)]
        s = s_next
    return [
        Streamline(np.array(p), np.array(arc), term, src)
        for p, arc, term, src in zip(points, arcs, termination, source)
    ]


def source_flux(system, source, radius, n_polar=24, n_azimuth=48):
    """Net outward probability flux of the psi1 current through a sphere.

    Sphere of given radius centered on the 1-based `source`; as radius -> 0
    this converges to (hbar/m) * 4*pi * sum_{i != j} Im[conj(g_i) g_j]
    exp(-alpha r_ij)/r_ij, the rate at which psi1-probability is created (>0)
    or absorbed (<0) at the source.
    """
    if not (1 <= source <= system.n_sources):
        raise IndexError("source label out of range (labels are 1-based)")
    omega, w = _sphere_nodes(n_polar, n_azimuth)
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


def _radial_density_terms(system, center):
    """Terms of dG/ds for the radial distance CDF about a source.

    G(r) = integral over the ball of radius r around the center of |psi1|^2.
    Expanding |psi1|^2 into pair terms and integrating each over the sphere
    of radius s around the center c = x_c gives, with R the distance from c
    to the relevant source and u = exp(-alpha d)/d:

      center-center: |g_c|^2 * 4*pi * exp(-2 alpha s)
      other-other (same source at distance R):
          |g_k|^2 * (2*pi*s/R) * (E1(2 alpha |s-R|) - E1(2 alpha (s+R)))
      center-other: 2 Re(conj(g_c) g_k) * (2*pi/(R*alpha)) * exp(-alpha s)
          * (exp(-alpha |s-R|) - exp(-alpha (s+R)))
      other-other (two distinct non-center sources): numeric sphere quadrature.
    """
    a = _alpha(system)
    g = system.charges
    c = center - 1
    xc = system.positions[c]
    terms = []
    terms.append(lambda s: np.abs(g[c]) ** 2 * 4.0 * np.pi * np.exp(-2.0 * a * s))
    others = [k for k in range(system.n_sources) if k != c]
    for k in others:
        R = float(np.linalg.norm(system.positions[k] - xc))
        gk2 = abs(g[k]) ** 2
        coef = 2.0 * np.real(np.conj(g[c]) * g[k])

        def other_sq(s, R=R, gk2=gk2):
            lo = np.abs(s - R)
            hi = s + R
            with np.errstate(divide="ignore"):
                val = exp1(2.0 * a * lo) - exp1(2.0 * a * hi)
            return gk2 * (2.0 * np.pi * s / R) * val

        def cross(s, R=R, coef=coef):
            lo = np.abs(s - R)
            hi = s + R
            return (
                coef
                * (2.0 * np.pi / (R * a))
                * np.exp(-a * s)
                * (np.exp(-a * lo) - np.exp(-a * hi))
            )

        terms.append(other_sq)
        terms.append(cross)
    if len(others) > 1:
        omega, w = _sphere_nodes(24, 48)

        def offcenter_cross(s):
            pts = xc + np.atleast_1d(s)[:, None, None] * omega  # (ns, nq, 3)
            total = np.zeros(np.atleast_1d(s).shape)
            for ii in range(len(others)):
                for jj in range(ii + 1, len(others)):
                    ki, kj = others[ii], others[jj]
                    di = np.linalg.norm(pts - system.positions[ki], axis=-1)
                    dj = np.linalg.norm(pts - system.positions[kj], axis=-1)
                    ui = np.exp(-a * di) / di
                    uj = np.exp(-a * dj) / dj
                    coef = 2.0 * np.real(np.conj(g[ki]) * g[kj])
                    total += coef * np.sum(ui * uj * w, axis=-1)
            return float(total[0]) * s**2 if np.isscalar(s) else total * s**2

        terms.append(offcenter_cross)
    return terms


def radial_distance_cdf(system, center, r_values):
    """CDF of the distance to the 1-based `center` source under |psi1|^2.

    Semi-analytic: the shell density decomposes into closed-form pieces (plus
    a numeric sphere quadrature only when two non-center sources exist).  The
    requested radii are sorted and merged with the source distances, where
    the shell density has a kink; one adaptive quadrature per gap between
    consecutive nodes and a cumulative sum give every value in one pass.
    Values are normalized by the closed-form integral of |psi1|^2, and +inf
    maps to exactly 1.  Negative or NaN radii raise ValueError.  A scalar
    radius returns a float, anything else an array of the input's shape.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    if np.any(np.isnan(r) | (r < 0.0)):
        raise ValueError("radii must be nonnegative numbers")
    finite = np.isfinite(r)
    radii, where = np.unique(r[finite], return_inverse=True)
    xc = system.positions[center - 1]
    kinks = np.linalg.norm(np.delete(system.positions, center - 1, axis=0) - xc, axis=1)
    nodes = np.union1d(np.concatenate([[0.0], radii]), kinks[kinks < radii.max(initial=0.0)])
    terms = _radial_density_terms(system, center)

    def shell(s):
        return sum(t(s) for t in terms)

    gaps = [integrate.quad(shell, lo, hi, limit=200)[0] for lo, hi in zip(nodes[:-1], nodes[1:])]
    cumulative = np.concatenate([[0.0], np.cumsum(gaps)]) / _norm_integral_closed(system)
    out = np.ones(r.shape)
    out[finite] = cumulative[np.searchsorted(nodes, radii)][where]
    return out if np.ndim(r_values) else float(out[0])


def radial_cdf_interpolator(system, center, r_max, n_grid=512):
    """Monotone interpolant of `radial_distance_cdf` on [0, r_max].

    Suitable as the cdf callable of a Kolmogorov-Smirnov test; clamps to
    [0, 1] and returns the exact tail value beyond r_max.  The grid is
    refined geometrically around each source distance, where the shell
    density has a kink.
    """
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
