"""Monte Carlo engine for the stationary creation/annihilation process in 3D.

A configuration is a finite set of identical bosons.  Between jumps every
boson drifts along the velocity field of the single-boson profile; new bosons
appear at the sources, at the rates obtained from the r -> 0 limit of the
radial probability flux, in a uniformly random direction; a boson reaching a
source is absorbed.  Run against the stationary state the process keeps the
invariant law: boson number Poisson(lambda_P), positions i.i.d. with density
|psi1|^2 (equivariance), and long-run emission counts at each source balance
the absorption counts at its partners.

The per-source emission rate is the same in every sector n: the amplitude
ratio of consecutive sectors contributes a factor 1/(n+1) to the flux limit,
and the emitted boson can join an unordered n-boson configuration in n+1
ways, so the two factors cancel.  `derive_emission_law` extracts the rate
numerically rather than hard-coding a constant.

Because the stationary state factorizes over bosons, bosons never interact;
the ensemble driver exploits this by time-stepping every boson of every run
in one flat array.  Source labels in public signatures are 1-based.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial.distance import pdist
from scipy.stats import binomtest, chisquare, kstest, poisson

from .groundstate import (
    _default_radii,
    _extrapolate_to_zero,
    psi1_gradient,
    radial_cdf_interpolator,
    sample_boson_positions,
)

__all__ = [
    "EmissionLaw",
    "derive_emission_law",
    "SimulationParams",
    "MoveEvent",
    "EmitEvent",
    "AbsorbEvent",
    "TrajectoryRecord",
    "simulate",
    "EnsembleParams",
    "EnsembleSnapshot",
    "EnsembleResult",
    "run_ensemble",
    "SampleStats",
    "EquivarianceReport",
    "equivariance_test",
    "ReversalTestReport",
    "reversal_test",
    "StartSensitivityReport",
    "emission_start_sensitivity",
]

# six axis and eight diagonal probe directions: cheap, deterministic, and
# spread enough to expose any directional dependence of the flux limit
_PROBE_DIRECTIONS = np.concatenate(
    [
        np.eye(3),
        -np.eye(3),
        np.array(
            [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
        )
        / np.sqrt(3.0),
    ]
)


def _velocity_raw(system, pts):
    """Velocity field current/|psi1|^2 with the density floored near nodes.

    Unlike `velocity` this never raises: trajectories spend vanishing time
    near nodes and the ensemble driver must not die there.  Real charge
    vectors give an exactly zero current and hence exactly zero velocity.
    """
    val, grad = psi1_gradient(system, pts)
    cur = np.imag(np.conj(val)[..., None] * grad)
    dens = np.abs(val) ** 2
    return (system.hbar / system.m) * cur / np.maximum(dens, 1e-300)[..., None]


def _unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _length_scale(system):
    d = system.min_source_spacing()
    if d is None:
        d = system.hbar / np.sqrt(2.0 * system.m * system.E0)
    return d


def _resolve_radii(system, eps_absorb, eps_start):
    """Absorption radius and newborn offset, defaulting to 1e-4 and 1e-3
    times the smallest source spacing."""
    d = _length_scale(system)
    eps_absorb = 1e-4 * d if eps_absorb is None else float(eps_absorb)
    eps_start = 1e-3 * d if eps_start is None else float(eps_start)
    if not 0.0 < eps_absorb < eps_start:
        raise ValueError("need 0 < eps_absorb < eps_start")
    return eps_absorb, eps_start


@dataclass(frozen=True)
class EmissionLaw:
    """Per-source emission rates of the stationary process.

    limits[j] is the r -> 0 limit of Im[conj(F) dF/dr] at source j, with
    F(r) = r * psi1(x_j + r*omega); it is direction independent (the largest
    deviation seen across probe directions is recorded as direction_spread)
    and rates[j] = (m/(pi hbar^3)) * max(0, limits[j]).  The rates carry the
    sector bookkeeping already: they are the same in every sector, and the
    emission direction is uniform because the singular part of psi1 is
    isotropic.
    """

    rates: np.ndarray
    limits: np.ndarray
    direction_spread: float

    def __post_init__(self):
        self.rates.setflags(write=False)
        self.limits.setflags(write=False)

    @property
    def total_rate(self):
        return float(self.rates.sum())


def derive_emission_law(gs, radii=None, directions=None, direction_tol=1e-6):
    """Extract the per-source emission rates from the flux limit.

    For each source and probe direction the smooth radial function
    G(r) = Im[r^2 conj(psi1) d(psi1)/dr] is evaluated on a geometric ladder
    of radii and extrapolated to r = 0 (Neville).  The limits must agree
    across directions to direction_tol (relative); their mean gives the rate.
    Raises RuntimeError when the extrapolation stalls or the limit is
    direction dependent.
    """
    system = gs.system
    radii = _default_radii(system) if radii is None else np.asarray(radii, dtype=float)
    if radii.size < 3:
        raise ValueError("need at least three radii")
    dirs = _PROBE_DIRECTIONS if directions is None else np.asarray(directions, dtype=float)
    ref = float(np.max(np.abs(system.charges)) ** 2) * gs.alpha
    limits = np.empty(system.n_sources)
    spread = 0.0
    for j in range(system.n_sources):
        pts = system.positions[j] + radii[None, :, None] * dirs[:, None, :]
        val, grad = psi1_gradient(system, pts)
        radial = np.einsum("drk,dk->dr", grad, dirs)
        g_of_r = radii[None, :] ** 2 * np.imag(np.conj(val) * radial)
        ext = _extrapolate_to_zero(radii, [g_of_r[:, i] for i in range(radii.size)])
        ext_coarse = _extrapolate_to_zero(
            radii[:-1], [g_of_r[:, i] for i in range(radii.size - 1)]
        )
        scale = max(ref, float(np.max(np.abs(ext))))
        if np.max(np.abs(ext - ext_coarse)) > 1e-8 * scale:
            raise RuntimeError(f"flux-limit extrapolation did not converge at source {j + 1}")
        spread_j = float(np.max(ext) - np.min(ext))
        if spread_j > direction_tol * scale:
            raise RuntimeError(f"flux limit is direction dependent at source {j + 1}")
        spread = max(spread, spread_j)
        limits[j] = float(np.mean(ext))
    # snap limits below the extrapolation resolution to exact zero so that
    # symmetric charge vectors yield exactly rate-free sources
    limits[np.abs(limits) < 1e-10 * ref] = 0.0
    rates = (system.m / (np.pi * system.hbar**3)) * np.maximum(0.0, limits)
    return EmissionLaw(rates=rates, limits=limits, direction_spread=spread)


@dataclass(frozen=True)
class SimulationParams:
    """Controls for a single event-resolved run.

    dt_max caps the integrator step (and thus the path sampling interval);
    eps_absorb and eps_start default as in `_resolve_radii`.
    """

    t_max: float
    dt_max: float = 0.05
    seed: int = 0
    eps_absorb: float = None
    eps_start: float = None

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError("t_max must be positive")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")


@dataclass(frozen=True)
class MoveEvent:
    """Deterministic drift of the listed particles over [t_start, t_end]."""

    t_start: float
    t_end: float
    particles: tuple


@dataclass(frozen=True)
class EmitEvent:
    """A boson (fresh id `particle`) appears at the 1-based `source`."""

    time: float
    source: int
    direction: tuple
    particle: int


@dataclass(frozen=True)
class AbsorbEvent:
    """Particle `particle` reaches the 1-based `source` and is removed."""

    time: float
    source: int
    particle: int


@dataclass(frozen=True)
class TrajectoryRecord:
    """Event history of one run.

    events interleaves Move segments with Emit/Absorb jumps in time order;
    paths maps particle id to a (k, 4) array of (t, x, y, z) vertices sampled
    at the integrator's accepted steps.  failure is None for a clean run, or
    a message when the integrator gave up (the record then ends early, at
    t_final < the requested horizon).
    """

    seed: int
    initial_sector: int
    t_final: float
    events: tuple
    paths: dict
    failure: str = None

    @property
    def final_sector(self):
        emitted = sum(1 for e in self.events if isinstance(e, EmitEvent))
        absorbed = sum(1 for e in self.events if isinstance(e, AbsorbEvent))
        return self.initial_sector + emitted - absorbed


@dataclass
class _Segment:
    t_end: float
    times: np.ndarray
    states: np.ndarray
    absorbed: tuple
    failure: str


def _integrate_segment(system, pos, t0, t1, eps_absorb, dt_max):
    """Drift all bosons over [t0, t1] or up to the first source hit.

    Adaptive RK45 at 1e-8 relative tolerance with one terminal contact event
    per (boson, source) pair.  An absorbed trajectory reaches its source at
    finite speed, and the velocity field kinks there, so the error control
    shrinks accepted steps geometrically into the contact; the event then
    fires with a bracketed root refinement on the step interpolant.  Letting
    the integrator cross the kink instead stalls it in rejected steps.
    """
    X = system.positions
    K = pos.shape[0]
    n_src = X.shape[0]

    def rhs(t, y):
        return _velocity_raw(system, y.reshape(-1, 3)).ravel()

    events = []
    for k in range(K):
        for s in range(n_src):

            def contact(t, y, k=k, s=s):
                rel = y[3 * k : 3 * k + 3] - X[s]
                return float(np.sqrt(rel @ rel)) - eps_absorb

            contact.terminal = True
            contact.direction = -1.0
            events.append(contact)
    sol = solve_ivp(
        rhs,
        (t0, t1),
        pos.ravel(),
        method="RK45",
        rtol=1e-8,
        atol=1e-10,
        max_step=dt_max,
        events=events,
    )
    states = sol.y.T.reshape(-1, K, 3)
    if sol.status == -1:
        return _Segment(float(sol.t[-1]), sol.t.copy(), states, None, str(sol.message))
    absorbed = None
    if sol.status == 1:
        fired = [i for i, te in enumerate(sol.t_events) if te.size]
        absorbed = divmod(fired[0], n_src)
    return _Segment(float(sol.t[-1]), sol.t.copy(), states, absorbed, None)


def simulate(gs, params, initial=None, law=None):
    """Run one event-resolved realization of the stationary process.

    The initial configuration is drawn from the stationary law (Poisson
    sector, i.i.d. |psi1|^2 positions) unless `initial` supplies an (n, 3)
    position array (or an object with a .positions attribute).  Emission
    uses an exponential clock at the total rate of the (constant)
    ground-state law, so every ring of the clock emits; absorbing contacts
    are found by solve_ivp's terminal events.  Output is bit-reproducible
    for a given seed.
    """
    system = gs.system
    X = system.positions
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    if initial is None:
        n0 = int(rng.poisson(gs.poisson_rate))
        pos = sample_boson_positions(gs, n0, rng) if n0 else np.empty((0, 3))
    else:
        pos = np.array(getattr(initial, "positions", initial), dtype=float).reshape(-1, 3)
        n0 = pos.shape[0]
    ids = list(range(n0))
    paths = {pid: [(0.0, *pos[k])] for k, pid in enumerate(ids)}
    events = []
    failure = None
    next_id = n0
    total = law.total_rate
    cum = np.cumsum(law.rates)
    t = 0.0
    # a sampled boson can start inside the absorption ball (probability of
    # order eps_absorb); it is absorbed on the spot
    while ids:
        d = np.linalg.norm(pos - X[:, None, :], axis=-1)
        k = int(np.argmin(np.min(d, axis=0)))
        if np.min(d[:, k]) >= eps_absorb:
            break
        s = int(np.argmin(d[:, k]))
        events.append(AbsorbEvent(time=0.0, source=s + 1, particle=ids[k]))
        ids.pop(k)
        pos = np.delete(pos, k, axis=0)
    while t < params.t_max - 1e-12:
        if total > 0.0:
            t_emit = t + rng.exponential(1.0 / total)
            u_source = rng.random()
        else:
            t_emit = np.inf
        t_stop = min(t_emit, params.t_max)
        if ids:
            seg = _integrate_segment(system, pos, t, t_stop, eps_absorb, params.dt_max)
            for col, pid in enumerate(ids):
                for row in range(1, seg.times.size):
                    paths[pid].append((seg.times[row], *seg.states[row, col]))
            events.append(MoveEvent(t_start=t, t_end=seg.t_end, particles=tuple(ids)))
            pos = seg.states[-1].copy()
            t = seg.t_end
            if seg.failure is not None:
                failure = f"integrator failure at t={t:.6g}: {seg.failure}"
                break
            if seg.absorbed is not None:
                k, s = seg.absorbed
                events.append(AbsorbEvent(time=t, source=s + 1, particle=ids[k]))
                ids.pop(k)
                pos = np.delete(pos, k, axis=0)
                continue  # the pending emission clock is redrawn (memoryless)
        else:
            t = t_stop
        if t_emit <= params.t_max:
            source = int(np.searchsorted(cum, u_source * total, side="right"))
            direction = _unit_vectors(rng, 1)[0]
            born = X[source] + eps_start * direction
            pos = np.vstack([pos, born])
            ids.append(next_id)
            paths[next_id] = [(t, *born)]
            events.append(
                EmitEvent(
                    time=t,
                    source=source + 1,
                    direction=tuple(direction),
                    particle=next_id,
                )
            )
            next_id += 1
    return TrajectoryRecord(
        seed=params.seed,
        initial_sector=n0,
        t_final=t,
        events=tuple(events),
        paths={pid: np.array(rows) for pid, rows in paths.items()},
        failure=failure,
    )


def _advance(system, pts, dt, eps_absorb, max_rounds=20000):
    """Advance bosons by dt (scalar or per-row) along the velocity field.

    Classical RK4 with per-boson adaptive substepping: each substep moves a
    boson by at most a quarter of its current distance to the nearest source
    (floored at a quarter of the absorption radius), so a boson cannot cross
    the absorption ball undetected.  Returns (positions, absorbed) where
    absorbed[k] is the 0-based source index, or -1 for surviving bosons.
    """
    K = pts.shape[0]
    X = system.positions
    out = pts.copy()
    remaining = np.broadcast_to(np.asarray(dt, dtype=float), (K,)).copy()
    absorbed = np.full(K, -1, dtype=int)
    active = remaining > 0.0
    for _ in range(max_rounds):
        act = np.flatnonzero(active)
        if act.size == 0:
            return out, absorbed
        p = out[act]
        k1 = _velocity_raw(system, p)
        speed = np.linalg.norm(k1, axis=1)
        d = np.min(np.linalg.norm(p[:, None, :] - X[None, :, :], axis=-1), axis=1)
        target = np.maximum(0.25 * d, 0.25 * eps_absorb)
        h = np.minimum(remaining[act], target / np.maximum(speed, 1e-300))[:, None]
        k2 = _velocity_raw(system, p + 0.5 * h * k1)
        k3 = _velocity_raw(system, p + 0.5 * h * k2)
        k4 = _velocity_raw(system, p + h * k3)
        p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[act] = p
        remaining[act] -= h[:, 0]
        dd = np.linalg.norm(p[:, None, :] - X[None, :, :], axis=-1)
        nearest = np.argmin(dd, axis=1)
        hit = dd[np.arange(act.size), nearest] < eps_absorb
        absorbed[act[hit]] = nearest[hit]
        active[act] = ~hit & (remaining[act] > 1e-15)
    warnings.warn("substepping budget exhausted; some bosons frozen early")
    return out, absorbed


@dataclass(frozen=True)
class EnsembleParams:
    """Controls for the vectorized synchronous ensemble driver.

    Sample times (and t_max, which defaults to the largest sample time) must
    lie on the dt grid.
    """

    runs: int
    t_max: float = None
    sample_times: tuple = ()
    dt: float = 0.01
    seed: int = 0
    eps_absorb: float = None
    eps_start: float = None

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(
            self, "sample_times", tuple(sorted(float(ts) for ts in self.sample_times))
        )
        if self.t_max is None and not self.sample_times:
            raise ValueError("need t_max or sample_times")
        if self.t_max is not None and self.sample_times and self.sample_times[-1] > self.t_max:
            raise ValueError("sample times exceed t_max")

    @property
    def horizon(self):
        return float(self.t_max) if self.t_max is not None else max(self.sample_times)


@dataclass(frozen=True)
class EnsembleSnapshot:
    """Pooled ensemble state at one sample time."""

    time: float
    sectors: np.ndarray
    positions: np.ndarray
    run_ids: np.ndarray


@dataclass(frozen=True)
class EnsembleResult:
    """Counts and snapshots from an ensemble of independent runs."""

    runs: int
    t_final: float
    dt: float
    seed: int
    eps_absorb: float
    eps_start: float
    emissions: np.ndarray
    absorptions: np.ndarray
    initial_sectors: np.ndarray
    final_sectors: np.ndarray
    snapshots: tuple


def _grid_step(value, dt, what):
    k = int(round(value / dt))
    if abs(k * dt - value) > 1e-9 * max(abs(value), 1.0):
        raise ValueError(f"{what} must lie on the dt grid")
    return k


def run_ensemble(gs, params, law=None):
    """Run `params.runs` independent realizations in one flat array.

    Every run starts in the stationary law; emission clocks are exponential
    at the (constant) total rate and all bosons step synchronously, so the
    whole ensemble advances with a handful of array operations per dt.  The
    bosons born during a step advance from their birth times to the step's
    end in the same `_advance` call as the carried bosons.

    Counting conventions: emissions[j] and absorptions[j] are totals for the
    source labeled j+1; sector bookkeeping is per run.
    """
    system = gs.system
    X = system.positions
    n_src = system.n_sources
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    m_runs = params.runs
    t_max = params.horizon
    n_steps = _grid_step(t_max, params.dt, "t_max")
    snap_steps = {_grid_step(ts, params.dt, "sample times"): ts for ts in params.sample_times}
    sectors = rng.poisson(gs.poisson_rate, size=m_runs)
    total_bosons = int(sectors.sum())
    pos = sample_boson_positions(gs, total_bosons, rng) if total_bosons else np.empty((0, 3))
    run = np.repeat(np.arange(m_runs), sectors)
    initial_sectors = sectors.copy()
    emissions = np.zeros(n_src, dtype=int)
    absorptions = np.zeros(n_src, dtype=int)
    if pos.shape[0]:
        # bosons sampled inside the absorption ball are absorbed on the spot
        d0 = np.linalg.norm(pos[:, None, :] - X[None, :, :], axis=-1)
        nearest = np.argmin(d0, axis=1)
        inside = d0[np.arange(pos.shape[0]), nearest] < eps_absorb
        if inside.any():
            np.add.at(absorptions, nearest[inside], 1)
            np.subtract.at(sectors, run[inside], 1)
            pos, run = pos[~inside], run[~inside]
    total = law.total_rate
    cum = np.cumsum(law.rates)
    next_emit = (
        rng.exponential(1.0 / total, size=m_runs) if total > 0.0 else np.full(m_runs, np.inf)
    )
    snapshots = []
    if 0 in snap_steps:
        snapshots.append(EnsembleSnapshot(0.0, sectors.copy(), pos.copy(), run.copy()))
    for i in range(n_steps):
        t1 = (i + 1) * params.dt
        # births due by t1 (constant rates make every candidate clock fire)
        # join the carried bosons, each advanced from its birth time to t1
        rows, runs, durations = [pos], [run], [np.full(pos.shape[0], params.dt)]
        while total > 0.0:
            due = np.flatnonzero(next_emit <= t1)
            if due.size == 0:
                break
            src = np.searchsorted(cum, rng.random(due.size) * total, side="right")
            np.add.at(emissions, src, 1)
            np.add.at(sectors, due, 1)
            rows.append(X[src] + eps_start * _unit_vectors(rng, due.size))
            runs.append(due)
            durations.append(t1 - next_emit[due])
            next_emit[due] += rng.exponential(1.0 / total, size=due.size)
        pos, run = np.concatenate(rows), np.concatenate(runs)
        if pos.shape[0]:
            pos, hit_src = _advance(system, pos, np.concatenate(durations), eps_absorb)
            hit = hit_src >= 0
            if hit.any():
                np.add.at(absorptions, hit_src[hit], 1)
                np.subtract.at(sectors, run[hit], 1)
                pos, run = pos[~hit], run[~hit]
        if i + 1 in snap_steps:
            snapshots.append(
                EnsembleSnapshot(snap_steps[i + 1], sectors.copy(), pos.copy(), run.copy())
            )
    return EnsembleResult(
        runs=m_runs,
        t_final=n_steps * params.dt,
        dt=params.dt,
        seed=params.seed,
        eps_absorb=eps_absorb,
        eps_start=eps_start,
        emissions=emissions,
        absorptions=absorptions,
        initial_sectors=initial_sectors,
        final_sectors=sectors,
        snapshots=tuple(snapshots),
    )


def _pooled_chisquare(observed, expected, min_expected=5.0):
    """Chi-square p-value with greedy left-to-right pooling of thin bins.

    Bins are merged in order until each pool's expected count reaches
    min_expected, a thin remainder joins the last pool, and the expected
    counts are rescaled to the observed total.  Fewer than two pools give
    1.0; no degrees of freedom are subtracted.
    """
    obs_pool, exp_pool = [], []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= min_expected:
            obs_pool.append(acc_obs)
            exp_pool.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if (acc_obs or acc_exp) and exp_pool:
        obs_pool[-1] += acc_obs
        exp_pool[-1] += acc_exp
    if len(exp_pool) < 2:
        return 1.0
    return float(chisquare(obs_pool, np.array(exp_pool) * sum(obs_pool) / sum(exp_pool)).pvalue)


def _poisson_chisquare(samples, lam, min_expected=5.0):
    """Chi-square p-value of integer samples against Poisson(lam), lam fixed
    a priori: bins 0..max plus an upper tail, pooled by _pooled_chisquare."""
    samples = np.asarray(samples)
    kmax = int(samples.max(initial=0))
    counts = np.bincount(samples, minlength=kmax + 2)
    expected = np.append(poisson.pmf(np.arange(kmax + 1), lam), poisson.sf(kmax, lam))
    return _pooled_chisquare(counts, samples.size * expected, min_expected)


def _symmetry_axis(system):
    """Axis about which |psi1|^2 is rotation invariant, or None.

    Any axis serves a single source; collinear sources share the line through
    them; otherwise there is no axial symmetry.
    """
    X = system.positions
    if X.shape[0] == 1:
        return np.array([0.0, 0.0, 1.0])
    axis = X[1] - X[0]
    axis = axis / np.linalg.norm(axis)
    rel = X - X[0]
    off = rel - np.outer(rel @ axis, axis)
    scale = max(float(np.max(np.linalg.norm(rel, axis=1))), 1.0)
    if np.max(np.linalg.norm(off, axis=1)) > 1e-12 * scale:
        return None
    return axis


@dataclass(frozen=True)
class SampleStats:
    """Stationarity statistics of one ensemble snapshot."""

    time: float
    n_bosons: int
    sector_p: float
    radial_p: float
    angular_p: float


@dataclass(frozen=True)
class EquivarianceReport:
    """Snapshot statistics against the invariant law; pass means every
    computed p-value exceeds 0.01."""

    runs: int
    seed: int
    poisson_rate: float
    samples: tuple

    @property
    def passed(self):
        for s in self.samples:
            ps = [s.sector_p, s.radial_p]
            if s.angular_p is not None:
                ps.append(s.angular_p)
            if min(ps) <= 0.01:
                return False
        return True


def equivariance_test(gs, params, law=None):
    """Test that the ensemble stays in the stationary law.

    At each sample time the pooled ensemble is compared to the invariant
    distribution: boson count per run against Poisson(lambda_P) (chi-square),
    distance to source 1 against the semi-analytic radial CDF (KS) and, when
    the sources are collinear, azimuth about the source axis against the
    uniform law (KS).
    """
    if params.runs < 1000:
        raise ValueError("equivariance needs at least 1000 runs")
    if not params.sample_times:
        raise ValueError("no sample times requested")
    result = run_ensemble(gs, params, law=law)
    system = gs.system
    axis = _symmetry_axis(system)
    if axis is not None:
        helper = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(axis, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)
    r_peak = max(
        (float(np.linalg.norm(s.positions - system.positions[0], axis=1).max(initial=0.0)))
        for s in result.snapshots
    )
    cdf = radial_cdf_interpolator(system, 1, r_max=1.05 * r_peak + 1.0)
    stats_out = []
    for snap in result.snapshots:
        rel = snap.positions - system.positions[0]
        dists = np.linalg.norm(rel, axis=1)
        sector_p = _poisson_chisquare(snap.sectors, gs.poisson_rate)
        radial_p = float(kstest(dists, cdf).pvalue) if dists.size else 1.0
        angular_p = None
        if axis is not None and dists.size:
            phi = np.arctan2(rel @ e2, rel @ e1)
            angular_p = float(kstest(phi, lambda x: (x + np.pi) / (2.0 * np.pi)).pvalue)
        stats_out.append(
            SampleStats(snap.time, int(dists.size), float(sector_p), radial_p, angular_p)
        )
    return EquivarianceReport(params.runs, params.seed, gs.poisson_rate, tuple(stats_out))


@dataclass(frozen=True)
class ReversalTestReport:
    """Per-source balance between emission and absorption counts.

    Reversing the movie of a stationary run swaps every emission at a source
    with an absorption there, so the process is statistically reversible only
    if each source emits and absorbs at equal rates (two-sided binomial test
    per source; sources with no events are trivially balanced).  Asymmetric
    charge vectors break the balance maximally: an emitting source never
    absorbs.  flux_balance_error is the relative mismatch between total
    emissions and total absorptions, a stationarity diagnostic.
    """

    runs: int
    t_final: float
    seed: int
    emissions: tuple
    absorptions: tuple
    p_values: tuple
    balanced: bool
    flux_balance_error: float


def reversal_test(gs, params, law=None):
    """Exchange-rate balance test of time-reversal symmetry."""
    result = run_ensemble(gs, params, law=law)
    p_values = []
    for e, a in zip(result.emissions, result.absorptions):
        n = int(e + a)
        p_values.append(1.0 if n == 0 else float(binomtest(int(e), n, 0.5).pvalue))
    total_e = int(result.emissions.sum())
    total_a = int(result.absorptions.sum())
    return ReversalTestReport(
        runs=params.runs,
        t_final=result.t_final,
        seed=params.seed,
        emissions=tuple(int(e) for e in result.emissions),
        absorptions=tuple(int(a) for a in result.absorptions),
        p_values=tuple(p_values),
        balanced=all(p > 0.01 for p in p_values),
        flux_balance_error=abs(total_e - total_a) / max(total_e, total_a, 1),
    )


@dataclass(frozen=True)
class StartSensitivityReport:
    """Endpoint scatter of newborn trajectories under scaled start offsets."""

    source: int
    eps_start: float
    factors: tuple
    t_probe: float
    deviations: tuple
    max_deviation: float


def emission_start_sensitivity(gs, t_probe=2.0, factors=(0.5, 1.0, 2.0), eps_start=None, law=None):
    """Quantify the effect of the newborn placement offset.

    The exact process emits a boson from the source point itself; the
    simulator starts it eps_start along the emission direction.  For each of
    six axis directions at the strongest-emitting source the flow is
    integrated from factor*eps_start for t_probe; the report gives the
    largest endpoint scatter across factors, which bounds the placement bias
    of downstream positions.
    """
    system = gs.system
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps0 = _resolve_radii(system, None, eps_start)
    source = int(np.argmax(law.rates))
    if law.rates[source] <= 0.0:
        return StartSensitivityReport(source + 1, eps0, tuple(factors), t_probe, (), 0.0)
    origin = system.positions[source]
    dirs = np.concatenate([np.eye(3), -np.eye(3)])
    deviations = []
    for w in dirs:
        ends = []
        for f in factors:
            start = (origin + f * eps0 * w).reshape(1, 3)
            seg = _integrate_segment(system, start, 0.0, t_probe, eps_absorb, 0.05)
            ends.append(seg.states[-1, 0])
        deviations.append(float(pdist(np.array(ends)).max()))
    return StartSensitivityReport(
        source=source + 1,
        eps_start=eps0,
        factors=tuple(factors),
        t_probe=t_probe,
        deviations=tuple(deviations),
        max_deviation=max(deviations),
    )
