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
ways, so the two factors cancel.  `derive_emission_law` evaluates that limit
in closed form from the pair products Im(conj(g_i) g_j) and the source
separations.

Because the stationary state factorizes over bosons, bosons never interact;
the ensemble driver exploits this by moving every boson of every run in one
flat array, from one sample time to the next.  Source labels in public
signatures are 1-based.
"""

from dataclasses import dataclass

import numpy as np

# scipy is imported inside the functions that call it (scipy.stats, about
# 0.5 s, by the three statistics functions), so importing this module or
# running a trajectory loads no scipy module
from .groundstate import _advance, _short_of_span, radial_cdf_interpolator
from .groundstate import sample_boson_positions, velocity

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
    "equivariance_report",
    "equivariance_test",
    "ReversalTestReport",
    "reversal_report",
    "reversal_test",
    "StartSensitivityReport",
    "emission_start_sensitivity",
]


def solve_ivp(*args, **kwargs):
    """`scipy.integrate.solve_ivp`, imported when first called.

    Nothing here calls it.  It exists only because the per-layer tracer in
    perfbench/tracing.py patches `process.solve_ivp` by name; ROADMAP item 1
    deletes it together with that hook.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _unit_vectors(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _absorbed_at_start(X, pos, eps_absorb):
    """Rows of pos inside an absorption ball, nearest to its source first,
    and their 0-based sources.  A sampled boson starts there with
    probability of order eps_absorb and is absorbed on the spot."""
    d = np.linalg.norm(pos[:, None, :] - X, axis=-1)
    nearest = np.argmin(d, axis=1)
    gap = d[np.arange(pos.shape[0]), nearest]
    inside = np.flatnonzero(gap < eps_absorb)
    inside = inside[np.argsort(gap[inside], kind="stable")]
    return inside, nearest[inside]


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
    F(r) = r * psi1(x_j + r*omega): only the cross terms of |psi1|^2 survive,
    so limits[j] = sum_{i != j} Im(conj(g_i) g_j) exp(-alpha R_ij)/R_ij, the
    same in every direction omega.  rates[j] = (m/(pi hbar^3)) * max(0,
    limits[j]).  The rates carry the sector bookkeeping already: they are the
    same in every sector, and the emission direction is uniform because the
    singular part of psi1 is isotropic.
    """

    rates: np.ndarray
    limits: np.ndarray

    def __post_init__(self):
        self.rates.setflags(write=False)
        self.limits.setflags(write=False)

    @property
    def total_rate(self):
        return float(self.rates.sum())


def derive_emission_law(gs):
    """Per-source emission rates from the closed-form flux limit.

    limits[j] = sum_i B_ij K_ij with B = system.im_products and
    K_ij = exp(-alpha R_ij)/R_ij, K_jj = 0.  A limit within 1e-10 of the
    largest sum_i |g_i||g_j| K_ij is snapped to exact zero: a 1e-10 phase
    tolerance at every E0, so charges with a common phase emit nothing.
    """
    system = gs.system
    dist = system.pair_distances()
    off = ~np.eye(system.n_sources, dtype=bool)
    K = np.divide(np.exp(-gs.alpha * dist), dist, out=np.zeros_like(dist), where=off)
    limits = np.sum(system.im_products * K, axis=0)
    mod = np.abs(system.charges)
    scale = float(np.max(mod * (mod @ K)))
    limits[np.abs(limits) <= 1e-10 * scale] = 0.0
    rates = (system.m / (np.pi * system.hbar**3)) * np.maximum(0.0, limits)
    return EmissionLaw(rates=rates, limits=limits)


# a trajectory takes at least t_max/dt_max steps, each adding a path vertex
# of 4 floats (32 bytes) per boson present and taking 0.2-0.3 ms with a
# handful of bosons on a 2-CPU Xeon; t_max/dt_max may not exceed
# MAX_TRAJECTORY_STEPS, 32 MB of path per boson and 3-5 minutes (at t_max =
# 1e308 the steps stop advancing, t + dt_max == t, and a run never ends)
MAX_TRAJECTORY_STEPS = 10**6


@dataclass(frozen=True)
class SimulationParams:
    """Controls for a single event-resolved run.

    dt_max is the longest step between two path vertices (steps also end at
    emissions and absorptions), and t_max/dt_max may not exceed
    MAX_TRAJECTORY_STEPS; eps_absorb and eps_start default as in
    `_resolve_radii`.
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
        if not self.t_max / self.dt_max <= MAX_TRAJECTORY_STEPS:
            raise ValueError(f"t_max/dt_max exceeds {MAX_TRAJECTORY_STEPS:.0e} steps")


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

    events interleaves Move segments (the drift between consecutive jumps)
    with Emit/Absorb jumps in time order; paths maps particle id to a (k, 4)
    array of (t, x, y, z) vertices, one per step end.  failure is None for a
    clean run, or a message when a step ran out of substep rounds (the
    record then ends early, at the start of that step, t_final < the
    requested horizon).
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


def simulate(gs, params, initial=None, law=None):
    """Run one event-resolved realization of the stationary process.

    The initial configuration is drawn from the stationary law (Poisson
    sector, i.i.d. |psi1|^2 positions) unless `initial` supplies an (n, 3)
    position array (or an object with a .positions attribute); bosons that
    start inside an absorption ball are absorbed at t = 0, as in
    `run_ensemble`.  Every birth is drawn next, by `_draw_births` for one run
    on one grid step of length t_max: the ensemble's exponential clock at the
    total rate of the (constant) ground-state law, which ignores the
    configuration.  All bosons move together through `_advance` in steps of
    min(dt_max, next birth, t_max), with one path vertex per step end.  When
    a boson enters an absorption ball the step is cut at its contact time,
    the others are re-advanced to that time, and the absorption is recorded
    there.  The vertices of a stretch between two jumps are gathered step by
    step and written out, with the stretch's one MoveEvent, when the stretch
    ends.  Output is bit-reproducible for a given seed.
    """
    system = gs.system
    X = system.positions
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    if initial is None:
        n0 = int(rng.poisson(gs.poisson_rate))
        pos = sample_boson_positions(gs, n0, rng)
    else:
        pos = np.array(getattr(initial, "positions", initial), dtype=float).reshape(-1, 3)
        n0 = pos.shape[0]
    # per particle, its path as a list of (k, 4) blocks of (t, x, y, z) vertices
    paths = {pid: [np.array([(0.0, *p)])] for pid, p in enumerate(pos)}
    inside, nearest = _absorbed_at_start(X, pos, eps_absorb)
    events = [AbsorbEvent(0.0, s + 1, k) for k, s in zip(inside.tolist(), nearest.tolist())]
    ids = np.delete(np.arange(n0), inside).tolist()
    pos = np.delete(pos, inside, axis=0)
    _, b_time, _, b_src, b_dir = _draw_births(rng, law, 1, 1, params.t_max)
    b_pos = X[b_src] + eps_start * b_dir
    # Python floats, so that a birth time never makes t an np.float64
    b_time = [*b_time.tolist(), np.inf]
    born = 0
    failure = None
    t = 0.0
    # the stretch since the last jump: its start, step ends and positions
    t_start, ends, verts = t, [], []

    def end_stretch():
        if ends:
            events.append(MoveEvent(t_start=t_start, t_end=ends[-1], particles=tuple(ids)))
            block = np.empty((len(ends), len(ids), 4))
            block[:, :, 0] = np.array(ends)[:, None]
            block[:, :, 1:] = verts
            for k, pid in enumerate(ids):
                paths[pid].append(block[:, k])
            ends.clear()
            verts.clear()

    while t < params.t_max - 1e-12:
        t_stop = min(t + params.dt_max, b_time[born], params.t_max)
        if ids:
            moved, hit, left = _advance(system, velocity, pos, t_stop - t, eps_absorb)
            if _short_of_span(hit, left).any():
                failure = f"substep budget exhausted in the step from t={t:.6g}"
                break
            absorbed = (hit >= 0).nonzero()[0]
            if absorbed.size:
                first = absorbed[np.argmax(left[absorbed])]
                t_stop -= left[first]
                others = np.arange(len(ids)) != first
                moved[others], hit[others], _ = _advance(
                    system, velocity, pos[others], t_stop - t, eps_absorb
                )
                absorbed = (hit >= 0).nonzero()[0]
            if not ends:
                t_start = t
            ends.append(t_stop)
            verts.append(moved)
            pos = moved
            if absorbed.size:
                end_stretch()
                for k in absorbed:
                    events.append(AbsorbEvent(time=t_stop, source=int(hit[k]) + 1, particle=ids[k]))
                ids = [pid for k, pid in enumerate(ids) if hit[k] < 0]
                pos = moved[hit < 0]
        t = t_stop
        if t == b_time[born]:
            end_stretch()
            pid = n0 + born
            pos = np.vstack([pos, b_pos[born]])
            ids.append(pid)
            paths[pid] = [np.array([(t, *b_pos[born])])]
            events.append(EmitEvent(t, int(b_src[born]) + 1, tuple(b_dir[born]), pid))
            born += 1
    end_stretch()
    return TrajectoryRecord(
        seed=params.seed,
        initial_sector=n0,
        t_final=t,
        events=tuple(events),
        paths={pid: np.concatenate(blocks) for pid, blocks in paths.items()},
        failure=failure,
    )


@dataclass(frozen=True)
class EnsembleParams:
    """Controls for the vectorized ensemble driver.

    dt is the sample grid: sample times (and t_max, which defaults to the
    largest sample time) must lie on it, and emission-clock draws are
    batched per dt.  It does not cap the integrator's substeps.
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
        _grid_step(self.horizon, self.dt, "t_max")
        for ts in self.sample_times:
            _grid_step(ts, self.dt, "sample times")

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
    steps = value / dt
    if not np.isfinite(steps):
        raise ValueError(f"dt is too small: {what}/dt overflows")
    k = int(round(steps))
    if abs(k * dt - value) > 1e-9 * max(abs(value), 1.0):
        raise ValueError(f"{what} must lie on the dt grid")
    return k


def _draw_births(rng, law, runs, n_steps, dt):
    """Every birth before step n_steps in draw order: arrays of grid step,
    time, run, 0-based source and emission direction.

    One exponential clock per run at the (constant) total rate, so every
    clock that rings emits.  The draws are batched per grid step, every clock
    due by the step's end at once (one due twice in the next batch); steps
    with no clock due draw nothing and are skipped.
    """
    total = law.total_rate
    cum = np.cumsum(law.rates)
    next_emit = rng.exponential(1.0 / total, size=runs) if total > 0.0 else np.full(runs, np.inf)
    births = [(np.empty(0, int), np.empty(0), np.empty(0, int), np.empty(0, int), np.empty((0, 3)))]
    i = 0
    while i < n_steps and (soonest := next_emit.min()) <= n_steps * dt:
        # jump to the first step whose end (i + 1) * dt reaches the soonest
        # clock: the quotient's guess is walked back in the floats of a scan
        # over every step, and a guess one short draws nothing and moves on
        start, i = i, max(i, int(soonest / dt))
        while i > start and soonest <= i * dt:
            i -= 1
        while (due := np.flatnonzero(next_emit <= (i + 1) * dt)).size:
            src = np.searchsorted(cum, rng.random(due.size) * total, side="right")
            direction = _unit_vectors(rng, due.size)
            births.append((np.full(due.size, i + 1), next_emit[due], due, src, direction))
            next_emit[due] += rng.exponential(1.0 / total, size=due.size)
        i += 1
    return [np.concatenate(column) for column in zip(*births)]


def run_ensemble(gs, params, law=None):
    """Run `params.runs` independent realizations in one flat array.

    Every run starts in the stationary law; emission clocks are exponential
    at the (constant) total rate.  Bosons never interact and the clocks
    ignore the configuration, so every birth is drawn first (clock draws
    batched per dt); then one `_advance` call per segment between stop times
    (the positive sample times and the horizon) moves the carried bosons
    and, from their birth times, the segment's newborns.  Raises
    RuntimeError when a boson runs out of substep rounds.

    Counting conventions: emissions[j] and absorptions[j] are totals for the
    source labeled j+1; sector bookkeeping is per run.
    """
    system = gs.system
    X = system.positions
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps_start = _resolve_radii(system, params.eps_absorb, params.eps_start)
    rng = np.random.default_rng(params.seed)
    m_runs = params.runs
    dt = params.dt
    n_steps = _grid_step(params.horizon, dt, "t_max")
    snap_steps = {_grid_step(ts, dt, "sample times"): ts for ts in params.sample_times}
    sectors = rng.poisson(gs.poisson_rate, size=m_runs)
    pos = sample_boson_positions(gs, int(sectors.sum()), rng)
    run = np.repeat(np.arange(m_runs), sectors)
    initial_sectors = sectors.copy()
    absorptions = np.zeros(system.n_sources, dtype=int)
    inside, nearest = _absorbed_at_start(X, pos, eps_absorb)
    np.add.at(absorptions, nearest, 1)
    np.subtract.at(sectors, run[inside], 1)
    pos, run = np.delete(pos, inside, axis=0), np.delete(run, inside)
    b_step, b_time, b_run, b_src, b_dir = _draw_births(rng, law, m_runs, n_steps, dt)
    emissions = np.bincount(b_src, minlength=system.n_sources)
    b_pos = X[b_src] + eps_start * b_dir
    snapshots = []
    if 0 in snap_steps:
        snapshots.append(EnsembleSnapshot(0.0, sectors.copy(), pos, run))
    k0 = 0
    for k1 in sorted(k for k in {*snap_steps, n_steps} if k > 0):
        new = slice(*np.searchsorted(b_step, [k0, k1], side="right"))
        np.add.at(sectors, b_run[new], 1)
        span = np.append(np.full(pos.shape[0], (k1 - k0) * dt), k1 * dt - b_time[new])
        pos, run = np.concatenate([pos, b_pos[new]]), np.append(run, b_run[new])
        pos, hit_src, left = _advance(system, velocity, pos, span, eps_absorb)
        if _short_of_span(hit_src, left).any():
            raise RuntimeError(f"substep budget exhausted before t={k1 * dt:.6g}")
        hit = hit_src >= 0
        np.add.at(absorptions, hit_src[hit], 1)
        np.subtract.at(sectors, run[hit], 1)
        pos, run = pos[~hit], run[~hit]
        if k1 in snap_steps:
            snapshots.append(EnsembleSnapshot(snap_steps[k1], sectors.copy(), pos, run))
        k0 = k1
    return EnsembleResult(
        runs=m_runs,
        t_final=n_steps * dt,
        dt=dt,
        seed=params.seed,
        eps_absorb=eps_absorb,
        eps_start=eps_start,
        emissions=emissions,
        absorptions=absorptions,
        initial_sectors=initial_sectors,
        final_sectors=sectors,
        snapshots=tuple(snapshots),
    )


def _poisson_chisquare(samples, lam, min_expected=5.0):
    """Chi-square p-value of integer samples against Poisson(lam), lam fixed
    a priori: bins 0..max plus an upper tail, pooled by `pooled_chisquare`."""
    from scipy.stats import poisson

    from .chisquare import pooled_chisquare

    samples = np.asarray(samples)
    kmax = int(samples.max(initial=0))
    counts = np.bincount(samples, minlength=kmax + 2)
    expected = np.append(poisson.pmf(np.arange(kmax + 1), lam), poisson.sf(kmax, lam))
    return pooled_chisquare(counts, samples.size * expected, min_expected)


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
    """Test that the ensemble stays in the stationary law: `run_ensemble`
    with at least 1000 runs and some sample times, then `equivariance_report`."""
    if params.runs < 1000:
        raise ValueError("equivariance needs at least 1000 runs")
    if not params.sample_times:
        raise ValueError("no sample times requested")
    return equivariance_report(gs, run_ensemble(gs, params, law=law))


def equivariance_report(gs, result):
    """Snapshot statistics of an ensemble result against the invariant law.

    At each sample time the pooled ensemble is compared to the invariant
    distribution: boson count per run against Poisson(lambda_P) (chi-square),
    distance to source 1 against the semi-analytic radial CDF (KS) and, when
    the sources are collinear, azimuth about the source axis against the
    uniform law (KS).
    """
    from scipy.stats import kstest

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
    return EquivarianceReport(result.runs, result.seed, gs.poisson_rate, tuple(stats_out))


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
    """Exchange-rate balance test of time-reversal symmetry: `run_ensemble`,
    then `reversal_report`."""
    return reversal_report(run_ensemble(gs, params, law=law))


def reversal_report(result):
    """Per-source emission/absorption balance of an ensemble result."""
    from scipy.stats import binomtest

    p_values = []
    for e, a in zip(result.emissions, result.absorptions):
        n = int(e + a)
        p_values.append(1.0 if n == 0 else float(binomtest(int(e), n, 0.5).pvalue))
    total_e = int(result.emissions.sum())
    total_a = int(result.absorptions.sum())
    return ReversalTestReport(
        runs=result.runs,
        t_final=result.t_final,
        seed=result.seed,
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


def emission_start_sensitivity(gs, t_probe=2.0, eps_start=None, law=None):
    """Quantify the effect of the newborn placement offset.

    The exact process emits a boson from the source point itself; the
    simulator starts it eps_start along the emission direction.  For each of
    six axis directions at the strongest-emitting source the flow is
    integrated from factor*eps_start for t_probe, factor 0.5, 1 and 2; the
    report gives the largest endpoint scatter across factors, which bounds
    the placement bias of downstream positions.  Raises RuntimeError when a
    start runs out of substep rounds.
    """
    from scipy.spatial.distance import pdist

    system = gs.system
    law = derive_emission_law(gs) if law is None else law
    eps_absorb, eps0 = _resolve_radii(system, None, eps_start)
    factors = (0.5, 1.0, 2.0)
    source = int(np.argmax(law.rates))
    if law.rates[source] <= 0.0:
        return StartSensitivityReport(source + 1, eps0, factors, t_probe, (), 0.0)
    dirs = np.concatenate([np.eye(3), -np.eye(3)])
    offsets = np.array(factors)[None, :, None] * eps0 * dirs[:, None, :]
    starts = (system.positions[source] + offsets).reshape(-1, 3)
    ends, hit, left = _advance(system, velocity, starts, t_probe, eps_absorb)
    if _short_of_span(hit, left).any():
        raise RuntimeError(f"substep budget exhausted before t={t_probe:.6g}")
    deviations = [float(pdist(e).max()) for e in ends.reshape(len(dirs), len(factors), 3)]
    return StartSensitivityReport(
        source=source + 1,
        eps_start=eps0,
        factors=factors,
        t_probe=t_probe,
        deviations=tuple(deviations),
        max_deviation=max(deviations),
    )
