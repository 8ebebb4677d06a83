"""Outside-in per-layer tracing of the chargeflow package.

The program is not modified: `instrument` replaces public functions of each
layer with timing wrappers, in every chargeflow module namespace that
resolves the name (a function imported with ``from .x import f`` is a
separate binding in each importer), and `Tracer.uninstall` puts the
originals back.

Spans are aggregated as they close rather than stored: per layer key the
tracer keeps the number of calls, the busy time (outermost span of that key
only, so re-entrant calls are not counted twice) and the self time (span
duration minus the time covered by directly nested traced spans).  Layer
hooks add counts measured at the same boundary, such as points per
velocity call or rows per CSV file.

LAYER_MOVES records which end-to-end metric each per-layer metric should
move, and on which workload.
"""

import inspect
import os
import sys
import time
from collections import defaultdict
from functools import wraps

# per-layer metric -> (unit, better)
PER_LAYER = {
    "groundstate.velocity.calls": ("count", "lower"),
    "groundstate.velocity.points": ("count", "lower"),
    "groundstate.velocity.busy_s": ("s", "lower"),
    "groundstate.velocity.small_call_us": ("us", "lower"),
    "groundstate.velocity.point_ns": ("ns", "lower"),
    "groundstate.current.calls": ("count", "lower"),
    "groundstate.current.busy_s": ("s", "lower"),
    "groundstate.current.small_call_us": ("us", "lower"),
    "groundstate.streamlines.busy_s": ("s", "lower"),
    "groundstate.streamlines.line_ms": ("ms", "lower"),
    "groundstate.radial_cdf.busy_s": ("s", "lower"),
    "groundstate.sampler.busy_s": ("s", "lower"),
    "process.ensemble.busy_s": ("s", "lower"),
    "process.ensemble.self_s": ("s", "lower"),
    "process.ensemble.run_steps": ("count", "higher"),
    "process.ensemble.run_step_us": ("us", "lower"),
    "process.ensemble.velocity_calls_per_step": ("count", "lower"),
    "process.stats.self_s": ("s", "lower"),
    "process.trajectory.busy_s": ("s", "lower"),
    "process.trajectory.solver_calls": ("count", "lower"),
    "process.trajectory.solver_self_s": ("s", "lower"),
    "lattice.bell.busy_s": ("s", "lower"),
    "lattice.bell.self_s": ("s", "lower"),
    "lattice.bell.chain_steps": ("count", "higher"),
    "lattice.bell.chain_step_ns": ("ns", "lower"),
    "lattice.evolve.calls": ("count", "lower"),
    "lattice.evolve.busy_s": ("s", "lower"),
    "lattice.eig.busy_s": ("s", "lower"),
    "lattice.build.busy_s": ("s", "lower"),
    "lattice.build.states": ("count", "higher"),
    "lattice.build.state_us": ("us", "lower"),
    "lattice.checks.busy_s": ("s", "lower"),
    "io.write.busy_s": ("s", "lower"),
    "io.write.self_s": ("s", "lower"),
    "io.rows": ("count", "higher"),
    "io.bytes": ("B", "lower"),
    "io.row_us": ("us", "lower"),
    "boundary.robin.calls": ("count", "lower"),
    "boundary.robin.busy_s": ("s", "lower"),
    "boundary.ring.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.simulate_s": ("s", "lower"),
    "cli.lattice_s": ("s", "lower"),
    "cli.lattice_check_s": ("s", "lower"),
    "cli.streamlines_s": ("s", "lower"),
    "cli.field_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly between runs with the same seed
EXACT_COUNTS = tuple(name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B"))

# layer metric prefix -> the end-to-end metric it moves, on which workloads
LAYER_MOVES = {
    "groundstate.velocity": "scaled_wall_s on ensemble and paths (simulate)",
    "groundstate.current": "scaled_wall_s on paths (streamlines, field)",
    "groundstate.streamlines": "scaled_wall_s on paths (streamlines)",
    "groundstate.radial_cdf": "scaled_wall_s on ensemble (simulate)",
    "groundstate.sampler": "scaled_wall_s on ensemble (simulate)",
    "process.ensemble": "scaled_wall_s on ensemble (simulate)",
    "process.stats": "scaled_wall_s on ensemble (simulate)",
    "process.trajectory": "scaled_wall_s on paths (simulate)",
    "lattice.bell": "scaled_wall_s on lattice (lattice)",
    "lattice.evolve": "scaled_wall_s on lattice (lattice)",
    "lattice.eig": "scaled_wall_s on lattice (lattice)",
    "lattice.build": "scaled_wall_s on lattice (lattice --check)",
    "lattice.checks": "scaled_wall_s on lattice (lattice --check)",
    "io": "scaled_wall_s on paths (field, streamlines, trajectory CSV)",
    "boundary": "scaled_wall_s on paths (boundary)",
    "cli": "scaled_wall_s on every workload",
    "trace": "none: tracing cost, traced minus untraced wall",
}


class Tracer:
    """Aggregating span recorder; see the module docstring."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []  # per open span: time covered by its traced children
        self._patches = []

    def active(self, key):
        return self._depth[key] > 0

    def run(self, key, fn, *args, after=None, **kwargs):
        """Call fn inside a span of `key`; `after(args, kwargs, result, dt)`
        runs once the span has closed."""
        self._depth[key] += 1
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            self._depth[key] -= 1
            self.calls[key] += 1
            self.self_time[key] += dt - child
            if self._depth[key] == 0:
                self.busy[key] += dt
        if after is not None:
            after(args, kwargs, result, dt)
        return result

    def wrap(self, key, fn, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self.run(key, fn, *args, after=after, **kwargs)

        return traced

    def patch(self, key, module, name, after=None, everywhere=True):
        """Replace `module.name` by a traced wrapper; with `everywhere`, also
        every other chargeflow module binding of the same object."""
        original = getattr(module, name)
        replacement = self.wrap(key, original, after)
        targets = [module]
        if everywhere:
            targets = [
                m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "chargeflow" or n.startswith("chargeflow."))
            ]
        for target in targets:
            for attr, value in list(vars(target).items()):
                if value is original:
                    self.substitute(target, attr, replacement)
        return replacement

    def rebind(self, old, new):
        """Point every binding patched to `old` at `new` instead."""
        for target, attr, _ in list(self._patches):
            if getattr(target, attr) is old:
                self.substitute(target, attr, new)

    def substitute(self, target, attr, value):
        """setattr that `uninstall` reverts."""
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self):
        for target, attr, value in reversed(self._patches):
            setattr(target, attr, value)
        self._patches.clear()


def _n_points(args, kwargs):
    y = args[1] if len(args) > 1 else kwargs["y"]
    size = getattr(y, "size", None)
    return (size if size is not None else len(y)) // 3


def _bound(fn, args, kwargs):
    sig = inspect.signature(fn)
    return sig.bind(*args, **kwargs).arguments


def instrument(tracer):
    """Wrap the public functions of every layer; returns nothing."""
    from chargeflow import boundary, groundstate, io, lattice, process

    c = tracer.counts

    def velocity_after(args, kwargs, result, dt):
        n = _n_points(args, kwargs)
        c["velocity.points"] += n
        if n <= 10:
            c["velocity.small_calls"] += 1
            c["velocity.small_s"] += dt
        elif n > 100:
            c["velocity.large_points"] += n
            c["velocity.large_s"] += dt
        if tracer.active("process.ensemble"):
            c["ensemble.velocity_calls"] += 1

    def current_after(args, kwargs, result, dt):
        if _n_points(args, kwargs) <= 10:
            c["current.small_calls"] += 1
            c["current.small_s"] += dt

    def streamlines_after(args, kwargs, result, dt):
        c["streamlines.lines"] += len(result)

    def ensemble_after(args, kwargs, result, dt):
        params = _bound(process.run_ensemble, args, kwargs)["params"]
        steps = int(round(params.horizon / params.dt))
        c["ensemble.dt_steps"] += steps
        c["ensemble.run_steps"] += steps * params.runs

    def evolve_after(args, kwargs, result, dt):
        if tracer.active("lattice.bell"):
            c["bell.evolves"] += 1

    def bell_after(args, kwargs, result, dt):
        chains = _bound(lattice.run_bell_ensemble, args, kwargs)["n_chains"]
        # the stepper evolves the wavefunction twice per step (start, midpoint)
        c["bell.chain_steps"] += chains * c.pop("bell.evolves", 0.0) / 2.0

    def build_after(args, kwargs, result, dt):
        c["build.states"] += result.dim

    def file_after(args, kwargs, result, dt):
        path = args[0] if args else kwargs["path"]
        c["io.bytes"] += os.path.getsize(path)

    # the solver is scipy's: trace only the binding the trajectory uses
    tracer.patch("process.solver", process, "solve_ivp", everywhere=False)
    tracer.patch("groundstate.velocity", groundstate, "psi1_gradient", velocity_after)
    tracer.patch("groundstate.current", groundstate, "current_closed_form", current_after)
    tracer.patch("groundstate.streamlines", groundstate, "streamlines", streamlines_after)
    tracer.patch("groundstate.radial_cdf", groundstate, "radial_cdf_interpolator")
    tracer.patch("groundstate.radial_cdf", groundstate, "radial_distance_cdf")
    tracer.patch("groundstate.sampler", groundstate, "sample_boson_positions")
    tracer.patch("process.ensemble", process, "run_ensemble", ensemble_after)
    tracer.patch("process.stats", process, "reversal_test")
    tracer.patch("process.stats", process, "equivariance_test")
    tracer.patch("process.trajectory", process, "simulate")
    tracer.patch("lattice.bell", lattice, "run_bell_ensemble", bell_after)
    tracer.patch("lattice.evolve", lattice, "evolve", evolve_after)
    tracer.patch("lattice.build", lattice, "build_model", build_after)
    for name in ("check_gauge_equivalence", "check_T_commutation", "reversal_conditions_check"):
        tracer.patch("lattice.checks", lattice, name)
    tracer.patch("boundary.robin", boundary, "evolve_robin")
    tracer.patch("boundary.ring", boundary, "discrete_periodic_ground")
    tracer.patch("io.write", io, "write_json", file_after)
    traced_jsonl = tracer.patch("io.write", io, "write_jsonl", file_after)
    traced_csv = tracer.patch("io.write", io, "write_csv", file_after)

    # count rows as the writers consume them; the row generators run inside
    # the writer's span
    def counted(rows):
        for row in rows:
            c["io.rows"] += 1
            yield row

    def patch_rows(traced, position):
        @wraps(traced)
        def counting(*args, **kwargs):
            args = list(args)
            args[position] = counted(args[position])
            return traced(*args, **kwargs)

        tracer.rebind(traced, counting)

    patch_rows(traced_csv, 2)
    patch_rows(traced_jsonl, 1)

    tracer.substitute(lattice.LatticeModel, "eig", tracer.wrap("lattice.eig", lattice.LatticeModel.eig))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer, command_times, overhead_s):
    """Per-layer metric values from one traced iteration."""
    b, s, n, c = tracer.busy, tracer.self_time, tracer.calls, tracer.counts
    steps = c["ensemble.dt_steps"]
    out = {
        "groundstate.velocity.calls": n["groundstate.velocity"],
        "groundstate.velocity.points": c["velocity.points"],
        "groundstate.velocity.busy_s": b["groundstate.velocity"],
        "groundstate.velocity.small_call_us": _ratio(c["velocity.small_s"], c["velocity.small_calls"], 1e6),
        "groundstate.velocity.point_ns": _ratio(c["velocity.large_s"], c["velocity.large_points"], 1e9),
        "groundstate.current.calls": n["groundstate.current"],
        "groundstate.current.busy_s": b["groundstate.current"],
        "groundstate.current.small_call_us": _ratio(c["current.small_s"], c["current.small_calls"], 1e6),
        "groundstate.streamlines.busy_s": b["groundstate.streamlines"],
        "groundstate.streamlines.line_ms": _ratio(b["groundstate.streamlines"], c["streamlines.lines"], 1e3),
        "groundstate.radial_cdf.busy_s": b["groundstate.radial_cdf"],
        "groundstate.sampler.busy_s": b["groundstate.sampler"],
        "process.ensemble.busy_s": b["process.ensemble"],
        "process.ensemble.self_s": s["process.ensemble"],
        "process.ensemble.run_steps": c["ensemble.run_steps"],
        "process.ensemble.run_step_us": _ratio(b["process.ensemble"], c["ensemble.run_steps"], 1e6),
        "process.ensemble.velocity_calls_per_step": _ratio(c["ensemble.velocity_calls"], steps),
        "process.stats.self_s": s["process.stats"],
        "process.trajectory.busy_s": b["process.trajectory"],
        "process.trajectory.solver_calls": n["process.solver"],
        "process.trajectory.solver_self_s": s["process.solver"],
        "lattice.bell.busy_s": b["lattice.bell"],
        "lattice.bell.self_s": s["lattice.bell"],
        "lattice.bell.chain_steps": c["bell.chain_steps"],
        "lattice.bell.chain_step_ns": _ratio(b["lattice.bell"], c["bell.chain_steps"], 1e9),
        "lattice.evolve.calls": n["lattice.evolve"],
        "lattice.evolve.busy_s": b["lattice.evolve"],
        "lattice.eig.busy_s": b["lattice.eig"],
        "lattice.build.busy_s": b["lattice.build"],
        "lattice.build.states": c["build.states"],
        "lattice.build.state_us": _ratio(b["lattice.build"], c["build.states"], 1e6),
        "lattice.checks.busy_s": b["lattice.checks"],
        "io.write.busy_s": b["io.write"],
        "io.write.self_s": s["io.write"],
        "io.rows": c["io.rows"],
        "io.bytes": c["io.bytes"],
        "io.row_us": _ratio(s["io.write"], c["io.rows"], 1e6),
        "boundary.robin.calls": n["boundary.robin"],
        "boundary.robin.busy_s": b["boundary.robin"],
        "boundary.ring.busy_s": b["boundary.ring"],
        "cli.self_s": s["cli"],
        "trace.overhead_s": overhead_s,
    }
    for name in ("simulate_s", "lattice_s", "lattice_check_s", "streamlines_s", "field_s"):
        out["cli." + name] = command_times.get(name, 0.0)
    return {k: float(v) for k, v in out.items()}
