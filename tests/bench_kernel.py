"""Hand-run timings of the field kernel, the integrator and the CSV writer.

For K points drawn from |psi1|^2 of the figure system, prints the best of
repeated timings of `velocity` and `psi1` (one call on (K, 3) rows) and of
`_advance` (one span of 0.05, absorption radius 1e-4) at each K, then that
of `sample_boson_positions` for 5,000 draws.  Then the two sequential
steppers per step: one `evolve_robin` Crank-Nicolson step at grid 512 (the
boundary command's leak-check packet, 2,000 steps to t = 0.3), and the
figure trajectory of `simulate` to t_max = 30 (its time and RK4 rounds per
`_advance` call, which is one step to the next path vertex, or the re-advance
of an absorption).  Then the CSV writer: one
4,096-row block of a 201 x 201 field.csv over the figure config's bounds
through `write_csv`, per row, then the same rows as a streamlines.csv
block (int64 line labels, 205 rows a line, and an arc-length column in
front of them), and `g17_cells` at 1 and 4,096 values of the field
block.  Last the lattice assembly: `build_model` and
`check_gauge_equivalence` at dimensions 680, 10,626 and 169,911, best-of
times and tracemalloc peaks (the build alone, then the build plus the
check).  Then the dense spectrum of the lattice benchmark's dimension-680
chain alone (`LatticeModel._mode_spectrum`, LAPACK's dsyev driver), and
the benchmark's order in one process: `LatticeModel.ground` at dimension
680 right before the gauge check at 10,626, the median time of each over
fresh rounds.  The suite does not collect this file; run it from the root
of a checkout:

    PYTHONPATH=src python tests/bench_kernel.py
"""

import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracles import figure_system  # noqa: E402

from chargeflow import groundstate, process  # noqa: E402
from chargeflow.boundary import _ROBIN_STEPS, RobinBC, evolve_robin  # noqa: E402
from chargeflow.cli import _BLOCK, _field_table  # noqa: E402
from chargeflow.g17 import g17_cells  # noqa: E402
from chargeflow.groundstate import (  # noqa: E402
    _advance,
    _column_velocity,
    ground_state,
    psi1,
    sample_boson_positions,
    velocity,
)
from chargeflow.io import Provenance, derive_seed, write_csv  # noqa: E402
from chargeflow.lattice import LatticeParams, build_model, check_gauge_equivalence  # noqa: E402
from chargeflow.process import SimulationParams, simulate  # noqa: E402

SIZES = (1, 3, 6, 60, 450, 5393, 30000)
DRAWS = 5000
SPAN = 0.05
EPS_ABSORB = 1e-4
REPEATS = 7
BUDGET_S = 0.2
# the [field] bounds of configs/figure.cfg, at 201 nodes a side
FIELD_X, FIELD_Y, FIELD_N = (-0.8, 1.8), (-1.3, 1.3), 201
# (L, n_max) of dimensions 680, 10,626 and 169,911
LATTICE_SIZES = ((14, 3), (20, 4), (26, 5))
THETA = 0.7
CONTENDED_ROUNDS = 21
# the Robin packet and evolution of `robin_leak_check` on the figure
# config's boundary: Dirichlet left end, leaking right end
ROBIN_BC = RobinBC(1.0, 0.0, 1j, 1.0)
ROBIN_T = 0.3
# the paths benchmark's trajectory: the figure system to t_max = 30 in
# steps of at most 0.05, on the simulate command's stream of seed 12345
TRAJECTORY = SimulationParams(t_max=30.0, dt_max=0.05, seed=derive_seed(12345, 0))


def gauge_params(L, n_max):
    """The sources and couplings of the lattice benchmark's gauge check."""
    return LatticeParams(
        L=L, n_max=n_max, source_sites=(3, L - 5), charges=(1.0, 1j), E0=0.5
    )


def best_us(fn):
    """Best per-call time in microseconds over REPEATS rounds, each round
    calling fn as many times as fit in about BUDGET_S / REPEATS."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    number = max(1, int(BUDGET_S / REPEATS / max(once, 1e-9)))
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best * 1e6


def main():
    system = figure_system()
    gs = ground_state(system)
    pool = sample_boson_positions(gs, max(SIZES), np.random.default_rng(12345))
    print(f"{'K':>6} {'velocity_us':>12} {'psi1_us':>12} {'advance_us':>12}")
    for k in SIZES:
        pts = pool[:k]
        v = best_us(lambda: velocity(system, pts))
        p = best_us(lambda: psi1(system, pts))
        a = best_us(lambda: _advance(system, _column_velocity, pts, SPAN, EPS_ABSORB))
        print(f"{k:>6} {v:>12.1f} {p:>12.1f} {a:>12.1f}")
    s = best_us(lambda: sample_boson_positions(gs, DRAWS, np.random.default_rng(12345)))
    print(f"sample_boson_positions, {DRAWS} draws: {s:.1f} us")

    def packet(x):
        return np.exp(-((x - 0.5) ** 2) / (2 * 0.12**2))

    r = best_us(lambda: evolve_robin(ROBIN_BC, packet, ROBIN_T, n_grid=512))
    print(f"evolve_robin, grid 512: {r / _ROBIN_STEPS:.2f} us per step ({_ROBIN_STEPS} steps a call)")
    counts = {"steps": 0, "rounds": 0}

    def counted(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        return call

    advance, rk4_round = process._advance, groundstate._rk4_round
    process._advance = counted("steps", advance)
    groundstate._rk4_round = counted("rounds", rk4_round)
    try:
        simulate(gs, TRAJECTORY)
    finally:
        process._advance, groundstate._rk4_round = advance, rk4_round
    t = best_us(lambda: simulate(gs, TRAJECTORY))
    steps, rounds = counts["steps"], counts["rounds"]
    print(
        f"figure trajectory to t = {TRAJECTORY.t_max:g}: {steps} steps, "
        f"{t / steps:.1f} us and {rounds / steps:.2f} RK4 rounds per step"
    )

    # the first block of field.csv, as `cli._cmd_field` makes it
    k = np.arange(_BLOCK)
    xs, ys = np.linspace(*FIELD_X, FIELD_N), np.linspace(*FIELD_Y, FIELD_N)
    block = _field_table(system, np.column_stack([xs[k // FIELD_N], ys[k % FIELD_N], np.zeros(_BLOCK)])).T
    columns = ("x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase")
    prov = Provenance("field", "0" * 64, 12345, {}, {})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.csv")
        w = best_us(lambda: write_csv(path, columns, [block], prov))
        print(f"write_csv, one {_BLOCK}-row field.csv block: {w * 1e3 / _BLOCK:.1f} ns per row")
        # 20 lines of 205 vertices, as `cli._cmd_streamlines` labels them
        lines = (np.repeat(np.arange(20), 205)[:_BLOCK], np.linspace(0.0, 20.0, _BLOCK), *block)
        w = best_us(lambda: write_csv(path, ("line", "s", *columns), [lines], prov))
        print(f"write_csv, one {_BLOCK}-row streamlines.csv block: {w * 1e3 / _BLOCK:.1f} ns per row")
    for n in (1, _BLOCK):
        g = best_us(lambda: g17_cells(block[3, :n]))
        print(f"g17_cells, {n} value(s): {g:.1f} us")

    print(f"{'dim':>7} {'build_ms':>9} {'gauge_ms':>9} {'build_MiB':>10} {'gauge_MiB':>10}")
    for L, n_max in LATTICE_SIZES:
        params = gauge_params(L, n_max)
        tracemalloc.start()
        model = build_model(params)
        built = tracemalloc.get_traced_memory()[1] / 2**20
        check_gauge_equivalence(model, THETA)
        checked = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        b = best_us(lambda: build_model(params))
        g = best_us(lambda: check_gauge_equivalence(model, THETA))
        print(f"{model.dim:>7} {b / 1e3:>9.2f} {g / 1e3:>9.2f} {built:>10.2f} {checked:>10.2f}")

    # the lattice benchmark's order in one process: the ground state of its
    # dim-680 chain (a dense dsyev on scipy's OpenBLAS), then the gauge
    # check at 10,626; medians, as contention between the two varies
    chain = LatticeParams(L=14, n_max=3, source_sites=(2, 10), charges=(1.0, 1j), E0=0.5)
    model = build_model(chain)
    spectrum = []
    for _ in range(CONTENDED_ROUNDS):
        start = time.perf_counter()
        model._mode_spectrum()
        spectrum.append(time.perf_counter() - start)
    print(
        f"mode spectrum alone at {model.dim} (median of {CONTENDED_ROUNDS}): "
        f"{np.median(spectrum) * 1e3:.2f} ms"
    )
    gauge = build_model(gauge_params(*LATTICE_SIZES[1]))
    times = []
    for _ in range(CONTENDED_ROUNDS):
        model = build_model(chain)
        start = time.perf_counter()
        model.ground()
        mid = time.perf_counter()
        check_gauge_equivalence(gauge, THETA)
        times.append((mid - start, time.perf_counter() - mid))
    ground_ms, gauge_ms = np.median(times, axis=0) * 1e3
    print(
        f"ground at 680 then gauge check at {gauge.dim} (median of {CONTENDED_ROUNDS}): "
        f"{ground_ms:.2f} ms, {gauge_ms:.2f} ms"
    )


if __name__ == "__main__":
    main()
