"""Config-driven command line front end.

Usage: ``chargeflow <command> --config <path> [--out <dir>] [--seed <u64>]
[--check gauge|commutation|reversal]`` with commands ``symmetry``, ``field``,
``streamlines``, ``simulate``, ``lattice``, ``potential`` and ``boundary``;
``--check`` applies to ``lattice`` only.  Diagnostics go to standard error,
data to files under the output directory.  Exit codes: 0 success, 1
configuration or output error, 2 numerical failure, 3 a ``--check`` style
verification ran and failed.

Randomness: the config's master seed is never used directly; each stochastic
step draws from a derived stream (`io.derive_seed`), and both numbers appear
in the provenance block of every artifact, so any single output can be
regenerated in isolation.
"""

import argparse
import contextlib
import errno
import os
import shutil
import sys
import tempfile
from functools import partial

import numpy as np

# the light modules only: each command imports the rest when it runs, so a
# fresh process loads no scipy module that its command does not use
from .config import COMMANDS, ConfigError, parse_config
from .io import Provenance, derive_seed, trajectory_events, write_csv, write_json, write_jsonl
from .model import classify_charges, classify_general_ibc

__all__ = ["main", "dispatch"]

# LinAlgError and NodeError are ValueErrors
_NUMERICAL = (RuntimeError, ArithmeticError, ValueError, MemoryError)


def _provenance(config, sections, seed_streams):
    return Provenance(
        command=config.command,
        config_sha256=config.config_sha256,
        master_seed=config.seed,
        seed_streams=seed_streams,
        options={name: dict(config.options(name)) for name in sections},
    )


def _fields(report, names):
    """The fields of `report` named in the space-separated `names`, in order."""
    return {name: getattr(report, name) for name in names.split()}


_VERDICT = "symmetric theta witness theta_of_n"


def _cmd_symmetry(config, out):
    system = config.charge_system()
    opts = config.options("symmetry")
    payload = {
        "test": "charge symmetry",
        "charges": [[g.real, g.imag] for g in system.charges],
        **_fields(classify_charges(system.charges, tol=opts["tol"]), _VERDICT),
    }
    if opts["ibc_thetas"]:
        payload["ibc"] = {
            "test": "general boundary-coupling symmetry",
            "thetas": opts["ibc_thetas"],
            **_fields(classify_general_ibc(opts["ibc_thetas"], tol=opts["tol"]), _VERDICT),
        }
    prov = _provenance(config, ("model", "symmetry"), {})
    write_json(os.path.join(out, "symmetry.json"), payload, prov)
    return 0


def _model_system(config, bound=False):
    """The [model] system of a command that evaluates psi1, with its derived
    scales checked: a ValueError (exit 2) names the first one that leaves
    the float range.

    Every such command uses alpha = sqrt(2 m E0)/hbar.  A `bound` command
    needs the normalizable ground state (E0 > 0, a config error otherwise)
    and its energy, which `ground_energy` checks together with m/(pi hbar^2);
    a non-finite alpha makes that energy infinite.
    """
    from .groundstate import ground_energy

    system = config.charge_system()
    if bound:
        if not system.E0 > 0:
            raise ConfigError(
                f"key 'E0' must be positive for '{config.command}': the ground state is not "
                "normalizable at E0 = 0",
                config.line("model", "E0"),
            )
        ground_energy(system)
    if not np.isfinite(system.alpha):
        raise ValueError(
            "alpha = sqrt(2*m*E0)/hbar leaves the float range at "
            f"m = {system.m!r}, E0 = {system.E0!r}, hbar = {system.hbar!r}"
        )
    return system


def _field_table(system, pts):
    """Columns x, y, z, jx, jy, jz, |psi1|, phase at the (N, 3) points."""
    from .groundstate import _flow

    # scales that pass _model_system can still overflow in the products:
    # hbar = 1e308 makes the current 1e308 times the pair sum, m = 1e-320
    # makes hbar/m infinite; the table is checked as a whole below
    with np.errstate(over="ignore", invalid="ignore"):
        val, cur = _flow(system, pts)
        # hypot and the array angle give the bits of scalar abs() and np.angle;
        # np.abs of the complex array differs from them in the last place
        table = np.column_stack([pts, cur, np.hypot(val.real, val.imag), np.angle(val)])
    if not np.all(np.isfinite(table)):
        raise ValueError(
            f"the current or |psi1| leaves the float range at m = {system.m!r}, "
            f"E0 = {system.E0!r}, hbar = {system.hbar!r}"
        )
    return table


# points per block of a field table: a row depends on its point only, and
# blocks of a fixed size keep the temporaries small however long the table,
# so the heap does not grow and shrink by megabytes with each command
_BLOCK = 4096


def _parts(n):
    return (slice(k, k + _BLOCK) for k in range(0, n, _BLOCK))


def _cmd_field(config, out):
    from .groundstate import _source_distances

    system = _model_system(config)
    opts = config.options("field")
    xs = np.linspace(opts["x_min"], opts["x_max"], opts["nx"])
    ys = np.linspace(opts["y_min"], opts["y_max"], opts["ny"])
    n, ny = opts["nx"] * opts["ny"], opts["ny"]
    scale = max(system.min_source_spacing() or 1.0, 1.0)

    def blocks():
        # the nodes in the order meshgrid(xs, ys, indexing="ij") ravels them
        for start in range(0, n, _BLOCK):
            k = np.arange(start, min(start + _BLOCK, n))
            pts = np.column_stack([xs[k // ny], ys[k % ny], np.full(k.size, opts["z"])])
            # a node beyond about 1e154 is at an infinite distance, which passes
            with np.errstate(over="ignore"):
                dmin = _source_distances(system, pts.T).min()
            if dmin < 1e-12 * scale:
                raise RuntimeError("a grid node coincides with a source; shift the grid bounds")
            yield _field_table(system, pts).T

    prov = _provenance(config, ("model", "field"), {})
    write_csv(
        os.path.join(out, "field.csv"),
        ("x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase"),
        blocks(),
        prov,
    )
    return 0


def _cmd_streamlines(config, out):
    from .groundstate import _unit_vectors, streamlines

    system = _model_system(config)
    opts = config.options("streamlines")
    if opts["source"] > system.n_sources:
        raise ConfigError(
            f"source label {opts['source']} exceeds the {system.n_sources} configured sources",
            config.line("streamlines", "source"),
        )
    rng = np.random.default_rng(derive_seed(config.seed, 0))
    dirs = _unit_vectors(rng, opts["n_seeds"])
    seeds = system.positions[opts["source"] - 1] + opts["seed_radius"] * dirs
    # a current that overflows leaves non-finite vertices, which _field_table
    # rejects with the current itself
    with np.errstate(over="ignore", invalid="ignore"):
        lines = streamlines(system, seeds, max_arc=opts["max_arc"] or None)
    prov = _provenance(config, ("model", "streamlines"), {"seed_directions": 0})

    # the vertices of every line stacked, their field rows a block at a time
    pts = np.concatenate([line.points for line in lines])
    labels = np.repeat(np.arange(len(lines)), [len(line.points) for line in lines])
    arcs = np.concatenate([line.arc_lengths for line in lines])
    blocks = ((labels[p], arcs[p], *_field_table(system, pts[p]).T) for p in _parts(len(pts)))
    write_csv(
        os.path.join(out, "streamlines.csv"),
        ("line", "s", "x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase"),
        blocks,
        prov,
    )
    counts = {}
    for line in lines:
        counts[line.termination] = counts.get(line.termination, 0) + 1
    write_json(
        os.path.join(out, "streamlines.json"),
        {
            "terminations": counts,
            "lines": [
                {
                    "termination": line.termination,
                    "source": line.source,
                    "arc_length": float(line.arc_lengths[-1]),
                }
                for line in lines
            ],
        },
        prov,
    )
    return 0


def _cmd_simulate(config, out):
    from .process import (
        EnsembleParams,
        SimulationParams,
        derive_emission_law,
        equivariance_report,
        reversal_report,
        run_ensemble,
        simulate,
    )

    opts = config.options("simulate")
    if opts["trajectory"]:
        try:
            sim = SimulationParams(
                t_max=opts["t_max"], dt_max=opts["dt_max"], seed=derive_seed(config.seed, 0)
            )
        except ValueError as exc:
            raise ConfigError(
                f"{exc} (set trajectory = false for the ensemble alone)",
                config.line("simulate", "t_max", "dt_max"),
            ) from exc
    from .groundstate import ground_state

    gs = ground_state(_model_system(config, bound=True))
    law = derive_emission_law(gs)
    streams = {}
    if opts["trajectory"]:
        streams["trajectory"] = 0
    if opts["runs"] > 0:
        streams["ensemble"] = 2
    prov = _provenance(config, ("model", "simulate"), streams)
    if opts["trajectory"]:
        record = simulate(gs, sim, law=law)
        write_jsonl(os.path.join(out, "trajectory.jsonl"), trajectory_events(record), prov)
        # every particle's vertices in pid order, a block of rows at a time
        pids = sorted(record.paths)
        rows = np.concatenate([np.empty((0, 4)), *map(record.paths.get, pids)])
        labels = np.repeat(pids, [len(record.paths[pid]) for pid in pids])
        write_csv(
            os.path.join(out, "trajectory_paths.csv"),
            ("particle", "t", "x", "y", "z"),
            ((labels[p], *rows[p].T) for p in _parts(len(rows))),
            prov,
        )
    if opts["runs"] > 0:
        # one ensemble to t_max serves both statistics: its counts feed the
        # reversal block and its snapshots the equivariance block
        result = run_ensemble(
            gs,
            EnsembleParams(
                runs=opts["runs"],
                t_max=opts["t_max"],
                sample_times=opts["sample_times"],
                dt=opts["dt"],
                seed=derive_seed(config.seed, 2),
            ),
            law=law,
        )
        rev = reversal_report(result)
        payload = {
            "poisson_rate": gs.poisson_rate,
            "emission_law": {"rates": law.rates, "limits": law.limits},
            "reversal": {
                "test": "per-source emission/absorption balance (two-sided binomial)",
                **_fields(
                    rev, "runs t_final emissions absorptions p_values balanced flux_balance_error"
                ),
            },
        }
        if opts["sample_times"]:
            eq = equivariance_report(gs, result)
            payload["equivariance"] = {
                "test": "sector chi-square and radial/angular KS against the invariant law",
                **_fields(eq, "runs passed"),
                "samples": [
                    _fields(s, "time n_bosons sector_p radial_p angular_p") for s in eq.samples
                ],
            }
        write_json(os.path.join(out, "statistics.json"), payload, prov)
    return 0


# the Bell ensemble of `chargeflow lattice` starts in the stationary ground
# state, so its chains run in continuous time and its work is one unit per
# chain plus one per jump, chains * (1 + t * sum_q |psi0(q)|^2 sigma_out(q))
# expected.  A unit costs 150-220 ns with many chains live and 30-47 us when
# a lone chain jumps on (one vectorized round per jump), from dim 45 to 1,771
# on a 2-CPU Xeon, so _BELL_WORK_LIMIT is 3-5 s of chains or 10-16 minutes
# of one chain (t = 1e308 would never end)
_BELL_WORK_LIMIT = 2 * 10**7


def _cmd_lattice(config, out, check=None):
    from .pvalues import pooled_chisquare
    from .lattice import (
        DENSE_LIMIT,
        _norm,
        _residual,
        build_model,
        check_gauge_equivalence,
        check_T_commutation,
        ground_state_current,
        lattice_dimension,
        reversal_conditions_check,
        run_bell_ensemble,
    )

    params = config.lattice_params()
    opts = config.options("lattice")
    dim = lattice_dimension(params.L, params.n_max)
    # the spectrum needs a dense copy of H
    if check is None and dim > DENSE_LIMIT:
        raise ConfigError(
            f"basis dimension {dim} exceeds the dense limit of {DENSE_LIMIT} states "
            "(every --check runs at any size)",
            config.line("lattice", "n_max", "L"),
        )
    model = build_model(params)
    theta = opts["theta"]
    if check is not None:
        prov = _provenance(config, ("lattice",), {"random_state": 1} if check == "reversal" else {})
        norm_checks = {
            "gauge": (check_gauge_equivalence, 1e-12),
            "commutation": (check_T_commutation, 1e-8),
        }
        if check in norm_checks:
            measure, tolerance = norm_checks[check]
            norm = measure(model, theta)
            payload = {
                "check": check,
                "theta": theta,
                "norm": norm,
                "tolerance": tolerance,
                "passed": bool(norm <= tolerance),
            }
        else:
            rng = np.random.default_rng(derive_seed(config.seed, 1))
            psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            psi /= _norm(psi)
            report = reversal_conditions_check(model, theta, psi)
            payload = {
                "check": "reversal",
                "theta": theta,
                **_fields(report, "max_violation commutator_norm passed"),
            }
        write_json(os.path.join(out, "lattice_check.json"), payload, prov)
        return 0 if payload["passed"] else 3
    streams = {"bell_chains": 0} if opts["chains"] > 0 else {}
    prov = _provenance(config, ("lattice",), streams)
    evals, psi0 = model.ground()
    spectrum = [(np.arange(len(evals)), evals)]
    write_csv(os.path.join(out, "spectrum.csv"), ("index", "eigenvalue"), spectrum, prov)
    current = ground_state_current(model)
    # Duhamel: ||e^{-iHt} psi0 - e^{-iE0 t} psi0|| <= t ||H psi0 - E0 psi0||,
    # and two unit vectors lie at most 2 apart
    residual = _residual(model, psi0, evals[0])
    payload = {
        "dimension": model.dim,
        "ground_energy": float(evals[0]),
        "eigengap": current.eigengap,
        "max_ground_current": current.max_abs,
        "evolution_phase_error": min(2.0, opts["t"] * residual),
    }
    if opts["chains"] > 0:
        # sum_q |psi0(q)|^2 sigma_out(q) is the total directed flux; compared
        # as limit/(1 + t*rate) against an int, which overflows at no chain count
        rate = float(np.sum(np.maximum(current.currents.data, 0.0)))
        if _BELL_WORK_LIMIT / (1.0 + opts["t"] * rate) < opts["chains"]:
            raise ConfigError(
                f"the Bell ensemble of {opts['chains']} chains to t = {opts['t']!r} exceeds "
                f"{_BELL_WORK_LIMIT:.0e} units of work: one per chain plus one per jump, "
                f"{opts['t'] * rate:.3g} jumps per chain expected at the total jump rate "
                f"{rate:.3g} of the ground state",
                config.line("lattice", "t", "chains"),
            )
        result = run_bell_ensemble(
            model, psi0, opts["t"], opts["chains"], derive_seed(config.seed, 0)
        )
        observed = np.bincount(result.final_indices, minlength=model.dim)
        expected = np.abs(psi0) ** 2 * opts["chains"]
        payload["bell"] = {
            "test": "final-state occupation chi-square against |psi|^2",
            "chains": opts["chains"],
            "t": opts["t"],
            "mean_jumps": float(result.n_jumps.mean()),
            "occupation_p": pooled_chisquare(observed, expected),
            "node_warnings": result.node_warnings,
        }
    write_json(os.path.join(out, "lattice.json"), payload, prov)
    return 0


def _cmd_potential(config, out):
    from .groundstate import effective_kappa, ground_energy, ground_state, verify_eigen_vacuum

    system = _model_system(config, bound=True)
    opts = config.options("potential")
    prov = _provenance(config, ("model", "potential"), {})
    rows = []
    for i in range(1, system.n_sources + 1):
        for j in range(i + 1, system.n_sources + 1):
            pair = effective_kappa(system, i, j)
            rows.append((i, j, pair.kappa, pair.interaction_range))
    table = np.array(rows, dtype=float).reshape(-1, 4)
    write_csv(os.path.join(out, "kappa_table.csv"), ("i", "j", "kappa", "range"), [table.T], prov)
    payload = {"ground_energy": ground_energy(system), "pairs": len(rows)}
    if opts["verify"]:
        report = verify_eigen_vacuum(ground_state(system))
        payload["vacuum_check"] = _fields(
            report, "numeric_energy closed_form_energy rel_error passed"
        )
    write_json(os.path.join(out, "potential.json"), payload, prov)
    return 0


def _cmd_boundary(config, out):
    from .boundary import (
        RobinBC,
        WitnessInput,
        discrete_periodic_ground,
        emission_witness,
        is_probability_conserving,
        periodic_spectrum,
        robin_leak_check,
        symmetry_verdict_periodic,
    )

    opts = config.options("boundary")
    prov = _provenance(config, ("boundary",), {})
    # witness and Robin rows are config errors, raised before any level is computed
    witnesses = []
    for wr, line in zip(opts["witness"], config.key_lines.get(("boundary", "witness"), ())):
        try:
            witness_in = WitnessInput(
                alpha=complex(wr[0], wr[1]), beta=complex(wr[2], wr[3]), psi_q=complex(wr[4], wr[5])
            )
            witness = emission_witness(witness_in)
        except ValueError as exc:
            raise ConfigError(str(exc), line) from exc
        witnesses.append(
            {
                **_fields(witness_in, "alpha beta psi_q"),
                **_fields(witness, "positive negative current_positive current_negative"),
            }
        )
    if witnesses:
        write_json(os.path.join(out, "witnesses.json"), {"witnesses": witnesses}, prov)
    bc = None
    if opts["robin"]:
        r = opts["robin"]
        try:
            bc = RobinBC(
                alpha0=complex(r[0], r[1]),
                beta0=complex(r[2], r[3]),
                alpha1=complex(r[4], r[5]),
                beta1=complex(r[6], r[7]),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), config.line("boundary", "robin")) from exc
    rows = []
    currents = []
    for theta in opts["theta"]:
        for k, energy in periodic_spectrum(theta, n_range=opts["n_levels"]):
            rows.append((theta, k, energy))
        verdict = symmetry_verdict_periodic(theta)
        discrete = discrete_periodic_ground(theta, n_grid=opts["grid"])
        currents.append(
            {
                "theta": theta,
                "ground_current": theta,
                "symmetric": verdict.symmetric,
                "distance_to_pi_multiple": verdict.distance_to_pi_multiple,
                "discrete": {
                    "grid": opts["grid"],
                    **_fields(
                        discrete,
                        "eigenvalue continuum_energy energy_rel_error current current_rel_error",
                    ),
                },
            }
        )
    table = np.array(rows, dtype=float).reshape(-1, 3)
    write_csv(os.path.join(out, "spectra.csv"), ("theta", "k", "E"), [table.T], prov)
    write_json(os.path.join(out, "currents.json"), {"levels": currents}, prov)
    if bc is not None:
        verdicts = is_probability_conserving(bc)
        robin = {
            "ends": [
                {"end": end, **_fields(v, "conserving dirichlet leak_coefficient")}
                for end, v in ((0, verdicts.end0), (1, verdicts.end1))
            ],
            "conserving": verdicts.conserving,
        }
        # the leak of one end is measured while the other conserves
        leaking = [end for end, v in enumerate((verdicts.end0, verdicts.end1)) if not v.conserving]
        if len(leaking) == 1:
            leak = robin_leak_check(bc, end=leaking[0], n_grid=opts["grid"])
            robin["leak"] = _fields(leak, "end measured predicted rel_error passed sample_time")
            decay = [(leak.times, leak.norms)]
            write_csv(os.path.join(out, "norm_decay.csv"), ("t", "norm"), decay, prov)
        write_json(os.path.join(out, "robin.json"), robin, prov)
    return 0


_HANDLERS = {
    "symmetry": _cmd_symmetry,
    "field": _cmd_field,
    "streamlines": _cmd_streamlines,
    "simulate": _cmd_simulate,
    "lattice": _cmd_lattice,
    "potential": _cmd_potential,
    "boundary": _cmd_boundary,
}


def dispatch(config, check=None):
    """Execute a validated RunConfig; returns the process exit code.

    All or nothing: the command writes into a hidden staging directory inside
    the output directory, whose files replace their namesakes there once it
    returns.  An exception, an interrupt included, removes the staged files,
    any already moved and the directories this run created, and propagates."""
    if config.command not in _HANDLERS:
        raise ConfigError(f"unknown command '{config.command}'")
    if check is not None and config.command != "lattice":
        raise ConfigError("--check applies to the lattice command only")
    handler = partial(_cmd_lattice, check=check) if check else _HANDLERS[config.command]
    out, stage, moved = config.out_dir or os.curdir, None, []
    created = []  # the directories makedirs adds, deepest first
    head = os.path.abspath(out)
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(out, exist_ok=True)
        stage = tempfile.mkdtemp(dir=out, prefix=".")
        code = handler(config, stage)
        names = sorted(os.listdir(stage))
        for target in (os.path.join(out, name) for name in names):
            if os.path.isdir(target):  # before any move; os.replace would name the staged file
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in names:
            os.replace(os.path.join(stage, name), os.path.join(out, name))
            moved.append(os.path.join(out, name))
        os.rmdir(stage)
        return code
    except BaseException:
        for path in moved:
            os.unlink(path)
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
        with contextlib.suppress(OSError):  # another writer has put a file there
            for path in created:
                os.rmdir(path)
        raise


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chargeflow",
        description="Particle-creation models: symmetry reports, fields, trajectories.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="output directory (default from [run])")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument(
        "--check",
        choices=("gauge", "commutation", "reversal"),
        default=None,
        help="lattice only: run one verification instead of the full build",
    )
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text).with_command(
            args.command, seed=args.seed, out_dir=args.out
        )
        return dispatch(config, check=args.check)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out that cannot hold the artifacts
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
