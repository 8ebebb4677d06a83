"""Config-driven command line front end.

Usage: ``chargeflow <command> --config <path> [--out <dir>] [--seed <u64>]``
with commands ``symmetry``, ``field``, ``streamlines``, ``simulate``,
``lattice`` (plus ``--check gauge|commutation|reversal``), ``potential`` and
``boundary``.  Diagnostics go to standard error, data to files under the
output directory.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 a ``--check`` style verification ran and failed.

Randomness: the config's master seed is never used directly; each stochastic
step draws from a derived stream (`io.derive_seed`), and both numbers appear
in the provenance block of every artifact, so any single output can be
regenerated in isolation.
"""

import argparse
import os
import sys

import numpy as np

from .boundary import (
    RobinBC,
    WitnessInput,
    discrete_periodic_ground,
    emission_witness,
    is_probability_conserving,
    periodic_ground_current,
    periodic_spectrum,
    robin_leak_check,
    symmetry_verdict_periodic,
)
from .config import COMMANDS, ConfigError, parse_config
from .groundstate import (
    NearNodeError,
    current_closed_form,
    effective_kappa,
    ground_energy,
    ground_state,
    psi1,
    streamlines,
    verify_eigen_vacuum,
)
from .io import (
    Provenance,
    derive_seed,
    trajectory_events,
    trajectory_path_rows,
    write_csv,
    write_json,
    write_jsonl,
)
from .lattice import (
    DENSE_LIMIT,
    NodeError,
    build_model,
    check_gauge_equivalence,
    check_T_commutation,
    evolve,
    ground_state_current,
    lattice_dimension,
    reversal_conditions_check,
    run_bell_ensemble,
)
from .model import GeneralIBCParams, classify_charges, classify_general_ibc
from .process import (
    EnsembleParams,
    SimulationParams,
    _pooled_chisquare,
    derive_emission_law,
    equivariance_test,
    reversal_test,
    simulate,
)

__all__ = ["main", "dispatch"]

_NUMERICAL = (
    RuntimeError,
    ArithmeticError,
    FloatingPointError,
    np.linalg.LinAlgError,
    NearNodeError,
    NodeError,
)


def _provenance(config, sections, seed_streams):
    return Provenance(
        command=config.command,
        config_sha256=config.config_sha256,
        master_seed=config.seed,
        seed_streams=seed_streams,
        options={name: dict(config.options(name)) for name in sections},
    )


def _verdict_payload(verdict):
    return {
        "symmetric": verdict.symmetric,
        "theta": verdict.theta,
        "witness": list(verdict.witness) if verdict.witness else None,
        "theta_of_n": verdict.theta_of_n,
    }


def _cmd_symmetry(config, out):
    system = config.charge_system()
    opts = config.options("symmetry")
    payload = {
        "test": "charge symmetry",
        "charges": [[g.real, g.imag] for g in system.charges],
        **_verdict_payload(classify_charges(system.charges, tol=opts["tol"])),
    }
    if opts["ibc_thetas"]:
        params = GeneralIBCParams(thetas=np.asarray(opts["ibc_thetas"]))
        payload["ibc"] = {
            "test": "general boundary-coupling symmetry",
            "thetas": list(opts["ibc_thetas"]),
            **_verdict_payload(classify_general_ibc(params, tol=opts["tol"])),
        }
    prov = _provenance(config, ("model", "symmetry"), {})
    write_json(os.path.join(out, "symmetry.json"), payload, prov)
    return 0


def _cmd_field(config, out):
    system = config.charge_system()
    opts = config.options("field")
    xs = np.linspace(opts["x_min"], opts["x_max"], opts["nx"])
    ys = np.linspace(opts["y_min"], opts["y_max"], opts["ny"])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, opts["z"])])
    dmin = np.min(np.linalg.norm(pts[:, None, :] - system.positions[None, :, :], axis=-1))
    scale = max(system.min_source_spacing() or 1.0, 1.0)
    if dmin < 1e-12 * scale:
        raise RuntimeError("a grid node coincides with a source; shift the grid bounds")
    cur = current_closed_form(system, pts)
    val = psi1(system, pts)
    rows = (
        (p[0], p[1], p[2], j[0], j[1], j[2], abs(v), float(np.angle(v)))
        for p, j, v in zip(pts, cur, val)
    )
    prov = _provenance(config, ("model", "field"), {})
    write_csv(
        os.path.join(out, "field.csv"),
        ("x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase"),
        rows,
        prov,
    )
    return 0


def _cmd_streamlines(config, out):
    system = config.charge_system()
    opts = config.options("streamlines")
    if opts["source"] > system.n_sources:
        raise ConfigError(
            f"source label {opts['source']} exceeds the {system.n_sources} configured sources",
            config.section_lines.get("streamlines"),
        )
    rng = np.random.default_rng(derive_seed(config.seed, 0))
    dirs = rng.normal(size=(opts["n_seeds"], 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    seeds = system.positions[opts["source"] - 1] + opts["seed_radius"] * dirs
    lines = streamlines(
        system,
        seeds,
        eps_absorb=opts["eps_absorb"] or None,
        max_arc=opts["max_arc"] or None,
        domain_radius=opts["domain_radius"] or None,
    )
    prov = _provenance(config, ("model", "streamlines"), {"seed_directions": 0})

    def rows():
        for i, line in enumerate(lines):
            cur = current_closed_form(system, line.points)
            val = psi1(system, line.points)
            for k in range(line.points.shape[0]):
                p, j, v = line.points[k], cur[k], val[k]
                yield (i, line.arc_lengths[k], p[0], p[1], p[2], j[0], j[1], j[2], abs(v), float(np.angle(v)))

    write_csv(
        os.path.join(out, "streamlines.csv"),
        ("line", "s", "x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase"),
        rows(),
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
    system = config.charge_system()
    opts = config.options("simulate")
    gs = ground_state(system)
    law = derive_emission_law(gs)
    eps_absorb = opts["eps_absorb"] or None
    eps_start = opts["eps_start"] or None
    streams = {}
    if opts["trajectory"]:
        streams["trajectory"] = 0
    if opts["runs"] > 0:
        streams["reversal"] = 1
        if opts["sample_times"]:
            streams["equivariance"] = 2
    prov = _provenance(config, ("model", "simulate"), streams)
    if opts["trajectory"]:
        record = simulate(
            gs,
            SimulationParams(
                t_max=opts["t_max"],
                dt_max=opts["dt_max"],
                seed=derive_seed(config.seed, 0),
                eps_absorb=eps_absorb,
                eps_start=eps_start,
            ),
            law=law,
        )
        write_jsonl(os.path.join(out, "trajectory.jsonl"), trajectory_events(record), prov)
        write_csv(
            os.path.join(out, "trajectory_paths.csv"),
            ("particle", "t", "x", "y", "z"),
            trajectory_path_rows(record),
            prov,
        )
    if opts["runs"] > 0:
        payload = {
            "poisson_rate": gs.poisson_rate,
            "emission_law": {
                "rates": law.rates,
                "limits": law.limits,
                "direction_spread": law.direction_spread,
            },
        }
        rev = reversal_test(
            gs,
            EnsembleParams(
                runs=opts["runs"],
                t_max=opts["t_max"],
                dt=opts["dt"],
                seed=derive_seed(config.seed, 1),
                eps_absorb=eps_absorb,
                eps_start=eps_start,
            ),
            law=law,
        )
        payload["reversal"] = {
            "test": "per-source emission/absorption balance (two-sided binomial)",
            "runs": rev.runs,
            "t_final": rev.t_final,
            "emissions": list(rev.emissions),
            "absorptions": list(rev.absorptions),
            "p_values": list(rev.p_values),
            "balanced": rev.balanced,
            "flux_balance_error": rev.flux_balance_error,
        }
        if opts["sample_times"]:
            eq = equivariance_test(
                gs,
                EnsembleParams(
                    runs=opts["runs"],
                    sample_times=opts["sample_times"],
                    dt=opts["dt"],
                    seed=derive_seed(config.seed, 2),
                    eps_absorb=eps_absorb,
                    eps_start=eps_start,
                ),
                law=law,
            )
            payload["equivariance"] = {
                "test": "sector chi-square and radial/angular KS against the invariant law",
                "runs": eq.runs,
                "passed": eq.passed,
                "samples": [
                    {
                        "time": s.time,
                        "n_bosons": s.n_bosons,
                        "sector_p": s.sector_p,
                        "radial_p": s.radial_p,
                        "angular_p": s.angular_p,
                    }
                    for s in eq.samples
                ],
            }
        write_json(os.path.join(out, "statistics.json"), payload, prov)
    return 0


def _cmd_lattice(config, out, check=None):
    params = config.lattice_params()
    opts = dict(config.options("lattice"))
    dim = lattice_dimension(params.L, params.n_max)
    # the spectrum and the operator-norm commutator need a dense copy of H
    if check in (None, "commutation") and dim > DENSE_LIMIT:
        raise ConfigError(
            f"basis dimension {dim} exceeds the dense limit of {DENSE_LIMIT} states "
            "(only --check gauge and --check reversal run above it)",
            config.section_lines.get("lattice"),
        )
    model = build_model(params)
    theta = opts["theta"]
    if check is not None:
        opts["check"] = check
        prov = Provenance(
            command=config.command,
            config_sha256=config.config_sha256,
            master_seed=config.seed,
            seed_streams={"random_state": 1} if check == "reversal" else {},
            options={"lattice": opts},
        )
        if check == "gauge":
            norm = check_gauge_equivalence(model, theta)
            payload = {
                "check": "gauge",
                "theta": theta,
                "norm": norm,
                "tolerance": 1e-12,
                "passed": bool(norm <= 1e-12),
            }
        elif check == "commutation":
            norm = check_T_commutation(model, theta, kind="op")
            payload = {
                "check": "commutation",
                "theta": theta,
                "norm": norm,
                "tolerance": opts["check_tol"],
                "passed": bool(norm <= opts["check_tol"]),
            }
        else:
            rng = np.random.default_rng(derive_seed(config.seed, 1))
            psi = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            psi /= np.linalg.norm(psi)
            report = reversal_conditions_check(model, theta, psi)
            payload = {
                "check": "reversal",
                "theta": theta,
                "max_violation": report.max_violation,
                "commutator_norm": report.commutator_norm,
                "passed": report.passed,
            }
        write_json(os.path.join(out, "lattice_check.json"), payload, prov)
        return 0 if payload["passed"] else 3
    streams = {"bell_chains": 0} if opts["chains"] > 0 else {}
    prov = _provenance(config, ("lattice",), streams)
    evals, evecs = model.eig()
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ("index", "eigenvalue"),
        ((i, float(e)) for i, e in enumerate(evals)),
        prov,
    )
    current = ground_state_current(model)
    psi0 = evecs[:, 0]
    psi_t = evolve(model, psi0, opts["t"])
    phase = np.exp(-1j * evals[0] * opts["t"] / params.hbar)
    payload = {
        "dimension": model.dim,
        "ground_energy": float(evals[0]),
        "eigengap": current.eigengap,
        "max_ground_current": current.max_abs,
        "evolution_phase_error": float(np.linalg.norm(psi_t - phase * psi0)),
    }
    if opts["chains"] > 0:
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
            "occupation_p": _pooled_chisquare(observed, expected),
            "node_warnings": result.node_warnings,
        }
    write_json(os.path.join(out, "lattice.json"), payload, prov)
    return 0


def _cmd_potential(config, out):
    system = config.charge_system()
    opts = config.options("potential")
    prov = _provenance(config, ("model", "potential"), {})
    rows = []
    for i in range(1, system.n_sources + 1):
        for j in range(i + 1, system.n_sources + 1):
            pair = effective_kappa(system, i, j)
            rows.append((i, j, pair.kappa, pair.interaction_range))
    write_csv(
        os.path.join(out, "kappa_table.csv"), ("i", "j", "kappa", "range"), rows, prov
    )
    payload = {"ground_energy": ground_energy(system), "pairs": len(rows)}
    if opts["verify"]:
        report = verify_eigen_vacuum(ground_state(system))
        payload["vacuum_check"] = {
            "numeric_energy": report.numeric_energy,
            "closed_form_energy": report.closed_form_energy,
            "rel_error": report.rel_error,
            "passed": report.passed,
        }
    write_json(os.path.join(out, "potential.json"), payload, prov)
    return 0


def _witness_pair(pair):
    u, v = pair
    return [[u.real, u.imag], [v.real, v.imag]]


def _cmd_boundary(config, out):
    opts = config.options("boundary")
    m, hbar = opts["m"], opts["hbar"]
    line = config.section_lines.get("boundary")
    prov = _provenance(config, ("boundary",), {})
    rows = []
    currents = []
    for theta in opts["theta"]:
        for k, energy in periodic_spectrum(theta, m, hbar, n_range=opts["n_levels"], verify=False):
            rows.append((theta, k, energy))
        verdict = symmetry_verdict_periodic(theta)
        discrete = discrete_periodic_ground(theta, m, hbar, n_grid=opts["grid"])
        currents.append(
            {
                "theta": theta,
                "ground_current": periodic_ground_current(theta, m, hbar),
                "symmetric": verdict.symmetric,
                "distance_to_pi_multiple": verdict.distance_to_pi_multiple,
                "discrete": {
                    "grid": opts["grid"],
                    "eigenvalue": discrete.eigenvalue,
                    "continuum_energy": discrete.continuum_energy,
                    "energy_rel_error": discrete.energy_rel_error,
                    "current": discrete.current,
                    "current_rel_error": discrete.current_rel_error,
                },
            }
        )
    write_csv(os.path.join(out, "spectra.csv"), ("theta", "k", "E"), rows, prov)
    write_json(os.path.join(out, "currents.json"), {"levels": currents}, prov)
    if opts["witness"]:
        entries = []
        for wr in opts["witness"]:
            try:
                witness_in = WitnessInput(
                    alpha=complex(wr[0], wr[1]), beta=complex(wr[2], wr[3]), psi_q=complex(wr[4], wr[5])
                )
            except ValueError as exc:
                raise ConfigError(str(exc), line) from exc
            witness = emission_witness(witness_in, m, hbar)
            entries.append(
                {
                    "alpha": witness_in.alpha,
                    "beta": witness_in.beta,
                    "psi_q": witness_in.psi_q,
                    "positive": _witness_pair(witness.positive),
                    "negative": _witness_pair(witness.negative),
                    "current_positive": witness.current_positive,
                    "current_negative": witness.current_negative,
                }
            )
        write_json(os.path.join(out, "witnesses.json"), {"witnesses": entries}, prov)
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
            raise ConfigError(str(exc), line) from exc
        verdicts = is_probability_conserving(bc)
        payload = {
            "ends": [
                {
                    "end": end,
                    "conserving": v.conserving,
                    "dirichlet": v.dirichlet,
                    "leak_coefficient": v.leak_coefficient,
                }
                for end, v in ((0, verdicts.end0), (1, verdicts.end1))
            ],
            "conserving": verdicts.conserving,
        }
        tested = verdicts.end1 if opts["leak_end"] == 1 else verdicts.end0
        opposite = verdicts.end0 if opts["leak_end"] == 1 else verdicts.end1
        if not tested.conserving and opposite.conserving:
            leak = robin_leak_check(
                bc, end=opts["leak_end"], n_grid=opts["grid"], m=m, hbar=hbar, tol=opts["leak_tol"]
            )
            payload["leak"] = {
                "end": leak.end,
                "measured": leak.measured,
                "predicted": leak.predicted,
                "rel_error": leak.rel_error,
                "passed": leak.passed,
                "sample_time": leak.sample_time,
            }
            write_csv(
                os.path.join(out, "norm_decay.csv"),
                ("t", "norm"),
                zip(leak.times, leak.norms),
                prov,
            )
        write_json(os.path.join(out, "robin.json"), payload, prov)
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
    """Execute a validated RunConfig; returns the process exit code."""
    if config.command not in _HANDLERS:
        raise ConfigError(f"unknown command '{config.command}'")
    if config.command == "lattice":
        return _cmd_lattice(config, config.out_dir, check=check)
    if check is not None:
        raise ConfigError("--check applies to the lattice command only")
    return _HANDLERS[config.command](config, config.out_dir)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="chargeflow",
        description="Particle-creation models: symmetry reports, fields, trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the config file")
        cmd.add_argument("--out", default=None, help="output directory (default from [run])")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        if name == "lattice":
            cmd.add_argument(
                "--check",
                choices=("gauge", "commutation", "reversal"),
                default=None,
                help="run one verification instead of the full build",
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
        return dispatch(config, check=getattr(args, "check", None))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
