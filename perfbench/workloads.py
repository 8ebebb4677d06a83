"""Workload definitions: generated configs, CLI steps and output checks.

Every input is a pure function of the workload seed: the seed becomes the
config's master seed, so the program's own derived streams (ensemble draws,
streamline seed directions, Bell chains, the random state of the reversal
check) all follow from it.  Sizes are fixed per scale, never per seed.

The statistical gates (equivariance p-values, Bell occupation p-value) are
checked against P_FLOOR instead of the program's own 0.01 verdict: comparing
two versions runs these workloads at dozens of seeds, and a 1% per-test
false-alarm rate would then fail honest runs most of the time.  A broken
process gives p-values far below the floor at these ensemble sizes.
"""

import csv
import hashlib
import json
import os
from dataclasses import dataclass

WORKLOADS = ("ensemble", "lattice", "paths")
DEFAULT_SEED = 12345
P_FLOOR = 1e-4
RING_TOL = 1e-4

# the figure system: unit-separated sources with couplings (1, e^{i pi/4}),
# E0 = 0.005 (alpha = 0.1)
_FIGURE_MODEL = """\
[model]
charge = 1.0 0.0 0.0 0.0 0.0
charge = 0.70710678118654757 0.70710678118654746 1.0 0.0 0.0
m = 1.0
E0 = 0.005
hbar = 1.0
"""

_BOUNDARY = """\
[boundary]
theta = 0.3 1.0 2.0
n_levels = 3
grid = 512
witness = 1.0 0.0 0.0 0.0 1.0 0.0
witness = 0.0 0.0 1.0 0.0 1.0 0.0
witness = 0.0 5.0 1.0 0.0 2.0 0.0
robin = 1.0 0.0 0.0 0.0 0.0 1.0 1.0 0.0
"""

# per scale: "full" is what the benchmark measures, "tiny" serves the self-test
SIZES = {
    "full": {
        "ensemble_runs": 1000,
        "ensemble_t": 1.0,
        "chain_L": 14,
        "chain_n_max": 3,
        "chains": 20000,
        "chain_t": 0.2,
        "gauge_L": 20,
        "gauge_n_max": 4,
        "stream_seeds": 60,
        "trajectory_t": 30.0,
        "field_n": 201,
    },
    "tiny": {
        "ensemble_runs": 1000,
        "ensemble_t": 0.1,
        "chain_L": 8,
        "chain_n_max": 2,
        "chains": 2000,
        "chain_t": 0.02,
        "gauge_L": 10,
        "gauge_n_max": 2,
        "stream_seeds": 4,
        "trajectory_t": 2.0,
        "field_n": 11,
    },
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: `chargeflow <command> --config <config> [extra]`."""

    label: str
    config: str
    command: str
    extra: tuple
    expect_rc: int
    timer: str  # end-to-end command metric it counts toward, or "" for wall_s only

    def argv(self, config_path, out_dir):
        return [self.command, "--config", config_path, "--out", out_dir, *self.extra]


def configs(workload, seed, scale="full"):
    """Config texts by name for one workload."""
    z = SIZES[scale]
    run = f"[run]\nseed = {seed % 2**64}\nout = out\n"
    if workload == "ensemble":
        t = z["ensemble_t"]
        return {
            "ensemble": run
            + _FIGURE_MODEL
            + "[simulate]\ntrajectory = false\n"
            + f"runs = {z['ensemble_runs']}\nt_max = {t!r}\n"
            + f"sample_times = {t / 2!r} {t!r}\ndt = 0.01\n"
        }
    if workload == "lattice":
        return {
            "chain": run
            + "[lattice]\n"
            + f"L = {z['chain_L']}\nn_max = {z['chain_n_max']}\n"
            + f"source_sites = 2 {z['chain_L'] - 4}\n"
            + "charge = 1.0 0.0\ncharge = 0.0 1.0\nE0 = 0.5\ntheta = 0.0\n"
            + f"t = {z['chain_t']!r}\nchains = {z['chains']}\n",
            "gauge": run
            + "[lattice]\n"
            + f"L = {z['gauge_L']}\nn_max = {z['gauge_n_max']}\n"
            + f"source_sites = 3 {z['gauge_L'] - 5}\n"
            + "charge = 1.0 0.0\ncharge = 0.0 1.0\nE0 = 0.5\ntheta = 0.7\n",
        }
    if workload == "paths":
        n = z["field_n"]
        return {
            "figure": run
            + _FIGURE_MODEL
            + "[symmetry]\ntol = 1e-10\n"
            + "[field]\nx_min = -0.8\nx_max = 1.8\ny_min = -1.3\ny_max = 1.3\n"
            + f"z = 0.0\nnx = {n}\nny = {n}\n"
            + f"[streamlines]\nsource = 2\nn_seeds = {z['stream_seeds']}\n"
            + "seed_radius = 0.05\nmax_arc = 40.0\n"
            + f"[simulate]\nruns = 0\nt_max = {z['trajectory_t']!r}\n"
            + "[potential]\nverify = true\n"
            + _BOUNDARY
        }
    raise ValueError(f"unknown workload {workload!r}")


def steps(workload):
    """The CLI steps of one workload iteration, in order."""
    if workload == "ensemble":
        return (Step("simulate", "ensemble", "simulate", (), 0, "simulate_s"),)
    if workload == "lattice":
        return (
            Step("lattice", "chain", "lattice", (), 0, "lattice_s"),
            Step("commutation", "chain", "lattice", ("--check", "commutation"), 3, "lattice_check_s"),
            Step("reversal", "chain", "lattice", ("--check", "reversal"), 3, "lattice_check_s"),
            Step("gauge", "gauge", "lattice", ("--check", "gauge"), 0, "lattice_check_s"),
        )
    if workload == "paths":
        return (
            Step("streamlines", "figure", "streamlines", (), 0, "streamlines_s"),
            Step("trajectory", "figure", "simulate", (), 0, "simulate_s"),
            Step("field", "figure", "field", (), 0, "field_s"),
            Step("boundary", "figure", "boundary", (), 0, ""),
            Step("potential", "figure", "potential", (), 0, ""),
            Step("symmetry", "figure", "symmetry", (), 0, ""),
        )
    raise ValueError(f"unknown workload {workload!r}")


class Checks:
    """Tally of output checks; each one is an operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return bool(ok)


def _load_json(checks, path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        checks.expect(f"{os.path.basename(path)} parses ({exc})", False)
        return None
    checks.expect(f"{os.path.basename(path)} parses", True)
    return doc


def _load_jsonl(checks, path):
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                records.append(json.loads(line))
    except (OSError, ValueError) as exc:
        checks.expect(f"{os.path.basename(path)} parses ({exc})", False)
        return None
    checks.expect(f"{os.path.basename(path)} parses", True)
    return records


def _csv_rows(checks, path, width):
    """Data rows of a provenance-headed CSV; each row must have `width` fields."""
    try:
        with open(path, encoding="utf-8") as handle:
            body = [line for line in handle if not line.startswith("#")]
    except OSError as exc:
        checks.expect(f"{os.path.basename(path)} readable ({exc})", False)
        return []
    rows = list(csv.reader(body[1:]))
    checks.expect(f"{os.path.basename(path)} rows have {width} fields", all(len(r) == width for r in rows))
    return rows


def _get(doc, *keys):
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def check_outputs(workload, out_dirs, checks, scale="full"):
    """Validate one iteration's artifacts; `out_dirs` maps step label to dir."""
    z = SIZES[scale]
    if workload == "ensemble":
        stats = _load_json(checks, os.path.join(out_dirs["simulate"], "statistics.json"))
        eq = _get(stats, "equivariance", "samples") or []
        checks.expect("equivariance has both sample times", len(eq) == 2)
        for s in eq:
            ps = [s["sector_p"], s["radial_p"]] + ([s["angular_p"]] if s["angular_p"] is not None else [])
            checks.expect(f"equivariance p-values above {P_FLOOR} at t={s['time']}", min(ps) > P_FLOOR)
        checks.expect("reversal is not balanced", _get(stats, "reversal", "balanced") is False)
        return
    if workload == "lattice":
        chain, dim = out_dirs["lattice"], None
        doc = _load_json(checks, os.path.join(chain, "lattice.json"))
        dim = _get(doc, "dimension")
        spectrum = _csv_rows(checks, os.path.join(chain, "spectrum.csv"), 2)
        checks.expect("spectrum.csv has one row per basis state", dim is not None and len(spectrum) == dim)
        p = _get(doc, "bell", "occupation_p")
        checks.expect(f"Bell occupation p-value above {P_FLOOR}", p is not None and p > P_FLOOR)
        for label, want in (("commutation", False), ("reversal", False), ("gauge", True)):
            check = _load_json(checks, os.path.join(out_dirs[label], "lattice_check.json"))
            checks.expect(f"{label} check passed is {want}", _get(check, "passed") is want)
        return
    if workload == "paths":
        n_seeds = z["stream_seeds"]
        lines = _load_json(checks, os.path.join(out_dirs["streamlines"], "streamlines.json"))
        entries = _get(lines, "lines") or []
        checks.expect(
            "every streamline hits source 1",
            len(entries) == n_seeds
            and all(e["termination"] == "source_hit" and e["source"] == 1 for e in entries),
        )
        rows = _csv_rows(checks, os.path.join(out_dirs["streamlines"], "streamlines.csv"), 10)
        checks.expect("streamlines.csv covers every line", {r[0] for r in rows} == {str(i) for i in range(n_seeds)})
        records = _load_jsonl(checks, os.path.join(out_dirs["trajectory"], "trajectory.jsonl")) or [{}]
        summary = records[-1]
        checks.expect("trajectory ends with a summary", summary.get("type") == "summary")
        checks.expect("trajectory has no failure", "failure" in summary and summary["failure"] is None)
        paths = _csv_rows(checks, os.path.join(out_dirs["trajectory"], "trajectory_paths.csv"), 5)
        checks.expect("trajectory_paths.csv is not empty", len(paths) > 0)
        field = _csv_rows(checks, os.path.join(out_dirs["field"], "field.csv"), 8)
        checks.expect("field.csv has one row per grid node", len(field) == z["field_n"] ** 2)
        bdir = out_dirs["boundary"]
        spectra = _csv_rows(checks, os.path.join(bdir, "spectra.csv"), 3)
        checks.expect("spectra.csv has 7 levels per theta", len(spectra) == 21)
        currents = _get(_load_json(checks, os.path.join(bdir, "currents.json")), "levels") or []
        checks.expect(
            f"ring relative errors at most {RING_TOL}",
            len(currents) == 3
            and all(
                c["discrete"]["energy_rel_error"] <= RING_TOL
                and c["discrete"]["current_rel_error"] is not None
                and c["discrete"]["current_rel_error"] <= RING_TOL
                for c in currents
            ),
        )
        witnesses = _get(_load_json(checks, os.path.join(bdir, "witnesses.json")), "witnesses") or []
        checks.expect("one witness per witness line", len(witnesses) == 3)
        robin = _load_json(checks, os.path.join(bdir, "robin.json"))
        checks.expect("Robin leak check passed", _get(robin, "leak", "passed") is True)
        decay = _csv_rows(checks, os.path.join(bdir, "norm_decay.csv"), 2)
        checks.expect("norm_decay.csv is not empty", len(decay) > 0)
        pot = _load_json(checks, os.path.join(out_dirs["potential"], "potential.json"))
        checks.expect("vacuum check passed", _get(pot, "vacuum_check", "passed") is True)
        kappa = _csv_rows(checks, os.path.join(out_dirs["potential"], "kappa_table.csv"), 4)
        checks.expect("kappa_table.csv has one source pair", len(kappa) == 1)
        sym = _load_json(checks, os.path.join(out_dirs["symmetry"], "symmetry.json"))
        checks.expect("figure charges are not symmetric", _get(sym, "symmetric") is False)
        return
    raise ValueError(f"unknown workload {workload!r}")


def artifact_digest(out_dirs):
    """sha256 over every artifact, to check that repeated iterations agree."""
    h = hashlib.sha256()
    for label in sorted(out_dirs):
        if not os.path.isdir(out_dirs[label]):
            continue
        for name in sorted(os.listdir(out_dirs[label])):
            h.update(f"{label}/{name}\n".encode())
            with open(os.path.join(out_dirs[label], name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()
