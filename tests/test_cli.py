import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeflow.cli import main
from chargeflow.config import ConfigError, parse_config
from chargeflow.groundstate import ground_energy
from chargeflow.io import (
    Provenance,
    _json_text,
    derive_seed,
    format_value,
    write_csv,
    write_json,
    write_jsonl,
)

ROOT = Path(__file__).resolve().parents[1]
FIGURE_CFG = ROOT / "configs" / "figure.cfg"

# Couplings (1, i) one unit apart: asymmetric, source 2 emits, source 1 absorbs.
MODEL = """\
[model]
charge = 1.0 0.0 0.0 0.0 0.0
charge = 0.0 1.0 1.0 0.0 0.0
"""

FIELD_SMALL = MODEL + """
[field]
x_min = -0.4
x_max = 1.4
y_min = -0.6
y_max = 0.6
nx = 5
ny = 4
"""

STREAM_SMALL = MODEL + """
[streamlines]
source = 2
n_seeds = 4
seed_radius = 0.05
max_arc = 40.0
"""

# Small E0 widens the bound state so the figure-scale emission rate applies.
SIM_TRAJ = MODEL + """
E0 = 0.005

[simulate]
t_max = 10.0
dt_max = 0.05
runs = 0
"""

SIM_ENS = MODEL + """
E0 = 0.005

[simulate]
t_max = 2.0
dt = 0.01
runs = 150
trajectory = false
"""

LATTICE_SMALL = """\
[lattice]
L = 4
n_max = 2
source_sites = 1 3
charge = 1.0 0.0
charge = 0.0 1.0
E0 = 0.5
t = 0.8
chains = 200
"""

LATTICE_REAL = """\
[lattice]
L = 4
n_max = 2
source_sites = 1 3
charge = 1.0 0.0
charge = -2.0 0.0
E0 = 0.5
"""

POTENTIAL_CFG = MODEL + """
E0 = 0.5

[potential]
verify = true
"""

BOUNDARY_CFG = """\
[boundary]
theta = 0.3 2.0
n_levels = 2
grid = 128
witness = 0.0 5.0 1.0 0.0 2.0 0.0
robin = 1.0 0.0 0.0 0.0 0.0 1.0 1.0 0.0
"""


def run_cli(tmp_path, text, command, *extra):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return comments, header, rows


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------- config


def test_parse_defaults_and_sha():
    config = parse_config(MODEL)
    assert config.config_sha256 == hashlib.sha256(MODEL.encode()).hexdigest()
    assert config.seed == 0
    assert config.out_dir == "out"
    assert config.options("model")["m"] == 1.0
    assert config.options("simulate")["t_max"] == 10.0
    assert config.options("simulate")["trajectory"] is True
    system = config.charge_system()
    assert system.n_sources == 2
    np.testing.assert_allclose(system.charges, [1.0, 1.0j])


def test_with_command_overrides():
    config = parse_config(MODEL).with_command("field", seed=7, out_dir="elsewhere")
    assert config.command == "field"
    assert config.seed == 7
    assert config.out_dir == "elsewhere"
    with pytest.raises(ConfigError, match="unknown command 'nope'"):
        parse_config(MODEL).with_command("nope")


def test_parse_comments_and_inline_values():
    text = "# header comment\n[model]\ncharge = 1 0 0 0 0\nm = 2.5\n"
    config = parse_config(text)
    assert config.options("model")["m"] == 2.5


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (MODEL + "bogus = 3\n", r"line 4: unknown key 'bogus' in section \[model\]"),
        ("[nope]\n", r"line 1: unknown section \[nope\]"),
        ("[model\ncharge = 1 0 0 0 0\n", r"line 1: malformed section header"),
        ("charge = 1 0 0 0 0\n", r"line 1: key outside of any section"),
        ("[model]\ncharge 1 0 0 0 0\n", r"line 2: expected 'key = value'"),
        ("[model]\ncharge = 1 0 0 0\n", r"line 2: key 'charge' expects 5 numbers, got 4"),
        ("[model]\ncharge = a b c d e\n", r"line 2: key 'charge' expects 5 numbers"),
        ("[field]\nnx = 2.5\n", r"line 2: key 'nx' expects an integer"),
        ("[model]\nm = abc\n", r"line 2: key 'm' expects a number"),
        ("[simulate]\ntrajectory = maybe\n", r"line 2: key 'trajectory' expects a boolean"),
        ("[field]\nnx = 5\nnx = 7\n", r"line 3: duplicate key 'nx'"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[model]\ncharge = 0 0 0 0 0\n", "couplings must be nonzero"),
        ("[model]\nE0 = -1.0\ncharge = 1 0 0 0 0\n", "'E0' must be nonnegative"),
        (MODEL + "\n[field]\nnx = 1\n", "nx, ny >= 2"),
        (MODEL + "\n[field]\nx_min = 2.0\n", "min < max"),
        (MODEL + "\n[streamlines]\nsource = 0\n", "1-based"),
        (MODEL + "\n[simulate]\nruns = -1\n", "'runs' must be nonnegative"),
        (MODEL + "\n[simulate]\nruns = 10\nsample_times = 1.0\n", "runs >= 1000"),
        (
            MODEL + "\n[simulate]\nruns = 1000\nsample_times = 0.005\n",
            "lie on the dt grid",
        ),
        (
            MODEL + "\n[simulate]\nruns = 1000\nsample_times = 99.0\n",
            "sample times exceed t_max",
        ),
        ("[lattice]\nL = 1\n", "L >= 2"),
        ("[boundary]\ngrid = 4\n", "'grid' must be at least 8"),
        ("[boundary]\ntheta = 4.0\n", r"lie in \(-pi, pi\]"),
        ("[boundary]\nleak_end = 2\n", "'leak_end' must be 0 or 1"),
    ],
)
def test_validation_rejects_bad_values(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_charge_system_requires_sources():
    with pytest.raises(ConfigError, match="at least one 'charge' line"):
        parse_config("[model]\nm = 1.0\n").charge_system()


def test_coincident_sources_rejected():
    text = "[model]\ncharge = 1 0 0 0 0\ncharge = 0 1 0 0 0\n"
    with pytest.raises(ConfigError, match="pairwise distinct"):
        parse_config(text).charge_system()


def test_lattice_source_sites_must_be_integers():
    with pytest.raises(ConfigError, match="expects integers"):
        parse_config("[lattice]\nsource_sites = 1.5 3.0\n").lattice_params()


def test_shipped_figure_config_parses():
    config = parse_config(FIGURE_CFG.read_text())
    system = config.charge_system()
    assert system.n_sources == 2
    assert config.options("simulate")["runs"] == 5000


# ---------------------------------------------------------------- seeds


def test_derive_seed_matches_seed_sequence():
    state = np.random.SeedSequence(11, spawn_key=(4,)).generate_state(2)
    assert derive_seed(11, 4) == int(state[0]) | (int(state[1]) << 32)


def test_derive_seed_streams_are_distinct():
    seeds = [derive_seed(0, k) for k in range(64)]
    assert len(set(seeds)) == 64
    assert all(0 <= s < 2**64 for s in seeds)
    assert derive_seed(0, 0) != derive_seed(1, 0)
    with pytest.raises(ValueError, match="count from 0"):
        derive_seed(0, -1)


# ---------------------------------------------------------------- writers


def prov_stub():
    return Provenance(
        command="test",
        config_sha256="0" * 64,
        master_seed=1,
        seed_streams={"demo": 0},
        options={"model": {"m": 1.5, "charge": ((1.0, 0.0),)}},
    )


def test_format_value_round_trips_floats():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=1e3, size=200):
        assert float(format_value(float(x))) == x
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(7) == "7"
    assert format_value(0.1) == "0.10000000000000001"


def test_write_csv_provenance_and_atomicity(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b"), [(1, 0.1), (2, 0.25)], prov_stub())
    assert os.listdir(tmp_path) == ["table.csv"]
    comments, header, rows = read_csv(path)
    assert comments[0].startswith("# chargeflow ")
    assert any("command: test" in c for c in comments)
    assert any("config sha256: " + "0" * 64 in c for c in comments)
    assert any("master seed: 1" in c for c in comments)
    assert any("seed[demo]" in c and "stream 0" in c for c in comments)
    assert any("option model.m = 1.5" in c for c in comments)
    assert header == "a,b"
    assert rows == [["1", "0.10000000000000001"], ["2", "0.25"]]


def test_write_json_provenance_and_17_digit_floats(tmp_path):
    path = tmp_path / "out.json"
    payload = {"x": 0.1, "z": complex(1.0, -2.0), "arr": np.array([1.0, 0.5])}
    write_json(path, payload, prov_stub())
    text = path.read_text()
    assert "0.10000000000000001" in text
    data = json.loads(text)
    assert list(data)[0] == "_provenance"
    assert data["_provenance"]["master_seed"] == 1
    assert data["_provenance"]["derived_seeds"]["demo"]["seed"] == derive_seed(1, 0)
    assert data["x"] == 0.1
    assert data["z"] == [1.0, -2.0]
    assert data["arr"] == [1.0, 0.5]


def test_write_jsonl_one_record_per_line(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"a": 0.1}, {"b": [1, 2]}], prov_stub())
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "provenance"
    assert records[1] == {"a": 0.1}
    assert records[2] == {"b": [1, 2]}


def test_writers_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"x": 1 / 3}, prov_stub())
    write_json(b, {"x": 1 / 3}, prov_stub())
    assert a.read_bytes() == b.read_bytes()


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _finite_or_null(doc):
    if isinstance(doc, float):
        return doc if np.isfinite(doc) else None
    if isinstance(doc, list):
        return [_finite_or_null(v) for v in doc]
    if isinstance(doc, dict):
        return {k: _finite_or_null(v) for k, v in doc.items()}
    return doc


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_emitter_writes_valid_json(doc):
    # every document parses, non-finite floats become null, and finite
    # floats survive the 17-digit format exactly
    for indent in (0, None):
        assert json.loads(_json_text(doc, indent=indent)) == _finite_or_null(doc)


def test_artifacts_honour_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_csv(tmp_path / "a.csv", ("a",), [(1,)], prov_stub())
        os.umask(0o002)
        write_json(tmp_path / "b.json", {"x": 1}, prov_stub())
    finally:
        os.umask(old)
    assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o640
    assert (tmp_path / "b.json").stat().st_mode & 0o777 == 0o664


# ---------------------------------------------------------------- commands


def test_symmetry_on_shipped_config(tmp_path):
    out = tmp_path / "fig"
    code = main(["symmetry", "--config", str(FIGURE_CFG), "--out", str(out)])
    assert code == 0
    payload = read_json(out / "symmetry.json")
    assert payload["symmetric"] is False
    assert payload["witness"] == [1, 2]
    assert payload["_provenance"]["command"] == "symmetry"


def test_symmetry_real_charges(tmp_path):
    text = "[model]\ncharge = 1 0 0 0 0\ncharge = -2 0 1 0 0\n"
    code, out = run_cli(tmp_path, text, "symmetry")
    assert code == 0
    payload = read_json(out / "symmetry.json")
    assert payload["symmetric"] is True
    assert payload["witness"] is None


def test_symmetry_reports_boundary_couplings(tmp_path):
    text = MODEL + "\n[symmetry]\nibc_thetas = 0.3 0.3 0.3\n"
    code, out = run_cli(tmp_path, text, "symmetry")
    assert code == 0
    payload = read_json(out / "symmetry.json")
    assert payload["ibc"]["symmetric"] is True


def test_field_grid_artifact(tmp_path):
    code, out = run_cli(tmp_path, FIELD_SMALL, "field")
    assert code == 0
    comments, header, rows = read_csv(out / "field.csv")
    assert header == "x,y,z,jx,jy,jz,|psi1|,phase"
    assert len(rows) == 5 * 4
    assert any("option field.nx = 5" in c for c in comments)
    data = np.array([[float(v) for v in row] for row in rows])
    assert np.all(data[:, 2] == 0.0)
    assert np.all(data[:, 6] > 0.0)
    assert np.any(np.abs(data[:, 3:6]) > 0.0)


def test_field_outputs_byte_identical_across_out_dirs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIELD_SMALL)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "field.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_seed_flag_overrides_config(tmp_path):
    code, out = run_cli(tmp_path, MODEL, "symmetry", "--seed", "9")
    assert code == 0
    assert read_json(out / "symmetry.json")["_provenance"]["master_seed"] == 9


def test_streamlines_artifacts(tmp_path):
    code, out = run_cli(tmp_path, STREAM_SMALL, "streamlines")
    assert code == 0
    summary = read_json(out / "streamlines.json")
    assert summary["terminations"] == {"source_hit": 4}
    assert [line["source"] for line in summary["lines"]] == [1, 1, 1, 1]
    comments, header, rows = read_csv(out / "streamlines.csv")
    assert header == "line,s,x,y,z,jx,jy,jz,|psi1|,phase"
    assert {row[0] for row in rows} == {"0", "1", "2", "3"}


def test_streamlines_source_label_out_of_range(tmp_path):
    code, _ = run_cli(tmp_path, MODEL + "\n[streamlines]\nsource = 3\n", "streamlines")
    assert code == 1


def test_simulate_trajectory_artifacts(tmp_path):
    code, out = run_cli(tmp_path, SIM_TRAJ, "simulate", "--seed", "1")
    assert code == 0
    lines = (out / "trajectory.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "provenance"
    assert records[-1]["type"] == "summary"
    kinds = {r["type"] for r in records}
    assert kinds <= {"provenance", "move", "emit", "absorb", "summary"}
    assert any(r["type"] == "emit" and r["source"] == 2 for r in records)
    assert all(r["source"] == 1 for r in records if r["type"] == "absorb")
    emits = sum(r["type"] == "emit" for r in records)
    absorbs = sum(r["type"] == "absorb" for r in records)
    assert records[-1]["final_sector"] == records[-1]["initial_sector"] + emits - absorbs
    assert records[-1]["failure"] is None
    _, header, rows = read_csv(out / "trajectory_paths.csv")
    assert header == "particle,t,x,y,z"
    assert len(rows) > 10
    assert not (out / "statistics.json").exists()


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SIM_TRAJ)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
        blobs.append((out / "trajectory.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_simulate_ensemble_statistics(tmp_path):
    code, out = run_cli(tmp_path, SIM_ENS, "simulate", "--seed", "2")
    assert code == 0
    assert not (out / "trajectory.jsonl").exists()
    stats = read_json(out / "statistics.json")
    assert stats["poisson_rate"] > 0.0
    law = stats["emission_law"]
    assert law["rates"][0] == 0.0
    assert law["rates"][1] > 0.0
    rev = stats["reversal"]
    assert rev["runs"] == 150
    assert rev["emissions"][0] == 0
    assert rev["emissions"][1] > 0
    assert rev["absorptions"][0] > 0
    assert len(rev["p_values"]) == 2
    assert rev["flux_balance_error"] >= 0.0
    assert "equivariance" not in stats


def test_lattice_full_artifacts(tmp_path):
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice")
    assert code == 0
    _, header, rows = read_csv(out / "spectrum.csv")
    assert header == "index,eigenvalue"
    assert len(rows) == 15
    evals = [float(row[1]) for row in rows]
    assert evals == sorted(evals)
    payload = read_json(out / "lattice.json")
    assert payload["dimension"] == 15
    assert payload["ground_energy"] == evals[0]
    assert payload["evolution_phase_error"] < 1e-8
    assert payload["max_ground_current"] > 0.0
    bell = payload["bell"]
    assert bell["chains"] == 200
    assert bell["occupation_p"] > 1e-4


def test_lattice_check_gauge_passes(tmp_path):
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice", "--check", "gauge")
    assert code == 0
    payload = read_json(out / "lattice_check.json")
    assert payload["check"] == "gauge"
    assert payload["passed"] is True
    assert payload["norm"] <= 1e-12


def test_lattice_check_commutation_real_charges_pass(tmp_path):
    code, out = run_cli(tmp_path, LATTICE_REAL, "lattice", "--check", "commutation")
    assert code == 0
    assert read_json(out / "lattice_check.json")["passed"] is True


def test_lattice_check_commutation_asymmetric_fails(tmp_path):
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice", "--check", "commutation")
    assert code == 3
    payload = read_json(out / "lattice_check.json")
    assert payload["passed"] is False
    assert payload["norm"] > payload["tolerance"]


def test_lattice_check_reversal_asymmetric_fails(tmp_path):
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice", "--check", "reversal")
    assert code == 3
    payload = read_json(out / "lattice_check.json")
    assert payload["passed"] is False
    assert payload["commutator_norm"] > 0.0


def test_lattice_above_the_dense_limit_is_a_config_error(tmp_path, capsys):
    # L = 13, n_max = 4 has 2,380 basis states, above the 2,000-state dense limit
    big = LATTICE_SMALL.replace("L = 4\nn_max = 2", "L = 13\nn_max = 4")
    for extra in ((), ("--check", "commutation")):
        code, out = run_cli(tmp_path, big, "lattice", *extra)
        assert code == 1
        assert "dense limit of 2000" in capsys.readouterr().err
        assert not out.exists()


def test_potential_artifacts(tmp_path):
    code, out = run_cli(tmp_path, POTENTIAL_CFG, "potential")
    assert code == 0
    _, header, rows = read_csv(out / "kappa_table.csv")
    assert header == "i,j,kappa,range"
    assert len(rows) == 1
    assert rows[0][0] == "1" and rows[0][1] == "2"
    payload = read_json(out / "potential.json")
    system = parse_config(POTENTIAL_CFG).charge_system()
    np.testing.assert_allclose(payload["ground_energy"], ground_energy(system), rtol=1e-12)
    assert payload["vacuum_check"]["passed"] is True
    assert payload["vacuum_check"]["rel_error"] < 1e-6


def test_boundary_artifacts(tmp_path):
    code, out = run_cli(tmp_path, BOUNDARY_CFG, "boundary")
    assert code == 0
    _, header, rows = read_csv(out / "spectra.csv")
    assert header == "theta,k,E"
    assert len(rows) == 2 * 5
    for row in rows:
        k, energy = float(row[1]), float(row[2])
        np.testing.assert_allclose(energy, k * k / 2.0, rtol=1e-15)
    levels = read_json(out / "currents.json")["levels"]
    assert [lv["theta"] for lv in levels] == [0.3, 2.0]
    assert levels[0]["ground_current"] == 0.3
    assert levels[0]["symmetric"] is False
    assert levels[0]["discrete"]["energy_rel_error"] < 1e-3
    witness = read_json(out / "witnesses.json")["witnesses"][0]
    assert witness["alpha"] == [0.0, 5.0]
    assert witness["current_positive"] > 0.0
    assert witness["current_negative"] < 0.0
    robin = read_json(out / "robin.json")
    ends = {e["end"]: e for e in robin["ends"]}
    assert ends[0]["dirichlet"] is True and ends[0]["conserving"] is True
    assert ends[1]["conserving"] is False
    assert ends[1]["leak_coefficient"] == 1.0
    assert robin["conserving"] is False
    assert robin["leak"]["passed"] is True
    _, header, rows = read_csv(out / "norm_decay.csv")
    assert header == "t,norm"
    times = [float(row[0]) for row in rows]
    assert times == sorted(times) and times[0] == 0.0


# ---------------------------------------------------------------- exit codes


def test_exit_code_for_config_errors(tmp_path):
    code, _ = run_cli(tmp_path, MODEL + "bogus = 3\n", "symmetry")
    assert code == 1


def test_exit_code_for_missing_config(tmp_path):
    assert main(["symmetry", "--config", str(tmp_path / "none.cfg")]) == 1


def test_exit_code_for_unknown_command(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MODEL)
    assert main(["nosuch", "--config", str(cfg)]) == 1
    assert main([]) == 1


def test_exit_code_for_help():
    assert main(["--help"]) == 0


def test_exit_code_for_grid_node_on_source(tmp_path):
    text = MODEL + "\n[field]\nx_min = 0.0\nx_max = 1.0\nnx = 2\ny_min = 0.0\ny_max = 1.0\nny = 2\nz = 0.0\n"
    code, _ = run_cli(tmp_path, text, "field")
    assert code == 2


def test_check_flag_only_for_lattice(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MODEL)
    assert main(["symmetry", "--config", str(cfg), "--check", "gauge"]) == 1
