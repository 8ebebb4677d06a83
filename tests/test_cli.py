import contextlib
import dataclasses
import filecmp
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargeflow import cli, groundstate, lattice, process
from chargeflow.cli import main
from chargeflow.config import COMMANDS, ConfigError, parse_config
from chargeflow.groundstate import current_closed_form, ground_energy, psi1
from chargeflow.io import (
    Provenance,
    _json_text,
    atomic_write_text,
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
    assert parse_config(MODEL).with_command("field", seed=2**64 - 1).seed == 2**64 - 1
    for seed in (-5, 2**64):
        with pytest.raises(ConfigError, match="unsigned 64-bit"):
            parse_config(MODEL).with_command("field", seed=seed)


def test_parse_comments_and_inline_values():
    text = "# header comment\n[model]\ncharge = 1 0 0 0 0\nm = 2.5\n"
    config = parse_config(text)
    assert config.options("model")["m"] == 2.5


def test_semicolon_starts_a_comment():
    text = "; header comment\n[model]  ; sources\ncharge = 1 0 0 0 0 ; source 1\nm = 1.0 ; note\n"
    config = parse_config(text)
    assert config.options("model")["m"] == 1.0
    assert config.options("model")["charge"] == ((1.0, 0.0, 0.0, 0.0, 0.0),)


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
        ("[field]\nx_max = inf\n", r"line 2: key 'x_max' must be finite, got 'inf'"),
        ("[model]\nE0 = nan\n", r"line 2: key 'E0' must be finite, got 'nan'"),
        ("[model]\nm = 1e999\n", r"line 2: key 'm' must be finite"),
        ("[simulate]\nsample_times = 1.0 -inf\n", r"line 2: key 'sample_times' must be finite"),
        ("[model]\ncharge = 1 0 0 nan 0\n", r"line 2: key 'charge' must be finite"),
        ("[boundary]\nrobin = 1 0 0 0 0 1 inf 0\n", r"line 2: key 'robin' must be finite"),
        ("[run]\nseed = -5\n", r"line 2: key 'seed' must be an unsigned 64-bit integer"),
        ("[run]\nseed = 18446744073709551616\n", r"line 2: key 'seed' must be an unsigned"),
        ("[model]\ncharge = 1 0 0 0 0\nm = 1.0\nE0 = -1.0\n", r"line 4: key 'E0' must be nonneg"),
        ("[simulate]\nt_max = 2.0\ndt = 0.01\nruns = -1\n", r"line 4: key 'runs' must be nonneg"),
        ("[simulate]\nt_max = 2.0\ndt = 0.01\nruns = 1000001\n", r"line 4: key 'runs' may not exceed"),
        ("[model]\ncharge = 1 0 0 0 0\ncharge = 0 0 1 0 0\n", r"line 3: couplings must be nonzero"),
        ("[field]\nnx = 5\nny = 1\n", r"line 3: grid needs nx, ny >= 2"),
        ("[field]\nz = 0.0\ny_max = -2.0\n", r"line 3: grid bounds must satisfy min < max"),
        ("[boundary]\nm = 1.0\nhbar = 0\n", r"line 3: key 'hbar' must be positive"),
        ("[lattice]\nL = 4\nn_max = 0\n", r"line 3: lattice needs L >= 2 and n_max >= 1"),
        (
            "[simulate]\nruns = 1000\ndt = 0.01\nsample_times = 0.005\n",
            r"line 4: key 'sample_times' must lie on the dt grid",
        ),
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


@pytest.mark.parametrize(
    ("text", "command", "message"),
    [
        ("[lattice]\nL = 4\nsource_sites = 1 1\n", "lattice", "line 3: source sites must be distinct"),
        ("[lattice]\nL = 4\nsource_sites = 1.5 2\n", "lattice", "line 3: key 'source_sites' expects integers"),
        ("[lattice]\nL = 4\nsource_sites = 1 7\n", "lattice", "line 3: source sites must lie on the chain"),
        ("[lattice]\nL = 4\nE0 = 0.5\nsource_sites = 0 1 2\n", "lattice", "line 4: one coupling per source"),
        ("[lattice]\nL = 4\ncharge = 1 0\ncharge = 0 0\n", "lattice", "line 4: couplings must be nonzero"),
        ("[lattice]\nL = 4\nE0 = -0.5\n", "lattice", "line 3: key 'E0' must be nonnegative"),
        ("[lattice]\nL = 40\nn_max = 8\n", "lattice", "line 3: basis dimension 377348994 exceeds"),
        (LATTICE_SMALL.replace("L = 4\nn_max = 2", "L = 13\nn_max = 4"), "lattice", "line 3: basis dimension 2380"),
        # 200 chains to t = 1e6 at the ground state's total jump rate 0.312
        # expect 6.2e7 jumps, and 10**400 chains are 10**400 units alone: both
        # exceed 2e7 units of work (one per chain plus one per jump)
        (
            LATTICE_SMALL.replace("t = 0.8", "t = 1e6"),
            "lattice",
            "line 8: the Bell ensemble of 200 chains to t = 1000000.0 exceeds 2e+07 units of work: "
            "one per chain plus one per jump, 3.12e+05 jumps per chain expected",
        ),
        (
            LATTICE_SMALL.replace("chains = 200", f"chains = {10**400}"),
            "lattice",
            "to t = 0.8 exceeds 2e+07 units of work: one per chain plus one per jump, 0.249 jumps",
        ),
        ("[boundary]\ntheta = 0.3\nn_levels = 100001\n", "boundary", "line 3: key 'n_levels' must lie in"),
        (
            "[model]\nm = 1.0\ncharge = 1 0 0 0 0\ncharge = 0 1 0 0 0\n",
            "field",
            "line 3: sources must be pairwise distinct",
        ),
        (MODEL + "\n[streamlines]\nn_seeds = 4\nsource = 3\n", "streamlines", "line 7: source label 3 exceeds"),
        (
            "[boundary]\ntheta = 0.3\nwitness = 1 0 0 0 1 0\nwitness = 1 0 0 0 0 0\n",
            "boundary",
            "line 4: psi(q) must be nonzero",
        ),
        ("[boundary]\ntheta = 0.3\nrobin = 0 0 0 0 1 0 0 0\n", "boundary", "line 3: boundary condition at end 0"),
        # currents that under- and overflow: the whole command writes nothing
        (
            "[boundary]\ntheta = 0.3\nwitness = 1 0 0 0 1 0\nwitness = 0 0 1 0 1e-200 0\n",
            "boundary",
            "line 4: the witness current is 0.0",
        ),
        (
            "[boundary]\ntheta = 0.3\nwitness = 1 0 1 0 1e200 0\nrobin = 1 0 0 0 0 1 1 0\n",
            "boundary",
            "line 3: the witness current is inf",
        ),
        # the ground state is not normalizable at E0 = 0
        (MODEL + "E0 = 0\n", "potential", "line 4: key 'E0' must be positive"),
        (MODEL + "E0 = 0\n", "simulate", "line 4: key 'E0' must be positive"),
        # a trajectory of more than 1e6 steps: at t_max = 1e308 its steps
        # stop advancing, at dt_max = 1e-300 it takes 5e299 of them
        (SIM_TRAJ.replace("t_max = 10.0", "t_max = 1e308"), "simulate", "line 8: the trajectory to"),
        (SIM_TRAJ.replace("dt_max = 0.05", "dt_max = 1e-300"), "simulate", "exceeds 1e+06 steps"),
        (MODEL + "E0 = 0.005\n[simulate]\ndt_max = 1e-300\n", "simulate", "line 6: the trajectory to"),
    ],
)
def test_late_config_errors_name_the_key_line(tmp_path, capsys, text, command, message):
    # errors on keys that only a command's model uses: each names its key's line
    code, out = run_cli(tmp_path, text, command)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("runs", [1000001, 2**64])
def test_run_count_above_the_bound_is_a_config_error(tmp_path, capsys, runs):
    # 2**64 runs once reached rng.poisson and exited 2 as a numerical failure
    text = SIM_TRAJ.replace("runs = 0", f"runs = {runs}\ntrajectory = false")
    code, out = run_cli(tmp_path, text, "simulate")
    assert code == 1
    assert "line 10: key 'runs' may not exceed 1000000" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    ("edit", "quantity"),
    [
        ("m = 1e308", "the ground energy"),
        ("hbar = 1e308", "m/(pi*hbar^2)"),
        ("hbar = 1e-320", "m/(pi*hbar^2)"),
    ],
)
def test_potential_outside_the_float_range_exits_2_naming_the_quantity(tmp_path, capsys, edit, quantity):
    key = edit.partition(" ")[0]
    text = FIGURE_CFG.read_text().replace(f"\n{key} = 1.0\n", f"\n{edit}\n", 1)
    assert edit in text
    code, out = run_cli(tmp_path, text, "potential")
    assert code == 2
    err = capsys.readouterr().err
    assert f"numerical failure: {quantity} leaves the float range" in err
    assert not out.exists()


def test_shipped_figure_config_parses():
    config = parse_config(FIGURE_CFG.read_text())
    system = config.charge_system()
    assert system.n_sources == 2
    assert config.options("simulate")["runs"] == 5000


_FIGURE_LINES = FIGURE_CFG.read_text().splitlines()
_FIGURE_KEY_LINES = [i for i, line in enumerate(_FIGURE_LINES) if "=" in line.partition("#")[0]]
# value shapes: empty, signed and edge numbers, non-finite, text, lists, an
# integer past u64, and a row of numbers
_VALUE_SHAPES = (
    "", "0", "-1", "1", "7", "0.5", "-0.0", "1e-320", "1e308", "nan", "inf", "-inf",
    "abc", "1 2", "true", str(2**64), "0 0 0 0 0",
)


@settings(max_examples=400, deadline=None)
@given(index=st.sampled_from(_FIGURE_KEY_LINES), value=st.sampled_from(_VALUE_SHAPES))
def test_single_line_edits_of_the_figure_config_parse_or_name_their_line(index, value):
    lines = list(_FIGURE_LINES)
    lines[index] = f"{lines[index].partition('=')[0]}= {value}"
    try:
        config = parse_config("\n".join(lines) + "\n")
        config.charge_system()
        config.lattice_params()
    except ConfigError as exc:
        assert exc.line is not None, str(exc)


# the figure config with every size cut down, for the commands to run
# cheaply, and with the lattice's a, m and hbar, which figure.cfg leaves at
# their defaults, written out so that single-line edits reach them
_REDUCED = {
    "nx = 101": "nx = 5",
    "ny = 101": "ny = 4",
    "n_seeds = 100": "n_seeds = 4",
    "max_arc = 40.0": "max_arc = 10.0",
    "L = 8": "L = 6",
    "chains = 20000": "chains = 200",
    "grid = 512": "grid = 64",
    # simulate runs its trajectory alone, and the ensemble's dt line is
    # dt_max, the trajectory's step
    "t_max = 10.0": "t_max = 0.5",
    "runs = 5000": "runs = 0",
    "sample_times = 5.0 10.0": "sample_times =",
    "dt = 0.01": "dt_max = 0.05",
    "E0 = 0.5": "E0 = 0.5\na = 1.0\nm = 1.0\nhbar = 1.0",
}
_REDUCED_LINES = "\n".join(_REDUCED.get(line, line) for line in _FIGURE_LINES).splitlines()
_REDUCED_KEY_LINES = [i for i, line in enumerate(_REDUCED_LINES) if "=" in line.partition("#")[0]]


def _non_finite(obj):
    """Every non-finite float in a payload, a record or a CSV block."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        return obj[~np.isfinite(obj)].tolist()
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        return [] if np.isfinite(obj) else [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.dtype == object):
        return [bad for item in obj for bad in _non_finite(item)]
    return []


@contextlib.contextmanager
def _writers_recording_non_finite(found):
    """The CLI's writers, as it binds them, each first recording into `found`
    the non-finite floats of its payload, records or blocks (lazily, as the
    writer consumes them) and of its provenance."""

    def checked(items):
        for item in items:
            found.extend(_non_finite(item))
            yield item

    def recording(writer):
        # write_csv takes its column names before the blocks
        def write(path, *args):
            *columns, data, provenance = args
            found.extend(_non_finite(provenance.json_dict()))
            if isinstance(data, dict):
                found.extend(_non_finite(data))
            else:
                data = checked(data)
            return writer(path, *columns, data, provenance)

        return write

    names = ("write_json", "write_csv", "write_jsonl")
    with mock.patch.multiple(cli, **{name: recording(getattr(cli, name)) for name in names}):
        yield


def test_the_writer_hook_records_every_non_finite_float(tmp_path):
    prov = Provenance("lattice", "0" * 64, 0, {}, {"lattice": {"t": 1.0}})
    found = []
    with _writers_recording_non_finite(found):
        cli.write_json(tmp_path / "a.json", {"x": [1.0, {"y": float("nan")}], "z": None}, prov)
        cli.write_csv(tmp_path / "b.csv", ("u", "v"), iter([(np.array([1.0, np.inf]), [2, 3])]), prov)
        cli.write_jsonl(tmp_path / "c.jsonl", [{"w": complex(1.0, -np.inf)}], prov)
    assert [str(value) for value in found] == ["nan", "inf", "(1-infj)"]
    assert (tmp_path / "b.csv").read_text().endswith("u,v\n1,2\ninf,3\n")


# every command, simulate with its trajectory alone (its ensemble is too slow
# to run this often); a command that exits 0 passes no NaN or infinity to a
# writer, whose JSON would print it as null; the extra examples are edits
# that once ran without end (the Bell chains at t = 1e308, the plane-wave
# levels at n_levels = 2**64, the trajectory at t_max = 1e308 and at
# dt_max = 1e-300)
@settings(max_examples=300, deadline=None)
@given(index=st.sampled_from(_REDUCED_KEY_LINES), value=st.sampled_from(_VALUE_SHAPES))
@example(index=_REDUCED_LINES.index("E0 = 0.005"), value="0")
@example(index=_REDUCED_LINES.index("t = 1.0"), value="1e308")
@example(index=_REDUCED_LINES.index("n_levels = 3"), value=str(2**64))
@example(index=_REDUCED_LINES.index("t_max = 0.5"), value="1e308")
@example(index=_REDUCED_LINES.index("dt_max = 0.05"), value="1e-300")
def test_single_line_edits_of_the_figure_config_run_or_fail_cleanly(index, value):
    lines = list(_REDUCED_LINES)
    lines[index] = f"{lines[index].partition('=')[0]}= {value}"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "edited.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        for command in (
            "potential", "symmetry", "field", "streamlines", "lattice", "boundary", "simulate"
        ):
            out = Path(tmp) / command
            found = []
            with _writers_recording_non_finite(found):
                code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 1, 2), (command, code)
            if code != 0:
                assert not out.exists() or not any(out.iterdir()), (command, code)
            else:
                assert not found, (command, found[:5])


@pytest.mark.parametrize("command", ["field", "streamlines"])
@pytest.mark.parametrize(
    ("edit", "quantity"),
    [
        ("E0 = 1e308", "alpha = sqrt(2*m*E0)/hbar"),
        ("m = 1e308", "alpha = sqrt(2*m*E0)/hbar"),
        ("hbar = 1e-320", "alpha = sqrt(2*m*E0)/hbar"),
        ("m = 1e-320", "the current or |psi1|"),
        ("hbar = 1e308", "the current or |psi1|"),
    ],
)
def test_field_outside_the_float_range_exits_2_naming_the_quantity(tmp_path, capsys, command, edit, quantity):
    key = edit.partition(" ")[0]
    lines = list(_REDUCED_LINES)
    # the first line of the key is the [model] one
    lines[next(i for i, line in enumerate(lines) if line.startswith(f"{key} = "))] = edit
    code, out = run_cli(tmp_path, "\n".join(lines) + "\n", command)
    assert code == 2
    assert f"numerical failure: {quantity} leaves the float range" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("block", [10**9, 2])
def test_a_grid_node_on_a_source_exits_2_and_leaves_no_output_directory(
    tmp_path, capsys, monkeypatch, block
):
    # the node (0, 0, 0) is source 1; in blocks of 2 it is in the third block
    monkeypatch.setattr(cli, "_BLOCK", block)
    grid = "[field]\nx_min = -1.0\nx_max = 1.0\ny_min = -1.0\ny_max = 1.0\nnx = 3\nny = 3\n"
    (tmp_path / "run.cfg").write_text(MODEL + grid)
    out = tmp_path / "fresh" / "out"
    code = main(["field", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: a grid node coincides with a source; shift the grid bounds\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_a_failed_field_write_leaves_no_output_directory(tmp_path, capsys):
    text = "\n".join(_REDUCED_LINES).replace("\nhbar = 1.0\n", "\nhbar = 1e308\n", 1) + "\n"
    (tmp_path / "run.cfg").write_text(text)
    out = tmp_path / "fresh" / "out"
    code = main(["field", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert code == 2
    assert "the current or |psi1| leaves the float range" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("command, text", [("symmetry", MODEL), ("simulate", SIM_TRAJ)])
@pytest.mark.parametrize("below", ["", "sub"])
def test_an_out_that_cannot_be_a_directory_exits_1_with_one_line(
    tmp_path, capsys, command, text, below
):
    # --out is an existing regular file, or a path through one
    (tmp_path / "run.cfg").write_text(text)
    (tmp_path / "taken").write_text("kept\n")
    out = tmp_path / "taken" / below
    code = main([command, "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize(
    ("section", "key", "command"),
    [
        ("streamlines", "max_arc", "streamlines"),
        ("streamlines", "eps_absorb", "streamlines"),
        ("streamlines", "domain_radius", "streamlines"),
        ("simulate", "eps_absorb", "simulate"),
        ("simulate", "eps_start", "simulate"),
    ],
)
def test_negative_radii_are_config_errors_at_their_line(tmp_path, capsys, section, key, command):
    # 0 keeps selecting the library default; a negative radius is an error
    lines = list(_FIGURE_LINES)
    edit = f"{key} = -1.0"
    if key == "max_arc":  # the one of the five that figure.cfg sets
        index = lines.index("max_arc = 40.0")
        lines[index] = edit
    else:
        index = lines.index(f"[{section}]") + 1
        lines.insert(index, edit)
    code, out = run_cli(tmp_path, "\n".join(lines) + "\n", command)
    assert code == 1
    assert f"line {index + 1}: key '{key}' must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "streamlines"])
def test_field_tables_do_not_depend_on_the_block_size(tmp_path, monkeypatch, command):
    text = "\n".join(_REDUCED_LINES) + "\n"
    tables = []
    for block in (10**9, 7):  # one block; blocks of 7 points and a shorter last one
        monkeypatch.setattr(cli, "_BLOCK", block)
        (tmp_path / str(block)).mkdir()
        code, out = run_cli(tmp_path / str(block), text, command)
        assert code == 0
        tables.append((out / f"{command}.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("command", ["field", "streamlines"])
def test_field_at_E0_zero_is_finite(tmp_path, command):
    text = "\n".join(_REDUCED_LINES).replace("\nE0 = 0.005\n", "\nE0 = 0\n", 1) + "\n"
    code, out = run_cli(tmp_path, text, command)
    assert code == 0
    _, _, rows = read_csv(out / f"{command}.csv")
    assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)


def _edited(section, edit):
    """The reduced figure config with the line of edit's key in [section]
    replaced by edit."""
    lines = list(_REDUCED_LINES)
    key = edit.partition(" ")[0]
    start = lines.index(f"[{section}]")
    lines[next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))] = edit
    return "\n".join(lines) + "\n"


_HOP = "hbar^2/(m*a^2)"
_TOP = "n_max*(E0 + 2*hbar^2/(m*a^2))"
# lattice edits inside the float range whose spectral scale the ground
# state's inverse iteration cannot square; every --check still runs
_SPECTRAL_EDGE = (
    ("hbar = 1e150", "3.8e+300", "m = 1.0, a = 1.0, hbar = 1e+150, E0 = 0.5"),
    ("a = 1e-150", "3.8e+300", "m = 1.0, a = 1e-150, hbar = 1.0, E0 = 0.5"),
    ("m = 1e-300", "3.8e+300", "m = 1e-300, a = 1.0, hbar = 1.0, E0 = 0.5"),
    ("E0 = 1e307", "2e+307", "m = 1.0, a = 1.0, hbar = 1.0, E0 = 1e+307"),
)


@pytest.mark.parametrize(
    ("command", "extra", "section", "edit", "diagnostic"),
    [
        ("streamlines", (), "model", "E0 = 0", None),
        ("field", (), "field", "x_max = 1e308", None),
        *(
            (command, (), "model", f"hbar = {hbar}", f"m/(pi*hbar^2) leaves the float range at m = 1.0, hbar = {shown}")
            for command in ("potential", "simulate")
            for hbar, shown in (("1e-320", "1e-320"), ("1e308", "1e+308"))
        ),
        *(
            (command, (), "model", edit, f"the current or |psi1| leaves the float range at {scales}")
            for command in ("field", "streamlines")
            for edit, scales in (
                ("hbar = 1e308", "m = 1.0, E0 = 0.005, hbar = 1e+308"),
                ("m = 1e-320", "m = 1e-320, E0 = 0.005, hbar = 1.0"),
            )
        ),
        (
            "boundary",
            (),
            "boundary",
            "robin = 1.0 0.0 0.0 0.0 1.0 1e308 1.0 0.0",
            "the packet and the Robin ratios must give finite values",
        ),
        *(
            ("lattice", extra, "lattice", edit, f"the lattice scale {scale} leaves the float range at {scales}")
            for extra in ((), ("--check", "gauge"))
            for edit, scale, scales in (
                ("hbar = 1e160", _HOP, "m = 1.0, a = 1.0, hbar = 1e+160, E0 = 0.5"),
                ("m = 1e-320", _HOP, "m = 1e-320, a = 1.0, hbar = 1.0, E0 = 0.5"),
                ("a = 1e-160", _HOP, "m = 1.0, a = 1e-160, hbar = 1.0, E0 = 0.5"),
                ("E0 = 1e308", _TOP, "m = 1.0, a = 1.0, hbar = 1.0, E0 = 1e+308"),
                ("hbar = 1e-320", "2/hbar", "m = 1.0, a = 1.0, hbar = 1e-320, E0 = 0.5"),
            )
        ),
        *(
            ("lattice", (), "lattice", edit, f"the lattice spectral scale {top} exceeds 1e+154 at {scales}")
            for edit, top, scales in _SPECTRAL_EDGE
        ),
        *(("lattice", ("--check", "gauge"), "lattice", edit, None) for edit, _, _ in _SPECTRAL_EDGE),
    ],
)
def test_edits_at_the_float_limits_print_one_diagnostic_and_no_warning(
    tmp_path, capsys, command, extra, section, edit, diagnostic
):
    # a run either succeeds in silence or prints its one diagnostic and
    # writes nothing; no numpy warning reaches standard error before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(tmp_path, _edited(section, edit), command, *extra)
    err = capsys.readouterr().err
    if diagnostic is None:
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"numerical failure: {diagnostic}\n")
        assert not out.exists()


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
    write_csv(path, ("a", "b"), [(np.array([1, 2]), np.array([0.1, 0.25]))], prov_stub())
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


def _per_value_csv(columns, rows, provenance):
    """The CSV text of the per-value writer write_csv replaced: the oracle."""
    lines = [f"# {line}" for line in provenance.comment_lines()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7e308, -1.7e308]
)
_ANY_FLOATS = st.floats() | _EDGE_FLOATS
# per kind of column: the strategy of its values (None: the block's pool of
# floats) and the container; a float64 column drawn from a pool of k values
# has at most k distinct ones, so some columns cross the writer's threshold
# for formatting each distinct bit pattern once (half the column) and some
# do not
_CSV_COLUMNS = {
    "int64": (st.integers(-(2**63), 2**63 - 1), partial(np.array, dtype=np.int64)),
    "float64": (None, partial(np.array, dtype=np.float64)),
    "bool_": (st.booleans(), np.array),
    "int": (st.integers(), list),
    "float": (None, list),
    "bool": (st.booleans(), list),
    "str": (st.text(st.characters(blacklist_characters=",\n\r")), list),
    "float32": (st.floats(width=32).map(np.float32), list),
}


@st.composite
def _csv_block(draw, kinds):
    n = draw(st.integers(0, 12))
    pool = st.sampled_from(draw(st.lists(_ANY_FLOATS, min_size=1, max_size=max(n, 1))))
    block = []
    for kind in kinds:
        values, container = _CSV_COLUMNS[kind]
        values = pool if values is None else values
        block.append(container(draw(st.lists(values, min_size=n, max_size=n))))
    return tuple(block)


# tables of several blocks over one list of column kinds
_CSV_TABLES = st.lists(st.sampled_from(sorted(_CSV_COLUMNS)), min_size=1, max_size=6).flatmap(
    lambda kinds: st.lists(_csv_block(kinds), min_size=1, max_size=3)
)


@settings(max_examples=200, deadline=None)
@given(_CSV_TABLES)
@example([(np.array([0.0, -0.0, 0.0, -0.0]), np.array([math.nan, 1.0, math.nan, math.nan]))])
@example([(np.array([1.0]), ["a"])])
def test_write_csv_matches_the_per_value_writer(blocks):
    rows = [row for block in blocks for row in zip(*block)]
    columns = tuple(f"c{i}" for i in range(len(blocks[0])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, columns, iter(blocks), prov_stub())
        data = path.read_bytes()
    assert data == _per_value_csv(columns, rows, prov_stub()).encode("utf-8")
    lines = data.decode("utf-8").split("\n")[-len(rows) - 1 : -1]
    for row, line in zip(rows, lines):
        fields = line.split(",")
        assert len(fields) == len(row)
        for value, text in zip(row, fields):
            if type(value) in (float, np.float64, np.float32):
                # a NaN comes back as NaN; every other float exactly, -0.0 too
                back = float(text)
                if math.isnan(value):
                    assert math.isnan(back)
                else:
                    assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)


def test_write_csv_failing_rows_leave_no_file(tmp_path):
    def blocks():
        for k in range(5):
            i = np.arange(k * 4096, (k + 1) * 4096)
            yield i, i / 7
        raise RuntimeError("block source failed")

    with pytest.raises(RuntimeError, match="block source failed"):
        write_csv(tmp_path / "t.csv", ("i", "x"), blocks(), prov_stub())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("block", [([1, 2], [0.5]), ([1, 2],), ([1], [2], [3])])
def test_write_csv_rejects_blocks_of_the_wrong_shape(tmp_path, block):
    with pytest.raises(ValueError, match="2 columns of equal length"):
        write_csv(tmp_path / "t.csv", ("a", "b"), [block], prov_stub())
    assert os.listdir(tmp_path) == []


def test_a_failed_write_removes_only_the_directories_it_created(tmp_path):
    def failing():
        yield "partial"
        raise RuntimeError("source failed")

    kept = tmp_path / "kept"
    kept.mkdir()
    for target in (tmp_path / "new" / "deeper" / "t.txt", kept / "t.txt"):
        with pytest.raises(RuntimeError, match="source failed"):
            atomic_write_text(target, failing())
    assert sorted(os.listdir(tmp_path)) == ["kept"]
    assert os.listdir(kept) == []


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
        write_csv(tmp_path / "a.csv", ("a",), [([1],)], prov_stub())
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


def _per_value_field_rows(system, pts):
    # the row builder the field and streamlines commands replaced
    cur = current_closed_form(system, pts)
    val = psi1(system, pts)
    return [(p[0], p[1], p[2], j[0], j[1], j[2], abs(v), float(np.angle(v))) for p, j, v in zip(pts, cur, val)]


def test_field_and_streamlines_csv_match_the_per_value_rows(tmp_path, monkeypatch):
    # pins the array forms of |psi1| and its phase: np.abs on the complex
    # array differs from scalar abs() in the last bit at some of these points
    text = FIELD_SMALL.replace("nx = 5\nny = 4", "nx = 21\nny = 17") + STREAM_SMALL[len(MODEL) :]
    config = parse_config(text)
    system = config.charge_system()
    opts = config.options("field")
    gx, gy = np.meshgrid(
        np.linspace(opts["x_min"], opts["x_max"], opts["nx"]),
        np.linspace(opts["y_min"], opts["y_max"], opts["ny"]),
        indexing="ij",
    )
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, opts["z"])])
    code, out = run_cli(tmp_path, text, "field")
    assert code == 0
    prov = cli._provenance(config.with_command("field"), ("model", "field"), {})
    columns = ("x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase")
    expected = _per_value_csv(columns, _per_value_field_rows(system, pts), prov)
    assert (out / "field.csv").read_text() == expected

    lines = []
    original = groundstate.streamlines

    def recorded(*args, **kwargs):
        lines.extend(original(*args, **kwargs))
        return lines

    monkeypatch.setattr(groundstate, "streamlines", recorded)
    code, out = run_cli(tmp_path, text, "streamlines")
    assert code == 0
    rows = [
        (i, s, *row)
        for i, line in enumerate(lines)
        for s, row in zip(line.arc_lengths, _per_value_field_rows(system, line.points))
    ]
    prov = cli._provenance(config.with_command("streamlines"), ("model", "streamlines"), {"seed_directions": 0})
    expected = _per_value_csv(("line", "s") + columns, rows, prov)
    assert (out / "streamlines.csv").read_text() == expected


def test_perfbench_tracer_runs_field_with_the_block_writer(tmp_path, monkeypatch):
    # the tracer wraps the third positional argument of write_csv to count
    # what the writer consumes, so every call site passes it positionally
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    cfg = tmp_path / "run.cfg"
    cfg.write_text(FIELD_SMALL)
    assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        code = tracer.run("cli", main, ["field", "--config", str(cfg), "--out", str(tmp_path / "traced")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["io.rows"] > 0
    traced, plain = (tmp_path / name / "field.csv" for name in ("traced", "plain"))
    assert traced.read_bytes() == plain.read_bytes()
    assert cli.write_csv is write_csv


def test_field_of_real_charges_has_positive_zero_currents(tmp_path):
    # opposite real couplings carry no current; the pair loop that evaluated
    # it before summed +0.0 terms into np.zeros, so every current cell read
    # "0", and the |psi1| and phase columns are computed as before
    text = FIELD_SMALL.replace("charge = 0.0 1.0 1.0", "charge = -2.0 0.0 1.0")
    config = parse_config(text)
    system = config.charge_system()
    opts = config.options("field")
    gx, gy = np.meshgrid(
        np.linspace(opts["x_min"], opts["x_max"], opts["nx"]),
        np.linspace(opts["y_min"], opts["y_max"], opts["ny"]),
        indexing="ij",
    )
    pts = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, opts["z"])])
    rows = [(*p, 0.0, 0.0, 0.0, abs(v), float(np.angle(v))) for p, v in zip(pts, psi1(system, pts))]
    code, out = run_cli(tmp_path, text, "field")
    assert code == 0
    prov = cli._provenance(config.with_command("field"), ("model", "field"), {})
    columns = ("x", "y", "z", "jx", "jy", "jz", "|psi1|", "phase")
    assert (out / "field.csv").read_text() == _per_value_csv(columns, rows, prov)
    _, _, cells = read_csv(out / "field.csv")
    assert all(row[3:6] == ["0", "0", "0"] for row in cells)


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


def _recording_simulate(monkeypatch, edit=lambda record: record):
    """Patch process.simulate to keep each record it returns, after `edit`."""
    records = []
    run = process.simulate

    def recording(*args, **kwargs):
        records.append(edit(run(*args, **kwargs)))
        return records[-1]

    monkeypatch.setattr(process, "simulate", recording)
    return records


def test_trajectory_paths_csv_matches_one_block_per_particle(tmp_path, monkeypatch):
    # blocks of 7 rows split particles and join neighbours; the reference is
    # one block per particle in pid order
    records = _recording_simulate(monkeypatch)
    monkeypatch.setattr(cli, "_BLOCK", 7)
    code, out = run_cli(tmp_path, SIM_TRAJ, "simulate", "--seed", "1")
    assert code == 0
    paths = sorted(records[0].paths.items())
    assert len(paths) > 1 and sum(len(p) for _, p in paths) > 7 * len(paths)
    reference = tmp_path / "reference.csv"
    blocks = ((np.full(len(p), pid), *p.T) for pid, p in paths)
    prov = Provenance("simulate", "0" * 64, 0, {}, {})
    write_csv(reference, ("particle", "t", "x", "y", "z"), blocks, prov)
    assert read_csv(out / "trajectory_paths.csv")[1:] == read_csv(reference)[1:]


def test_trajectory_paths_csv_with_no_particle_is_the_header_alone(tmp_path, monkeypatch):
    _recording_simulate(monkeypatch, lambda record: dataclasses.replace(record, paths={}))
    code, out = run_cli(tmp_path, SIM_TRAJ, "simulate", "--seed", "1")
    assert code == 0
    assert read_csv(out / "trajectory_paths.csv")[1:] == ("particle,t,x,y,z", [])


# one config for all seven commands, each section small
ALL_COMMANDS_SMALL = MODEL + """E0 = 0.005

[field]
nx = 5
ny = 4

[streamlines]
source = 2
n_seeds = 4
max_arc = 20.0

[simulate]
t_max = 0.2
sample_times = 0.1 0.2
dt = 0.01
runs = 1000
trajectory = true

""" + LATTICE_SMALL + "\n" + BOUNDARY_CFG


def test_every_command_repeats_byte_identically(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ALL_COMMANDS_SMALL)
    for command in COMMANDS:
        outs = [tmp_path / command / name for name in ("a", "b")]
        for out in outs:
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names and names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), (command, name)


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


def test_simulate_statistics_read_one_ensemble_on_stream_2(tmp_path):
    text = SIM_ENS.replace("t_max = 2.0", "t_max = 1.0\nsample_times = 0.5 1.0").replace(
        "runs = 150", "runs = 1000"
    )
    code, out = run_cli(tmp_path, text, "simulate", "--seed", "7")
    assert code == 0
    stats = read_json(out / "statistics.json")
    seed = derive_seed(7, 2)
    assert stats["_provenance"]["derived_seeds"] == {"ensemble": {"stream": 2, "seed": seed}}
    gs = groundstate.ground_state(parse_config(text).charge_system())
    law = process.derive_emission_law(gs)
    # the ensemble also stops at t = 0.5, which moves none of the counts of
    # an unsplit run to t_max on the same stream
    rev = process.reversal_test(
        gs, process.EnsembleParams(runs=1000, t_max=1.0, dt=0.01, seed=seed), law=law
    )
    assert {k: v for k, v in stats["reversal"].items() if k != "test"} == {
        "runs": rev.runs,
        "t_final": rev.t_final,
        "emissions": list(rev.emissions),
        "absorptions": list(rev.absorptions),
        "p_values": list(rev.p_values),
        "balanced": rev.balanced,
        "flux_balance_error": rev.flux_balance_error,
    }
    eq = process.equivariance_test(
        gs, process.EnsembleParams(runs=1000, sample_times=(0.5, 1.0), dt=0.01, seed=seed), law=law
    )
    assert stats["equivariance"]["runs"] == eq.runs
    assert stats["equivariance"]["passed"] == eq.passed
    assert stats["equivariance"]["samples"] == [dataclasses.asdict(s) for s in eq.samples]


# couplings e^{i} * (1, -2, 0.7): one common phase, so no source emits
_COMMON_PHASE_ROWS = "".join(
    f"charge = {float(g.real)!r} {float(g.imag)!r} {x} {y} 0.0\n"
    for g, (x, y) in zip(np.exp(1j) * np.array([1.0, -2.0, 0.7]), [(0, 0), (1, 0), (0, 2)])
)


def test_simulate_common_phase_charges_at_small_E0(tmp_path):
    text = f"""\
[model]
{_COMMON_PHASE_ROWS}E0 = 1e-8

[simulate]
t_max = 0.05
dt = 0.01
runs = 1000
trajectory = false
"""
    code, out = run_cli(tmp_path, text, "simulate", "--seed", "3")
    assert code == 0
    stats = read_json(out / "statistics.json")
    assert stats["emission_law"] == {"rates": [0.0, 0.0, 0.0], "limits": [0.0, 0.0, 0.0]}
    assert stats["reversal"]["emissions"] == [0, 0, 0]


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
    code, out = run_cli(tmp_path, big, "lattice")
    assert code == 1
    assert "dense limit of 2000" in capsys.readouterr().err
    assert not out.exists()


def test_lattice_check_commutation_above_the_dense_limit(tmp_path):
    for text, want in ((LATTICE_SMALL, 3), (LATTICE_REAL, 0)):
        big = text.replace("L = 4\nn_max = 2", "L = 13\nn_max = 4")
        code, out = run_cli(tmp_path, big, "lattice", "--check", "commutation")
        assert code == want
        payload = read_json(out / "lattice_check.json")
        assert payload["passed"] is (want == 0)


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


def test_non_finite_field_bound_exits_1_and_writes_nothing(tmp_path, capsys):
    code, out = run_cli(tmp_path, FIELD_SMALL.replace("x_max = 1.4", "x_max = inf"), "field")
    assert code == 1
    assert "line 7: key 'x_max' must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_model_value_exits_1_and_writes_nothing(tmp_path, capsys):
    code, out = run_cli(tmp_path, POTENTIAL_CFG.replace("E0 = 0.5", "E0 = nan"), "potential")
    assert code == 1
    assert "line 5: key 'E0' must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_overflowing_dt_exits_1_for_every_command(tmp_path, capsys, command):
    text = SIM_ENS.replace("dt = 0.01", "dt = 1e-320")
    code, out = run_cli(tmp_path, text, command)
    assert code == 1
    assert "line 9: key 'dt' is too small" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_lattice_ground_level_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def degenerate(model):
        raise ValueError("ground state is degenerate within tolerance (gap 0.000e+00)")

    monkeypatch.setattr(lattice, "ground_state_current", degenerate)
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice")
    assert code == 2
    assert "degenerate" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_lattice_uses_neither_eig_nor_eigh(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the lattice command needs no dense eigenvectors")

    monkeypatch.setattr(lattice.LatticeModel, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice")
    assert code == 0
    assert read_json(out / "lattice.json")["bell"]["mean_jumps"] > 0.0


def test_lattice_lapack_failure_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(lattice.lapack, "dsterf", lambda d, e: (d, 7))
    code, out = run_cli(tmp_path, LATTICE_SMALL, "lattice")
    assert code == 2
    assert "LAPACK dsterf failed (info = 7)" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_long_lattice_time_reports_the_capped_residual_bound(tmp_path, monkeypatch):
    # ||tH/hbar||_1 = 6.5e4: a propagator would take seconds, and plain
    # lattice runs none
    def refuse(*args, **kwargs):
        raise AssertionError("plain lattice neither propagates nor diagonalizes H")

    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", refuse)
    monkeypatch.setattr(lattice, "expm_multiply", refuse)
    monkeypatch.setattr(lattice.LatticeModel, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    text = LATTICE_SMALL.replace("t = 0.8\nchains = 200", "t = 10000.0\nchains = 0")
    code, out = run_cli(tmp_path, text, "lattice")
    assert code == 0
    params = parse_config(text).lattice_params()
    model = lattice.build_model(params)
    evals, psi0 = model.ground()
    residual = float(np.linalg.norm(model.H @ psi0 - evals[0] * psi0))
    bound = read_json(out / "lattice.json")["evolution_phase_error"]
    assert bound == min(2.0, 10000.0 * residual / params.hbar)
    assert bound <= 1e-8


@pytest.mark.parametrize("edit", ["t = 1e308\nhbar = 0.5", "t = 1e300\nhbar = 1e-300"])
def test_lattice_phase_error_is_capped_at_extreme_times(tmp_path, edit):
    # the propagated phase once overflowed at t = 1e308 and was written as
    # null; t ||H psi0 - E0 psi0|| / hbar is 1.2e293 there and overflows to inf
    # at t/hbar = 1e600, and two unit vectors are never more than 2 apart
    text = LATTICE_SMALL.replace("t = 0.8\nchains = 200", f"{edit}\nchains = 0")
    code, out = run_cli(tmp_path, text, "lattice")
    assert code == 0
    assert read_json(out / "lattice.json")["evolution_phase_error"] == 2.0


def test_bell_work_counts_jumps_so_a_currentless_ground_state_runs_to_any_time(tmp_path, capsys):
    # real charges carry no ground current, so no chain ever jumps and the
    # work is one unit per chain at every t; complex ones expect t * 0.312
    # jumps per chain
    text = LATTICE_REAL + "t = 1e308\nchains = 200\n"
    code, out = run_cli(tmp_path, text, "lattice")
    assert code == 0
    bell = read_json(out / "lattice.json")["bell"]
    assert bell["mean_jumps"] == 0.0 and bell["t"] == 1e308
    (tmp_path / "complex").mkdir()
    code, out = run_cli(tmp_path / "complex", LATTICE_SMALL.replace("t = 0.8", "t = 1e308"), "lattice")
    assert code == 1
    assert "line 8: the Bell ensemble of 200 chains to t = 1e+308 exceeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [100_000, 10**6])
def test_huge_lattice_exits_1_without_computing_its_dimension(tmp_path, monkeypatch, capsys, n):
    def refuse(*args, **kwargs):
        raise AssertionError("the dimension of a huge lattice is not computed")

    monkeypatch.setattr(lattice, "comb", refuse)
    text = LATTICE_SMALL.replace("L = 4\nn_max = 2", f"L = {n}\nn_max = {n}")
    code, out = run_cli(tmp_path, text, "lattice")
    assert code == 1
    assert "line 3: basis dimension above 10**18 exceeds" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    code, out = run_cli(tmp_path, SIM_ENS, "simulate", "--seed", "-5")
    assert code == 1
    assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


def test_exhausted_substep_budget_exits_2_without_statistics(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(process, "_advance", partial(groundstate._advance, max_rounds=2))
    for trajectory in ("false", "true"):
        text = SIM_ENS.replace("trajectory = false", f"trajectory = {trajectory}")
        (tmp_path / trajectory).mkdir()
        with pytest.warns(UserWarning, match="budget"):
            code, out = run_cli(tmp_path / trajectory, text, "simulate")
        assert code == 2
        assert "substep budget exhausted" in capsys.readouterr().err
        # nothing is written before every result is in, trajectory files included
        assert not out.exists() or not any(out.iterdir())


def test_check_flag_only_for_lattice(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MODEL)
    assert main(["symmetry", "--config", str(cfg), "--check", "gauge"]) == 1
    assert capsys.readouterr().err == "config error: --check applies to the lattice command only\n"
    assert main(["lattice", "--config", str(cfg), "--check", "bogus"]) == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


# ---------------------------------------------------------------- fresh interpreters
# An in-process suite loads every module for every test, so only a fresh
# interpreter shows what an import or a command loads by itself.

_SRC_PATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

_SCIPY_MODULES = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
"""

_STAR_IMPORT = """
import json, sys

import chargeflow

bare = sorted(m for m in sys.modules if m.partition(".")[0] in ("chargeflow", "scipy"))
namespace = {}
exec("from chargeflow import *", namespace)
modules = [
    getattr(chargeflow, name)
    for name in ("model", "groundstate", "lattice", "process", "boundary")
]
owner = {name: module for module in modules for name in module.__all__}
print(json.dumps({
    "bare": bare,
    "all": chargeflow.__all__,
    "expected": [*owner, "__version__"],
    "bound": sorted(set(namespace) - {"__builtins__"}),
    "same": [
        name for name, module in owner.items()
        if namespace[name] is getattr(module, name) and getattr(chargeflow, name) is namespace[name]
    ],
    "version": namespace["__version__"] == chargeflow.__version__,
}))
"""

# `from chargeflow import cli` asks the package for `cli` before it imports
# the submodule, so this spelling also covers `import chargeflow.cli`
_COMMAND = _SCIPY_MODULES + """
from chargeflow import cli, config, io

with open(sys.argv[1], encoding="utf-8") as handle:
    config.parse_config(handle.read())
loaded = scipy_modules()
code = cli.main(sys.argv[2:])
print(json.dumps({"import": loaded, "code": code, "scipy": scipy_modules()}))
"""

# the commands whose modules import no scipy
_SCIPY_FREE = ("symmetry", "field", "streamlines", "potential")


def run_fresh(script, *args):
    """Run `script` in a new interpreter; returns its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC_PATH},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_star_import_binds_every_name_of_the_module_exports():
    result = run_fresh(_STAR_IMPORT)
    assert result["bare"] == ["chargeflow"]
    assert result["all"] == result["expected"]
    assert result["bound"] == sorted(result["expected"])
    assert result["same"] == result["expected"][:-1]
    assert result["version"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_in_a_fresh_interpreter(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ALL_COMMANDS_SMALL)
    out = tmp_path / "out"
    result = run_fresh(_COMMAND, str(FIGURE_CFG), command, "--config", str(cfg), "--out", str(out))
    # the imports and parse_config of the figure config load no scipy
    assert result["import"] == []
    assert result["code"] == 0
    assert any(out.iterdir())
    if command in _SCIPY_FREE:
        assert result["scipy"] == []
    # only simulate's statistics need scipy.stats; lattice's chi-square does not
    if command != "simulate":
        assert not _stats_modules(result["scipy"])


def _stats_modules(modules):
    return [m for m in modules if m == "scipy.stats" or m.startswith("scipy.stats.")]


def test_trajectory_only_simulate_loads_no_scipy_in_a_fresh_interpreter(tmp_path):
    cfg = tmp_path / "run.cfg"
    text = ALL_COMMANDS_SMALL.replace("sample_times = 0.1 0.2\n", "")
    cfg.write_text(text.replace("runs = 1000", "runs = 0"))
    out = tmp_path / "out"
    result = run_fresh(_COMMAND, str(FIGURE_CFG), "simulate", "--config", str(cfg), "--out", str(out))
    assert result["code"] == 0
    assert (out / "trajectory.jsonl").exists()
    assert result["scipy"] == []


def test_importing_process_loads_no_scipy_in_a_fresh_interpreter():
    script = _SCIPY_MODULES + "import chargeflow.process\nprint(json.dumps(scipy_modules()))\n"
    assert run_fresh(script) == []
