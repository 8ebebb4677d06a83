"""Config parsing and validation for the command-line front end.

The format is sectioned key-value text:

    # comment (';' also starts one)
    [model]
    charge = 1.0 0.0 0.0 0.0 0.0   # re im x y z, one line per source
    E0 = 0.005

    [simulate]
    t_max = 10.0

Sections correspond to commands, plus [model] (the continuum source system
shared by several commands) and [run] (master seed and output directory).
Every key is declared in a schema with a type and a default; unknown keys,
unknown sections, type mismatches and constraint violations are rejected
with the offending line number.  `RunConfig` carries the fully resolved
options of every section, so provenance headers can record each numeric
default in force.  A hand-rolled parser is used instead of configparser
because the error contract requires line numbers for unknown and malformed
keys.
"""

import hashlib
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .model import ChargeSystem

__all__ = ["ConfigError", "RunConfig", "parse_config", "COMMANDS"]

COMMANDS = (
    "symmetry",
    "field",
    "streamlines",
    "simulate",
    "lattice",
    "potential",
    "boundary",
)


class ConfigError(ValueError):
    """Invalid configuration; `line` locates the offence when one exists."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class _Field:
    kind: str                 # float | int | u64 | bool | floats | tuple
    default: object = None
    repeat: bool = False      # key may occur on several lines (kind "tuple")
    arity: int = 0            # number of floats per line for kind "tuple"


# fmt: off
_SCHEMA = {
    "run": {
        "seed": _Field("u64", 0),
        "out": _Field("str", "out"),
    },
    "model": {
        "charge": _Field("tuple", (), repeat=True, arity=5),
        "m": _Field("float", 1.0),
        "E0": _Field("float", 1.0),
        "hbar": _Field("float", 1.0),
    },
    "symmetry": {
        "tol": _Field("float", 1e-10),
        "ibc_thetas": _Field("floats", ()),
    },
    "field": {
        "x_min": _Field("float", -0.8),
        "x_max": _Field("float", 1.8),
        "y_min": _Field("float", -1.3),
        "y_max": _Field("float", 1.3),
        "z": _Field("float", 0.0),
        "nx": _Field("int", 101),
        "ny": _Field("int", 101),
    },
    "streamlines": {
        "source": _Field("int", 1),
        "n_seeds": _Field("int", 100),
        "seed_radius": _Field("float", 0.05),
        "max_arc": _Field("float", 0.0),       # 0 -> library default
        "domain_radius": _Field("float", 0.0),  # 0 -> library default
        "eps_absorb": _Field("float", 0.0),     # 0 -> library default
    },
    "simulate": {
        "t_max": _Field("float", 10.0),
        "dt_max": _Field("float", 0.05),
        "runs": _Field("int", 0),
        "dt": _Field("float", 0.01),
        "sample_times": _Field("floats", ()),
        "eps_absorb": _Field("float", 0.0),     # 0 -> library default
        "eps_start": _Field("float", 0.0),      # 0 -> library default
        "trajectory": _Field("bool", True),
    },
    "lattice": {
        "L": _Field("int", 8),
        "a": _Field("float", 1.0),
        "n_max": _Field("int", 2),
        "source_sites": _Field("floats", (2.0, 5.0)),
        "charge": _Field("tuple", ((1.0, 0.0), (0.0, 1.0)), repeat=True, arity=2),
        "m": _Field("float", 1.0),
        "E0": _Field("float", 0.5),
        "hbar": _Field("float", 1.0),
        "theta": _Field("float", 0.0),
        "check_tol": _Field("float", 1e-8),
        "t": _Field("float", 1.0),
        "chains": _Field("int", 0),
    },
    "potential": {
        "verify": _Field("bool", False),
    },
    "boundary": {
        "theta": _Field("floats", (0.3, 1.0, 2.0)),
        "n_levels": _Field("int", 3),
        "grid": _Field("int", 512),
        "m": _Field("float", 1.0),
        "hbar": _Field("float", 1.0),
        "witness": _Field("tuple", (), repeat=True, arity=6),
        "robin": _Field("tuple", (), repeat=False, arity=8),
        "leak_end": _Field("int", 1),
        "leak_tol": _Field("float", 0.1),
    },
}
# fmt: on

# the most plane-wave levels on each side of the ground level that `boundary`
# lists per theta; the list is built in memory before it is written
_MAX_LEVELS = 100_000
# the most runs of a `simulate` ensemble, which holds about 2.4 kB per run on
# the figure system (5.2 bosons per run): about 2.4 GB at the bound
_MAX_RUNS = 10**6

_KIND_NOUN = {
    "float": "a number",
    "int": "an integer",
    "u64": "an integer",
    "bool": "a boolean (true/false)",
    "floats": "a list of numbers",
}


def _finite(values, key, text, line):
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"key '{key}' must be finite, got '{text}'", line)
    return values


def _u64(value, what, line=None):
    if not 0 <= value < 2**64:
        raise ConfigError(f"{what} must be an unsigned 64-bit integer, got {value}", line)
    return value


def _parse_scalar(kind, text, key, line):
    if kind in ("float", "floats"):
        try:
            value = float(text) if kind == "float" else tuple(float(t) for t in text.split())
        except ValueError:
            raise ConfigError(f"key '{key}' expects {_KIND_NOUN[kind]}, got '{text}'", line)
        return _finite(value, key, text, line)
    if kind in ("int", "u64"):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"key '{key}' expects {_KIND_NOUN[kind]}, got '{text}'", line)
        return _u64(value, f"key '{key}'", line) if kind == "u64" else value
    if kind == "bool":
        low = text.lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key '{key}' expects {_KIND_NOUN[kind]}, got '{text}'", line)
    return text  # str


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration: resolved options for every section.

    `sections` maps section name to its option dict with all defaults filled
    in; `section_lines` records where each configured section starts and
    `key_lines` the line of each occurrence of a (section, key), so late
    constraint errors can name the offending line.  The command is attached
    by the CLI dispatcher.
    """

    sections: dict
    config_sha256: str
    seed: int
    out_dir: str
    command: str = None
    section_lines: dict = field(default_factory=dict)
    key_lines: dict = field(default_factory=dict)

    def options(self, section):
        return self.sections[section]

    def line(self, section, *keys):
        """Line of the first of `keys` set in `section`, else of its header."""
        for key in keys:
            if (section, key) in self.key_lines:
                return self.key_lines[section, key][0]
        return self.section_lines.get(section)

    def with_command(self, command, seed=None, out_dir=None):
        if command not in COMMANDS:
            raise ConfigError(f"unknown command '{command}'")
        return replace(
            self,
            command=command,
            seed=self.seed if seed is None else _u64(int(seed), "seed"),
            out_dir=self.out_dir if out_dir is None else str(out_dir),
        )

    def charge_system(self):
        """Build the continuum source system from the [model] section."""
        opts = self.sections["model"]
        charges = opts["charge"]
        if not charges:
            raise ConfigError("section [model] needs at least one 'charge' line", self.line("model"))
        rows = np.array(charges, dtype=float)
        try:
            return ChargeSystem(
                positions=rows[:, 2:5],
                charges=rows[:, 0] + 1j * rows[:, 1],
                m=opts["m"],
                E0=opts["E0"],
                hbar=opts["hbar"],
            )
        except ValueError as exc:
            # _validate has checked every other key: the charge rows are at fault
            raise ConfigError(str(exc), self.line("model", "charge")) from exc

    def lattice_params(self):
        """Build the lattice model parameters from the [lattice] section."""
        # lattice loads scipy, which parsing a config does not need
        from .lattice import LatticeParams, dimension_error

        opts = self.sections["lattice"]
        error = dimension_error(opts["L"], opts["n_max"])
        if error is not None:
            raise ConfigError(error, self.line("lattice", "n_max", "L"))
        line = self.line("lattice", "source_sites", "charge")
        sites = tuple(int(s) for s in opts["source_sites"])
        if [float(s) for s in sites] != list(opts["source_sites"]):
            raise ConfigError("key 'source_sites' expects integers", line)
        try:
            return LatticeParams(
                L=opts["L"],
                a=opts["a"],
                n_max=opts["n_max"],
                source_sites=sites,
                charges=tuple(re + 1j * im for re, im in opts["charge"]),
                m=opts["m"],
                E0=opts["E0"],
                hbar=opts["hbar"],
            )
        except ValueError as exc:
            # _validate has checked every other key: the sites and their
            # couplings do not fit together or on the chain
            raise ConfigError(str(exc), line) from exc


def _strip(line):
    """The line without its '#' or ';' comment and surrounding blanks."""
    return re.split("[#;]", line, maxsplit=1)[0].strip()


def parse_config(text):
    """Parse and validate config text; raises ConfigError with line numbers."""
    sections = {}
    values = {name: {} for name in _SCHEMA}
    section_lines = {}
    key_lines = {}  # (section, key) -> line of each occurrence
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = name
            section_lines.setdefault(name, lineno)
            continue
        if current is None:
            raise ConfigError("key outside of any section", lineno)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        spec = _SCHEMA[current].get(key)
        if spec is None:
            raise ConfigError(f"unknown key '{key}' in section [{current}]", lineno)
        key_lines.setdefault((current, key), []).append(lineno)
        if spec.kind == "tuple":
            parts = value.split()
            if len(parts) != spec.arity:
                raise ConfigError(
                    f"key '{key}' expects {spec.arity} numbers, got {len(parts)}", lineno
                )
            try:
                row = tuple(float(tok) for tok in parts)
            except ValueError:
                raise ConfigError(f"key '{key}' expects {spec.arity} numbers", lineno)
            _finite(row, key, value, lineno)
            if spec.repeat:
                values[current].setdefault(key, []).append(row)
            elif key in values[current]:
                raise ConfigError(f"duplicate key '{key}'", lineno)
            else:
                values[current][key] = row
            continue
        if key in values[current]:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        values[current][key] = _parse_scalar(spec.kind, value, key, lineno)

    for name, schema in _SCHEMA.items():
        resolved = {}
        for key, spec in schema.items():
            if key in values[name]:
                got = values[name][key]
                resolved[key] = tuple(got) if spec.kind == "tuple" and spec.repeat else got
            else:
                resolved[key] = spec.default
        sections[name] = resolved

    config = RunConfig(
        sections=sections,
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        seed=sections["run"]["seed"],
        out_dir=sections["run"]["out"],
        section_lines=section_lines,
        key_lines=key_lines,
    )
    _validate(config)
    return config


def _validate(config):
    sections, line = config.sections, config.line

    def positive(section, *keys):
        for key in keys:
            if not sections[section][key] > 0:
                raise ConfigError(f"key '{key}' must be positive", line(section, key))

    def nonnegative(section, *keys):
        for key in keys:
            if not sections[section][key] >= 0:
                raise ConfigError(f"key '{key}' must be nonnegative", line(section, key))

    for section in ("model", "lattice"):
        rows = sections[section]["charge"]
        for row, lineno in zip(rows, config.key_lines.get((section, "charge"), ())):
            if row[0] == 0.0 and row[1] == 0.0:
                raise ConfigError("couplings must be nonzero", lineno)
    positive("model", "m", "hbar")
    nonnegative("model", "E0")
    positive("symmetry", "tol")
    fld = sections["field"]
    for key in ("nx", "ny"):
        if fld[key] < 2:
            raise ConfigError("grid needs nx, ny >= 2", line("field", key))
    for lo, hi in (("x_min", "x_max"), ("y_min", "y_max")):
        if not fld[lo] < fld[hi]:
            raise ConfigError("grid bounds must satisfy min < max", line("field", lo, hi))
    stream = sections["streamlines"]
    if stream["n_seeds"] < 1:
        raise ConfigError("key 'n_seeds' must be positive", line("streamlines", "n_seeds"))
    if stream["source"] < 1:
        raise ConfigError("source labels are 1-based", line("streamlines", "source"))
    positive("streamlines", "seed_radius")
    # 0 selects the library default of each of these radii
    nonnegative("streamlines", "max_arc", "eps_absorb", "domain_radius")
    sim = sections["simulate"]
    positive("simulate", "t_max", "dt", "dt_max")
    nonnegative("simulate", "runs", "eps_absorb", "eps_start")
    if sim["runs"] > _MAX_RUNS:
        raise ConfigError(f"key 'runs' may not exceed {_MAX_RUNS}", line("simulate", "runs"))
    if sim["sample_times"] and sim["runs"] < 1000:
        raise ConfigError(
            "equivariance sampling (sample_times) needs runs >= 1000",
            line("simulate", "runs", "sample_times"),
        )
    if any(ts > sim["t_max"] for ts in sim["sample_times"]):
        raise ConfigError("sample times exceed t_max", line("simulate", "sample_times"))
    if sim["runs"] > 0:
        for label, value in [("t_max", sim["t_max"])] + [
            ("sample_times", ts) for ts in sim["sample_times"]
        ]:
            steps = value / sim["dt"]
            if not np.isfinite(steps):
                raise ConfigError(
                    f"key 'dt' is too small: {label}/dt overflows", line("simulate", "dt")
                )
            k = round(steps)
            if abs(k * sim["dt"] - value) > 1e-9 * max(abs(value), 1.0):
                raise ConfigError(
                    f"key '{label}' must lie on the dt grid for ensemble runs",
                    line("simulate", label, "dt"),
                )
    lat = sections["lattice"]
    if lat["L"] < 2 or lat["n_max"] < 1:
        raise ConfigError(
            "lattice needs L >= 2 and n_max >= 1",
            line("lattice", "L" if lat["L"] < 2 else "n_max"),
        )
    nonnegative("lattice", "E0", "chains")
    positive("lattice", "a", "m", "hbar", "t", "check_tol")
    bnd = sections["boundary"]
    positive("boundary", "m", "hbar", "leak_tol")
    if bnd["grid"] < 8:
        raise ConfigError("key 'grid' must be at least 8", line("boundary", "grid"))
    if not 0 <= bnd["n_levels"] <= _MAX_LEVELS:
        raise ConfigError(
            f"key 'n_levels' must lie in [0, {_MAX_LEVELS}]", line("boundary", "n_levels")
        )
    if bnd["leak_end"] not in (0, 1):
        raise ConfigError("key 'leak_end' must be 0 or 1", line("boundary", "leak_end"))
    if any(not -np.pi < th <= np.pi for th in bnd["theta"]):
        raise ConfigError("key 'theta' entries must lie in (-pi, pi]", line("boundary", "theta"))
