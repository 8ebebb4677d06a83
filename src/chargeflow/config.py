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
Every key is declared in a schema with a type, a default and its range,
which are checked as the key's line is parsed; the rules that relate two
keys are checked once every line is parsed.  Unknown keys, unknown
sections, type mismatches and values out of range or inconsistent are
rejected with the offending line number.  `RunConfig` carries the fully
resolved options of every section, so provenance headers can record each
numeric default in force.  A hand-rolled parser is used instead of
configparser because the error contract requires line numbers for unknown
and malformed keys.
"""

import hashlib
import re
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .model import ChargeSystem

__all__ = ["ConfigError", "RunConfig", "parse_config", "ensemble_steps", "COMMANDS"]

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
    kind: str                 # float | int | u64 | bool | str | floats | tuple
    default: object = None
    repeat: bool = False      # key may occur on several lines (kind "tuple")
    arity: int = 0            # number of floats per line for kind "tuple"
    gt: float = None          # bounds of the value, or of each "floats" entry:
    ge: float = None          # value > gt, value >= ge and value <= le
    le: float = None


# the most plane-wave levels on each side of the ground level that `boundary`
# lists per theta; the list is built in memory before it is written
_MAX_LEVELS = 100_000
# the most runs of a `simulate` ensemble, which holds about 2.4 kB per run on
# the figure system (5.2 bosons per run): about 2.4 GB at the bound
_MAX_RUNS = 10**6
# the most `field` nodes along each axis: the nodes stream to the CSV at
# about 2.2 us and 123 bytes each (1,001 x 1,001 took 2.2 s and wrote
# 123 MB), so 4,001 x 4,001 take about 35 s and write about 2.0 GB
_MAX_AXIS = 4_001
# the most `streamlines` seeds, about 0.16 ms, 1.9 kB written and 3 kB of
# memory each on the figure system: 100,000 took 16 s, wrote 191 MB and
# peaked at 343 MB
_MAX_SEEDS = 100_000
# the largest `boundary` grid, whose cost grows about linearly with it: on
# the figure config (three thetas and a leak check) 8,192 nodes took 1.0 s
# and 65,536 took 6.4 s and peaked at 138 MB
_MAX_GRID = 65_536

# fmt: off
_SCHEMA = {
    "run": {
        "seed": _Field("u64", 0),
        "out": _Field("str", "out"),
    },
    "model": {
        "charge": _Field("tuple", (), repeat=True, arity=5),
        "m": _Field("float", 1.0, gt=0),
        "E0": _Field("float", 1.0, ge=0),
        "hbar": _Field("float", 1.0, gt=0),
    },
    "symmetry": {
        "tol": _Field("float", 1e-10, gt=0),
        "ibc_thetas": _Field("floats", ()),
    },
    "field": {
        "x_min": _Field("float", -0.8),
        "x_max": _Field("float", 1.8),
        "y_min": _Field("float", -1.3),
        "y_max": _Field("float", 1.3),
        "z": _Field("float", 0.0),
        "nx": _Field("int", 101, ge=2, le=_MAX_AXIS),
        "ny": _Field("int", 101, ge=2, le=_MAX_AXIS),
    },
    # a radius of 0 selects the library default
    "streamlines": {
        "source": _Field("int", 1, ge=1),
        "n_seeds": _Field("int", 100, ge=1, le=_MAX_SEEDS),
        "seed_radius": _Field("float", 0.05, gt=0),
        "max_arc": _Field("float", 0.0, ge=0),
        "domain_radius": _Field("float", 0.0, ge=0),
        "eps_absorb": _Field("float", 0.0, ge=0),
    },
    "simulate": {
        "t_max": _Field("float", 10.0, gt=0),
        "dt_max": _Field("float", 0.05, gt=0),
        "runs": _Field("int", 0, ge=0, le=_MAX_RUNS),
        "dt": _Field("float", 0.01, gt=0),
        "sample_times": _Field("floats", (), ge=0),
        "eps_absorb": _Field("float", 0.0, ge=0),
        "eps_start": _Field("float", 0.0, ge=0),
        "trajectory": _Field("bool", True),
    },
    "lattice": {
        "L": _Field("int", 8, ge=2),
        "a": _Field("float", 1.0, gt=0),
        "n_max": _Field("int", 2, ge=1),
        "source_sites": _Field("floats", (2.0, 5.0)),
        "charge": _Field("tuple", ((1.0, 0.0), (0.0, 1.0)), repeat=True, arity=2),
        "m": _Field("float", 1.0, gt=0),
        "E0": _Field("float", 0.5, ge=0),
        "hbar": _Field("float", 1.0, gt=0),
        "theta": _Field("float", 0.0),
        "check_tol": _Field("float", 1e-8, gt=0),
        "t": _Field("float", 1.0, gt=0),
        "chains": _Field("int", 0, ge=0),
    },
    "potential": {
        "verify": _Field("bool", False),
    },
    "boundary": {
        "theta": _Field("floats", (0.3, 1.0, 2.0), gt=-np.pi, le=np.pi),
        "n_levels": _Field("int", 3, ge=0, le=_MAX_LEVELS),
        "grid": _Field("int", 512, ge=8, le=_MAX_GRID),
        "m": _Field("float", 1.0, gt=0),
        "hbar": _Field("float", 1.0, gt=0),
        "witness": _Field("tuple", (), repeat=True, arity=6),
        "robin": _Field("tuple", (), arity=8),
        "leak_end": _Field("int", 1, ge=0, le=1),
        "leak_tol": _Field("float", 0.1, gt=0),
    },
}
# fmt: on

_KIND_NOUN = {
    "float": "a number",
    "int": "an integer",
    "u64": "an integer",
    "bool": "a boolean (true/false)",
    "floats": "a list of numbers",
}
_BOOLS = dict.fromkeys(("true", "yes", "1", "on"), True)
_BOOLS |= dict.fromkeys(("false", "no", "0", "off"), False)


def _u64(value, what, line=None):
    if not 0 <= value < 2**64:
        raise ConfigError(f"{what} must be an unsigned 64-bit integer, got {value}", line)
    return value


def _check_range(spec, value, key, line):
    """Raise naming the first bound of `spec` that `value`, or an entry of a
    list of numbers, breaks."""
    for item in value if spec.kind == "floats" else (value,):
        if spec.gt is not None and not item > spec.gt:
            need = "must be positive" if spec.gt == 0 else f"must be greater than {spec.gt}"
        elif spec.ge is not None and not item >= spec.ge:
            need = "must be nonnegative" if spec.ge == 0 else f"must be at least {spec.ge}"
        elif spec.le is not None and not item <= spec.le:
            need = f"may not exceed {spec.le}"
        else:
            continue
        entries = " entries" if spec.kind == "floats" else ""
        raise ConfigError(f"key '{key}'{entries} {need}, got {item}", line)
    return value


def _parse_scalar(spec, text, key, line):
    """The value of the line `key = text`, of the type and in the range of
    its schema entry."""
    kind = spec.kind
    noun = f"{spec.arity} numbers" if kind == "tuple" else _KIND_NOUN.get(kind)
    try:
        if kind == "float":
            value = float(text)
        elif kind in ("floats", "tuple"):
            value = tuple(float(t) for t in text.split())
        elif kind in ("int", "u64"):
            value = int(text)
        elif kind == "bool":
            return _BOOLS[text.lower()]
        else:
            return text  # str
    except (ValueError, KeyError):
        raise ConfigError(f"key '{key}' expects {noun}, got '{text}'", line)
    if kind == "tuple" and len(value) != spec.arity:
        raise ConfigError(f"key '{key}' expects {noun}, got {len(value)}", line)
    if kind == "u64":
        return _u64(value, f"key '{key}'", line)
    if kind != "int" and not np.all(np.isfinite(value)):
        raise ConfigError(f"key '{key}' must be finite, got '{text}'", line)
    return _check_range(spec, value, key, line)


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
            # parsing has checked every other key: the charge rows are at fault
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
            # parsing has checked every other key: the sites and their
            # couplings do not fit together or on the chain
            raise ConfigError(str(exc), line) from exc


def _strip(line):
    """The line without its '#' or ';' comment and surrounding blanks."""
    return re.split("[#;]", line, maxsplit=1)[0].strip()


def parse_config(text):
    """Parse and validate config text; raises ConfigError with line numbers."""
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
        spec = _SCHEMA[current].get(key)
        if spec is None:
            raise ConfigError(f"unknown key '{key}' in section [{current}]", lineno)
        key_lines.setdefault((current, key), []).append(lineno)
        if key in values[current] and not spec.repeat:
            raise ConfigError(f"duplicate key '{key}'", lineno)
        value = _parse_scalar(spec, value.strip(), key, lineno)
        values[current][key] = values[current].get(key, ()) + (value,) if spec.repeat else value

    sections = {
        name: {key: values[name].get(key, spec.default) for key, spec in schema.items()}
        for name, schema in _SCHEMA.items()
    }

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
    """The rules that relate two keys, or two lines of one key: parsing has
    checked each value against its own range."""
    sections, line = config.sections, config.line
    for section in ("model", "lattice"):
        rows = sections[section]["charge"]
        for row, lineno in zip(rows, config.key_lines.get((section, "charge"), ())):
            if row[0] == 0.0 and row[1] == 0.0:
                raise ConfigError("couplings must be nonzero", lineno)
    fld = sections["field"]
    for lo, hi in (("x_min", "x_max"), ("y_min", "y_max")):
        if not fld[lo] < fld[hi]:
            raise ConfigError("grid bounds must satisfy min < max", line("field", lo, hi))
    sim = sections["simulate"]
    if sim["sample_times"] and sim["runs"] < 1000:
        raise ConfigError(
            "equivariance sampling (sample_times) needs runs >= 1000",
            line("simulate", "runs", "sample_times"),
        )
    if sim["runs"] > 0:
        ensemble_steps(sim["t_max"], sim["sample_times"], sim["dt"], partial(line, "simulate"))


def ensemble_steps(t_max, sample_times, dt, line=lambda *keys: None):
    """The dt step of an ensemble's horizon and, in order, of each sample time.

    The grid rules: t_max and each sample time are finite and lie on the
    grid (within 1e-9, relative above 1); t_max/dt does not overflow; t_max
    is at least one step on; no sample time is later than t_max; no two
    share a step.  With no t_max the horizon is the last sample time, which
    may be t = 0.  A broken rule raises ConfigError naming its key, at
    `line(key, ...)`.
    """

    def fail(key, need, *also):
        raise ConfigError(f"key '{key}' {need}", line(key, *also))

    def step(key, value):
        if not np.isfinite(value):
            fail(key, "must be finite")
        ratio = value / dt
        if not np.isfinite(ratio):
            fail("dt", f"is too small: {key}/dt overflows")
        k = int(round(ratio))
        if abs(k * dt - value) > 1e-9 * max(abs(value), 1.0):
            fail(key, "must lie on the dt grid for ensemble runs", "dt")
        return k

    if t_max is not None and any(ts > t_max for ts in sample_times):
        fail("sample_times", "entries may not exceed t_max")
    n_steps = None if t_max is None else step("t_max", t_max)
    # a horizon of no step would leave the reversal statistics vacuous
    if n_steps is not None and n_steps < 1:
        fail("t_max", "must be at least one dt step for ensemble runs")
    samples = tuple(step("sample_times", ts) for ts in sample_times)
    if len(set(samples)) < len(samples):
        fail("sample_times", "entries must be distinct on the dt grid")
    return max(samples) if n_steps is None else n_steps, samples
