"""Deterministic file output: provenance headers, CSV, JSON, JSON-lines.

Every artifact begins with a provenance block naming the tool version, the
sha256 of the config text, the command, the master seed and the derived
per-stream seeds, and every resolved option of the command (defaults
included).  Floating-point values are printed with a fixed 17-significant-
digit format, so identical configs and seeds give byte-identical files; JSON
writes NaN and infinities as null.  Files are written to a temporary sibling
and renamed into place with the permissions the umask grants.
"""

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .process import AbsorbEvent, EmitEvent, MoveEvent

__all__ = [
    "derive_seed",
    "format_value",
    "Provenance",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "write_jsonl",
    "trajectory_events",
    "trajectory_path_rows",
]


def derive_seed(master, stream):
    """Child seed for stream number `stream` under the master seed.

    Counter-based splitting via SeedSequence spawn keys: children of one
    master are statistically independent, and the map is pure, so any stream
    can be re-derived from the numbers recorded in the provenance block.
    """
    if stream < 0:
        raise ValueError("stream numbers count from 0")
    state = np.random.SeedSequence(int(master), spawn_key=(int(stream),)).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def format_value(value):
    """Scalar -> text with floats in fixed 17-significant-digit form."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@dataclass(frozen=True)
class Provenance:
    """Identity of one artifact: config, command, seeds, resolved options."""

    command: str
    config_sha256: str
    master_seed: int
    seed_streams: dict
    options: dict

    def comment_lines(self):
        lines = [
            f"chargeflow {__version__}",
            f"command: {self.command}",
            f"config sha256: {self.config_sha256}",
            f"master seed: {self.master_seed}",
        ]
        for name, stream in self.seed_streams.items():
            lines.append(f"seed[{name}]: stream {stream} -> {derive_seed(self.master_seed, stream)}")
        for section, mapping in self.options.items():
            if isinstance(mapping, dict):
                for key, value in mapping.items():
                    lines.append(f"option {section}.{key} = {_option_text(value)}")
            else:
                lines.append(f"option {section} = {_option_text(mapping)}")
        return lines

    def json_dict(self):
        return {
            "version": __version__,
            "command": self.command,
            "config_sha256": self.config_sha256,
            "master_seed": self.master_seed,
            "derived_seeds": {
                name: {"stream": stream, "seed": derive_seed(self.master_seed, stream)}
                for name, stream in self.seed_streams.items()
            },
            "options": self.options,
        }


def _option_text(value):
    if isinstance(value, (list, tuple)):
        parts = []
        for v in value:
            text = _option_text(v)
            parts.append(f"({text})" if isinstance(v, (list, tuple)) else text)
        return " ".join(parts)
    if value is None:
        return "none"
    return format_value(value)


def atomic_write_text(path, text):
    """Write text via a temporary sibling file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        # mkstemp creates the file with mode 0600; give it what open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, columns, rows, provenance):
    """CSV with '#'-prefixed provenance, a header row, and 17-digit floats."""
    lines = [f"# {line}" for line in provenance.comment_lines()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_fragment(obj, out, indent):
    # indent None selects the compact single-line form (JSON-lines records)
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # JSON has no NaN or infinity
        out.append(format(float(obj), ".17g") if np.isfinite(obj) else "null")
    elif isinstance(obj, (complex, np.complexfloating)):
        _json_fragment([obj.real, obj.imag], out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, np.ndarray):
        _json_fragment(obj.tolist(), out, indent)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        if indent is None:
            out.append("{")
            for i, (key, value) in enumerate(obj.items()):
                out.append(json.dumps(str(key), ensure_ascii=False) + ": ")
                _json_fragment(value, out, None)
                if i < len(obj) - 1:
                    out.append(", ")
            out.append("}")
            return
        pad = " " * indent
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key), ensure_ascii=False)}: ")
            _json_fragment(value, out, indent + 2)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            _json_fragment(value, out, indent)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_text(obj, indent=0):
    # hand-rolled emitter: json.dump prints floats with the shortest
    # round-trip repr, which breaks the fixed 17-significant-digit contract
    out = []
    _json_fragment(obj, out, indent)
    return "".join(out)


def write_json(path, payload, provenance):
    """JSON report with the provenance block under the leading key."""
    document = {"_provenance": provenance.json_dict()}
    document.update(payload)
    atomic_write_text(path, _json_text(document) + "\n")


def write_jsonl(path, records, provenance):
    """JSON-lines: a provenance record first, then one record per line."""
    lines = [_json_text({"type": "provenance", **provenance.json_dict()}, indent=None)]
    lines.extend(_json_text(record, indent=None) for record in records)
    atomic_write_text(path, "\n".join(lines) + "\n")


def trajectory_events(record):
    """TrajectoryRecord -> JSON-ready event dicts plus a summary record."""
    events = []
    for event in record.events:
        if isinstance(event, MoveEvent):
            events.append(
                {
                    "type": "move",
                    "t_start": event.t_start,
                    "t_end": event.t_end,
                    "particles": list(event.particles),
                }
            )
        elif isinstance(event, EmitEvent):
            events.append(
                {
                    "type": "emit",
                    "time": event.time,
                    "source": event.source,
                    "direction": list(event.direction),
                    "particle": event.particle,
                }
            )
        elif isinstance(event, AbsorbEvent):
            events.append(
                {"type": "absorb", "time": event.time, "source": event.source, "particle": event.particle}
            )
        else:
            raise TypeError(f"unknown event {type(event).__name__}")
    events.append(
        {
            "type": "summary",
            "seed": record.seed,
            "initial_sector": record.initial_sector,
            "final_sector": record.final_sector,
            "t_final": record.t_final,
            "failure": record.failure,
        }
    )
    return events


def trajectory_path_rows(record):
    """TrajectoryRecord -> (particle, t, x, y, z) rows, one polyline per id."""
    for pid in sorted(record.paths):
        for t, x, y, z in record.paths[pid]:
            yield (pid, t, x, y, z)
