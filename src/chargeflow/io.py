"""Deterministic file output: provenance headers, CSV, JSON, JSON-lines.

Every artifact begins with a provenance block naming the tool version, the
sha256 of the config text, the command, the master seed and the derived
per-stream seeds, and every resolved option of the command (defaults
included).  Floating-point values are printed with a fixed 17-significant-
digit format, so identical configs and seeds give byte-identical files; JSON
writes NaN and infinities as null.  CSV tables are written in blocks of
columns of real numbers, and every cell of a block goes through one
vectorized '%.17g' of `chargeflow.g17`, loaded on first use, so an integer
up to 2**53 in magnitude prints as '%d'; any other column raises ValueError.
Each file is written to a temporary sibling and renamed into place with the
permissions the umask grants, so a failed write leaves no file;
`cli.dispatch` commits the set.
"""

import itertools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__

__all__ = [
    "derive_seed",
    "format_value",
    "Provenance",
    "atomic_write_text",
    "write_csv",
    "write_json",
    "write_jsonl",
    "trajectory_events",
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
    """Identity of one artifact: config, command, seeds, resolved options
    (one dict of key to value per config section)."""

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
            for key, value in mapping.items():
                lines.append(f"option {section}.{key} = {_option_text(value)}")
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


def atomic_write_text(path, chunks):
    """Write an iterable of strings (as UTF-8) or byte buffers via a temporary
    sibling and an atomic rename, into a directory that exists."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    # created as open() would create it: mode 0666, less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, columns, blocks, provenance):
    """CSV with '#'-prefixed provenance, a header row, and 17-digit floats.

    `blocks` is consumed once.  Each block is a sequence of len(columns)
    equal-length 1-D columns (numpy arrays or lists) of real numbers and
    becomes one byte buffer that streams into the temporary file.  Every
    cell of a block prints as %.17g through one `g17.g17_cells` call (the
    bytes '%' gives), so an integer of magnitude up to 2**53 prints as %d;
    a column of anything else (bool, str, objects, larger integers) raises
    ValueError and leaves no file.  Each column becomes a byte matrix with
    one row per cell; a block is the columns and the separators side by
    side, less the NUL bytes that fill each cell, in one pass.
    """

    def block_bytes(block):
        lengths = {len(col) for col in block}
        if len(block) != len(columns) or len(lengths) > 1:
            raise ValueError(f"a CSV block needs {len(columns)} columns of equal length")
        n = lengths.pop()
        # a column gives the g17 pass its values or, where they are at most
        # half of it, its distinct bit patterns; bits, so -0.0 and NaN print
        # as format_value does.  A sort finds them: numpy 2.4's np.unique hashes
        # first, 0.6 ms against 35 us for 4,096 distinct values on a 2-core Xeon
        values, picks, size = [], [], 0
        for col in block:
            col = np.asarray(col)
            # an integer up to 2**53 in magnitude is a double that '%.17g'
            # prints as '%d' does
            big = col.dtype.kind in "iu" and col.size and max(-int(col.min()), int(col.max())) > 2**53
            if big or col.dtype.kind not in "iuf":
                raise ValueError(f"a {col.dtype} CSV column: cells are reals or integers up to 2**53")
            bits = col.astype(np.float64, copy=False).view(np.int64)
            ordered = np.sort(bits)
            distinct = np.append(ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])
            whole = 2 * distinct.size > n
            values.append(bits if whole else distinct)
            picks.append(slice(size, size + n) if whole else size + np.searchsorted(distinct, bits))
            size += len(values[-1])
        # the kernel loads on the first block: `import chargeflow.cli` does
        # not compile it
        from .g17 import g17_cells

        texts = g17_cells(np.concatenate(values).view(np.float64))
        ends = np.full((n, len(block)), ord(","), np.uint8)
        ends[:, -1] = ord("\n")
        parts = [part for j, p in enumerate(picks) for part in (texts[p], ends[:, j : j + 1])]
        data = np.hstack(parts).ravel()
        # a 1-D boolean index: np.compress would first list the kept
        # positions, 8 bytes for each byte of the text
        return data[data != 0]

    header = [f"# {line}\n" for line in provenance.comment_lines()]
    header.append(",".join(columns) + "\n")
    atomic_write_text(path, itertools.chain(header, map(block_bytes, blocks)))


def _json_fragment(obj, out, indent):
    # indent None selects the compact single-line form (JSON-lines records)
    if obj is None or isinstance(obj, (float, np.floating)) and not np.isfinite(obj):
        # JSON has no NaN or infinity
        out.append("null")
    elif isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        out.append(format_value(obj))
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
        # compact: {"a": 1, "b": 2}; indented: each key on a line of its own,
        # two blanks in from the brace
        inner = None if indent is None else indent + 2
        if indent is None:
            lead, sep, close = "", ", ", "}"
        else:
            lead, sep, close = "\n" + " " * inner, ",", "\n" + " " * indent + "}"
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{sep if i else ''}{lead}{json.dumps(str(key), ensure_ascii=False)}: ")
            _json_fragment(value, out, inner)
        out.append(close)
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
    atomic_write_text(path, (_json_text(document), "\n"))


def write_jsonl(path, records, provenance):
    """JSON-lines: a provenance record first, then one record per line."""
    records = itertools.chain([{"type": "provenance", **provenance.json_dict()}], records)
    atomic_write_text(path, (_json_text(record, indent=None) + "\n" for record in records))


def trajectory_events(record):
    """TrajectoryRecord -> JSON-ready event dicts plus a summary record.

    An event's record is its type and then its dataclass fields, in order."""
    # process loads scipy, which the other writers do not need
    from .process import AbsorbEvent, EmitEvent, MoveEvent

    kinds = {MoveEvent: "move", EmitEvent: "emit", AbsorbEvent: "absorb"}
    events = [{"type": kinds[type(event)], **asdict(event)} for event in record.events]
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
