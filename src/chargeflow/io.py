"""Deterministic file output: provenance headers, CSV, JSON, JSON-lines.

Every artifact begins with a provenance block naming the tool version, the
sha256 of the config text, the command, the master seed and the derived
per-stream seeds, and every resolved option of the command (defaults
included).  Floating-point values are printed with a fixed 17-significant-
digit format, so identical configs and seeds give byte-identical files; JSON
writes NaN and infinities as null.  CSV tables are written in blocks of
columns, and a float64 column goes through the vectorized '%.17g' of
`chargeflow.g17`, loaded on first use.  Files are written to a
temporary sibling and renamed into place with the permissions the umask
grants; a failed write leaves no file, nor a directory that it created.
"""

import itertools
import json
import os
import tempfile
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


def atomic_write_text(path, chunks):
    """Write an iterable of strings (as UTF-8) or byte buffers via a temporary
    sibling and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    created = []  # the directories makedirs adds, deepest first
    head = directory
    while not os.path.isdir(head):
        created.append(head)
        head = os.path.dirname(head)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        # mkstemp creates the file with mode 0600; give it what open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        try:
            for created_dir in created:
                os.rmdir(created_dir)
        except OSError:
            pass  # another writer has put a file there
        raise


def _column_cells(col):
    """One column of a CSV block -> its texts as an (n, w) uint8 matrix, and
    None if NUL marks the unused bytes, else the mask of the bytes to keep."""
    dtype = getattr(col, "dtype", np.dtype(object))
    if dtype == np.float64:
        # where the distinct bit patterns are at most half of the column, format
        # each once; bits, not values, so -0.0 and NaN print as format_value does.
        # A sort finds them: numpy 2.4's np.unique hashes first, 0.6 ms against
        # 35 us for 4,096 distinct values on a 2-core Xeon
        bits = col.view(np.int64)
        ordered = np.sort(bits)
        distinct = np.append(ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])
        # the kernel loads on the first float column: `import chargeflow.cli`
        # does not compile it
        from .g17 import g17_cells

        if 2 * distinct.size > bits.size:
            return g17_cells(col), None
        return g17_cells(distinct.view(np.float64))[np.searchsorted(distinct, bits)], None
    if dtype.kind in "iu":
        texts = list(map(str, col.tolist()))
    else:
        texts = list(map(format_value, col))
    # a str cell may hold NUL bytes, so its mask comes from its length
    data = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    width = max(lengths.max(initial=0), 1)
    cells = np.array(data, f"S{width}").view(np.uint8).reshape(len(data), width)
    return cells, np.arange(width) < lengths[:, None]


def write_csv(path, columns, blocks, provenance):
    """CSV with '#'-prefixed provenance, a header row, and 17-digit floats.

    `blocks` is consumed once.  Each block is a sequence of len(columns)
    equal-length 1-D columns (numpy arrays or lists) and becomes one byte
    buffer that streams into the temporary file.  A float64 array prints as
    %.17g through `g17.g17_cells` (the bytes '%' gives), an integer array as
    %d, anything else through `format_value`.  Each column becomes a byte
    matrix with one row per cell and a mask of the bytes to keep; a block is
    the columns and the separators side by side, compacted by the mask in
    one pass.
    """

    def block_bytes(block):
        lengths = {len(col) for col in block}
        if len(block) != len(columns) or len(lengths) > 1:
            raise ValueError(f"a CSV block needs {len(columns)} columns of equal length")
        n = lengths.pop()
        cells, masks = zip(*map(_column_cells, block))
        comma = np.full((n, 1), ord(","), np.uint8)
        parts = [part for col_cells in cells for part in (col_cells, comma)]
        parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
        data = np.hstack(parts)
        keep = data != 0
        start = 0
        for col_cells, mask in zip(cells, masks):
            if mask is not None:
                keep[:, start : start + mask.shape[1]] = mask
            start += col_cells.shape[1] + 1
        # a 1-D boolean index: np.compress would first list the kept
        # positions, 8 bytes for each byte of the text
        return data.ravel()[keep.ravel()]

    header = [f"# {line}\n" for line in provenance.comment_lines()]
    header.append(",".join(columns) + "\n")
    atomic_write_text(path, itertools.chain(header, map(block_bytes, blocks)))


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
