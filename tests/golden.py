"""Golden sha256 digests of every artifact chargeflow writes for configs/figure.cfg.

The digests cover the seven commands and the three ``lattice --check`` kinds
at two master seeds, and they record the Python, numpy and scipy versions
that produced them, beside numpy's SIMD baseline, the dispatch targets its
host offered and the BLAS it links.  ``tests/test_golden.py`` recomputes
them.  A change that means to change an artifact regenerates the file and
says why:

    PYTHONPATH=src python tests/golden.py

which prints each ``<seed> <command> <file>`` whose digest changed,
appeared or vanished against the file it replaces.  Beside each file's
digest the file keeps the digest of its body, the artifact without its
provenance (`body_digest`), so a change that moves only the provenance is
printed as ``changed (provenance only)``.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from chargeflow.cli import main
from chargeflow.config import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
FIGURE_CFG = ROOT / "configs" / "figure.cfg"
GOLDEN = Path(__file__).with_name("golden_digests.json")
SEEDS = (12345, 31415)
RUNS = tuple((command, None) for command in COMMANDS) + tuple(
    ("lattice", check) for check in ("gauge", "commutation", "reversal")
)


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def build():
    """numpy's SIMD baseline and found dispatch targets, and its BLAS build:
    what may round differently on another host with the same versions."""
    config = np.show_config(mode="dicts")
    simd = config["SIMD Extensions"]
    blas = config["Build Dependencies"]["blas"]
    return {
        "simd_baseline": simd.get("baseline", []),
        "simd_found": simd.get("found", []),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_configuration": blas.get("openblas configuration"),
    }


def body_digest(path):
    """sha256 of an artifact without its provenance: a CSV's lines that do
    not start with '#', a JSON document without `_provenance` dumped with
    sorted keys, or a JSON-lines file's records after the first."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        body = b"".join(line for line in data.splitlines(True) if not line.startswith(b"#"))
    elif path.suffix == ".json":
        document = json.loads(data)
        del document["_provenance"]
        body = json.dumps(document, sort_keys=True).encode()
    else:
        body = b"".join(data.splitlines(True)[1:])
    return hashlib.sha256(body).hexdigest()


def artifact_digests():
    """{"<seed> <command>[ --check <kind>]": {"exit": code, "files": {name:
    sha256}, "bodies": {name: body_digest}}}.

    A check that runs and fails exits 3 and still writes its report."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for command, check in RUNS:
                name = f"{seed} {command}" + (f" --check {check}" if check else "")
                out = os.path.join(tmp, name.replace(" ", "_"))
                argv = [command, "--config", str(FIGURE_CFG), "--out", out, "--seed", str(seed)]
                code = main(argv + (["--check", check] if check else []))
                files = sorted(os.listdir(out)) if os.path.isdir(out) else []
                digests[name] = {
                    "exit": code,
                    "files": {f: hashlib.sha256(Path(out, f).read_bytes()).hexdigest() for f in files},
                    "bodies": {f: body_digest(Path(out, f)) for f in files},
                }
    return digests


def changes(old, new):
    """Lines `<seed> <command> <file>: changed|appeared|vanished` for every
    file digest that differs between two artifact maps, `changed
    (provenance only)` where the body digests agree, and a line per changed
    exit code."""
    lines = []
    for name in [*new, *(name for name in old if name not in new)]:
        was, now = old.get(name, {}), new.get(name, {})
        if was.get("exit") != now.get("exit"):
            lines.append(f"{name}: exit {was.get('exit')} -> {now.get('exit')}")
        files_was, files_now = was.get("files", {}), now.get("files", {})
        for file in [*files_now, *(f for f in files_was if f not in files_now)]:
            if file not in files_now:
                lines.append(f"{name} {file}: vanished")
            elif file not in files_was:
                lines.append(f"{name} {file}: appeared")
            elif files_was[file] != files_now[file]:
                same_body = was.get("bodies", {}).get(file) == now["bodies"][file]
                lines.append(f"{name} {file}: changed" + (" (provenance only)" if same_body else ""))
    return lines


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    document = {"versions": versions(), "build": build(), "artifacts": artifact_digests()}
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    for line in changes(old.get("artifacts", {}), document["artifacts"]):
        print(line)
    print(f"wrote {GOLDEN}", file=sys.stderr)
