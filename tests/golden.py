"""Golden sha256 digests of every artifact chargeflow writes for configs/figure.cfg.

The digests cover the seven commands and the three ``lattice --check`` kinds
at two master seeds, and they record the Python, numpy and scipy versions
that produced them.  ``tests/test_golden.py`` recomputes them.  A change that
means to change an artifact regenerates the file and says why:

    PYTHONPATH=src python tests/golden.py
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


def artifact_digests():
    """{"<seed> <command>[ --check <kind>]": {"exit": code, "files": {name: sha256}}}.

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
                }
    return digests


if __name__ == "__main__":
    document = {"versions": versions(), "artifacts": artifact_digests()}
    GOLDEN.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
