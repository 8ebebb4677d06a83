import json

import numpy as np

from chargeflow.io import Provenance, write_csv, write_json, write_jsonl
from golden import GOLDEN, artifact_digests, body_digest, build, changes, versions


def test_figure_artifacts_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # another numerical stack may round differently; say so instead of
    # reporting a digest mismatch, and do not skip
    assert versions() == golden["versions"], (
        f"golden digests were made with {golden['versions']}, this run has {versions()}; "
        "regenerate them with tests/golden.py on a checkout known to be correct"
    )
    # the SIMD dispatch and the BLAS build are named, not required: a host
    # that dispatches otherwise but rounds alike passes
    assert artifact_digests() == golden["artifacts"], (
        f"golden digests were made on {golden['build']}, this host has {build()}"
    )


def test_a_change_of_provenance_alone_is_reported_as_such(tmp_path):
    # the same bodies under two option sets, then one body changed
    writers = {
        "a.csv": lambda path, x, prov: write_csv(path, ("x",), [(np.array([x]),)], prov),
        "b.json": lambda path, x, prov: write_json(path, {"x": x, "y": [1, 2]}, prov),
        "c.jsonl": lambda path, x, prov: write_jsonl(path, [{"x": x}], prov),
    }
    runs = {}
    for run, (option, x) in {"old": (1.0, 0.5), "new": (2.0, 0.5), "edit": (2.0, 0.25)}.items():
        (tmp_path / run).mkdir()
        prov = Provenance("test", "0" * 64, 1, {}, {"lattice": {"a": option}})
        for name, write in writers.items():
            write(tmp_path / run / name, x, prov)
        paths = {name: tmp_path / run / name for name in writers}
        runs[run] = {
            "1 test": {
                "exit": 0,
                "files": {name: path.read_bytes().hex() for name, path in paths.items()},
                "bodies": {name: body_digest(path) for name, path in paths.items()},
            }
        }
    assert changes(runs["old"], runs["new"]) == [
        f"1 test {name}: changed (provenance only)" for name in writers
    ]
    assert changes(runs["new"], runs["edit"]) == [f"1 test {name}: changed" for name in writers]
    assert changes(runs["old"], runs["old"]) == []
