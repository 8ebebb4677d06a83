import json

from golden import GOLDEN, artifact_digests, versions


def test_figure_artifacts_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    # another numerical stack may round differently; say so instead of
    # reporting a digest mismatch, and do not skip
    assert versions() == golden["versions"], (
        f"golden digests were made with {golden['versions']}, this run has {versions()}; "
        "regenerate them with tests/golden.py on a checkout known to be correct"
    )
    assert artifact_digests() == golden["artifacts"]
