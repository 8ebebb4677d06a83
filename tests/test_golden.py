import json

from golden import GOLDEN, artifact_digests, build, versions


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
