"""Self-test of the benchmark at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Checks, for every workload, that the result line has the contract's keys,
that every metric BENCHMARK.json names appears with its unit and that no
check failed; that the exact counts of two traced runs with the same seed
agree; that each workload drives the layers it is meant to; and that the
benchmark fails without printing a result when the sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# a count per workload that must be positive: the layer it is built to drive
DRIVEN = {
    "ensemble": ("groundstate.velocity.calls", "process.ensemble.run_steps"),
    "lattice": ("lattice.build.states", "lattice.bell.chain_steps"),
    "paths": ("groundstate.velocity.calls", "groundstate.current.calls", "io.rows"),
}


def _bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(workload, trace):
    rc, lines = _bench(workload, trace)
    assert rc == 0 and lines, f"{workload} trace {trace}: exit {rc}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, json.loads(lines[-2])["report"]["failed_checks"]
    assert result["attempted"] >= 1
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in workloads.WORKLOADS:
        metrics = _result(workload, 0)
        assert {k: v["unit"] for k, v in metrics.items()} == end_to_end, metrics
        assert all(v["value"] > 0 for v in metrics.values()), metrics
        first, second = _result(workload, 1), _result(workload, 1)
        assert {k: v["unit"] for k, v in first.items()} == per_layer
        for name in tracing.EXACT_COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)
        for name in DRIVEN[workload]:
            assert first[name]["value"] > 0, (workload, name)
        print(f"{workload}: ok")

    bare = os.path.join(ROOT, ".perfbench_run", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = _bench("paths", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and not any(line.startswith('{"correct"') for line in lines), (rc, lines)
    print("without sources: ok")


if __name__ == "__main__":
    main()
