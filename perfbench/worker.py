"""Fresh-interpreter side of the benchmark; started by run.py.

    worker.py setup <root> <config>...
        Time `import chargeflow.cli` plus `parse_config` of each config and
        print {"setup_s": ..., "scaled_setup_s": ...}.
    worker.py run <root> <workload> <seed> <seconds> <trace> <scale> <work>
        Run the workload's CLI steps in-process through `chargeflow.cli.main`:
        one warm-up iteration, then timed iterations until `seconds` have
        passed (at least MIN_ITERATIONS).  With trace 1, untraced and traced
        iterations alternate (at least two of each).  Prints one JSON object
        as its last line.

Every measured time is also reported scaled to the reference machine speed
(see calibrate.py), under the same name with a "scaled_" prefix.
"""

import json
import os
import resource
import shutil
import statistics
import sys
import time

_T0 = time.perf_counter()
import calibrate  # noqa: E402  (imports numpy, which set-up probes time)

_NUMPY_S = time.perf_counter() - _T0
MIN_ITERATIONS = 3


def _setup(root, config_paths):
    sys.path.insert(0, os.path.join(root, "src"))
    with calibrate.SpeedSampler() as speed:
        t0 = time.perf_counter()
        import chargeflow.cli  # noqa: F401  (the import is what is timed)
        from chargeflow.config import parse_config

        for path in config_paths:
            with open(path, encoding="utf-8") as handle:
                parse_config(handle.read())
        setup = _NUMPY_S + time.perf_counter() - t0
    print(json.dumps({"setup_s": speed.net(setup), "scaled_setup_s": speed.scaled(setup)}))


def _iteration(cli, wl, workload, scale, config_paths, work, checks, tracer=None):
    """One pass over the workload's steps; returns (times, digest).

    Untraced steps run under a SpeedSampler, which also gives their scaled
    times; traced steps are timed plainly."""
    shutil.rmtree(work, ignore_errors=True)
    times = {}
    out_dirs = {}
    for step in wl.steps(workload):
        out = os.path.join(work, step.label)
        out_dirs[step.label] = out
        argv = step.argv(config_paths[step.config], out)
        if tracer is None:
            with calibrate.SpeedSampler() as speed:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                dt = time.perf_counter() - t0
            measured = {"": speed.net(dt), "scaled_": speed.scaled(dt)}
        else:
            t0 = time.perf_counter()
            rc = tracer.run("cli", cli.main, argv)
            measured = {"": time.perf_counter() - t0}
        checks.expect(f"{step.label} exits {step.expect_rc} (got {rc})", rc == step.expect_rc)
        for name in ("wall_s", step.timer) if step.timer else ("wall_s",):
            for prefix, value in measured.items():
                times[prefix + name] = times.get(prefix + name, 0.0) + value
    wl.check_outputs(workload, out_dirs, checks, scale)
    return times, wl.artifact_digest(out_dirs)


def _run(root, workload, seed, seconds, trace, scale, work):
    sys.path.insert(0, os.path.join(root, "src"))
    import chargeflow.cli as cli
    import tracing
    import workloads as wl

    config_paths = {}
    for name in wl.configs(workload, seed, scale):
        config_paths[name] = os.path.join(work, name + ".cfg")
    runs = os.path.join(work, "out")
    checks = wl.Checks()

    _, digest = _iteration(cli, wl, workload, scale, config_paths, runs, checks)
    untraced, traced = [], []  # times; (tracer, times)
    t_start = time.perf_counter()
    least = 2 if trace else MIN_ITERATIONS
    while len(untraced) < least or time.perf_counter() - t_start < seconds:
        times, d = _iteration(cli, wl, workload, scale, config_paths, runs, checks)
        checks.expect("artifacts are byte-identical across iterations", d == digest)
        untraced.append(times)
        if not trace:
            continue
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            times, d = _iteration(cli, wl, workload, scale, config_paths, runs, checks, tracer)
        finally:
            tracer.uninstall()
        checks.expect("traced artifacts are byte-identical", d == digest)
        traced.append((tracer, times))
    shutil.rmtree(runs, ignore_errors=True)

    def median(samples, key):
        return statistics.median(s.get(key, 0.0) for s in samples)

    commands = sorted({k for s in untraced for k in s})
    result = {
        "iterations": len(untraced),
        "command_medians_s": {k: median(untraced, k) for k in commands},
        "wall_samples_s": [s["wall_s"] for s in untraced],
        "scaled_wall_samples_s": [s["scaled_wall_s"] for s in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        overhead = median([times for _, times in traced], "wall_s") - median(untraced, "wall_s")
        per_iter = [tracing.layer_metrics(t, times, overhead) for t, times in traced]
        for name in tracing.EXACT_COUNTS:
            checks.expect(
                f"{name} repeats exactly across traced iterations",
                len({m[name] for m in per_iter}) == 1,
            )
        result["layers"] = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
    result["checks_attempted"] = checks.attempted
    result["check_failures"] = checks.failures
    print(json.dumps(result))


if __name__ == "__main__":
    mode, root = sys.argv[1], sys.argv[2]
    if mode == "setup":
        _setup(root, sys.argv[3:])
    else:
        workload, seed, seconds, trace, scale, work = sys.argv[3:9]
        _run(root, workload, int(seed), float(seconds), trace == "1", scale, work)
