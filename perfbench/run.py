"""chargeflow benchmark: end-to-end CLI timings and a per-layer trace.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload ensemble|lattice|paths \\
        [--seed 12345] [--seconds 10] [--trace 0|1]

Each run generates the workload's configs from the seed, then starts fresh
interpreters (worker.py): one process that drives `chargeflow.cli.main`
in-process, one warm-up iteration and then timed iterations for `--seconds`
seconds, and then SETUP_PROBES timed `import chargeflow.cli` plus
`parse_config` probes, which find bytecode compiled and files cached.  Every iteration's artifacts are checked
(exit codes, JSON parsing, CSV row counts, the physics gates, byte-identical
repeats); each check is one operation attempted.

The last line of standard output is the result.  With --trace 0 it holds the
end-to-end metrics: scaled_wall_s, the median over iterations of the
workload's CLI time, and setup_s, the median set-up probe, both scaled to a
reference machine speed (calibrate.py), and peak_rss_mb of the driving
process.  With --trace 1 it holds the per-layer metrics of
tracing.PER_LAYER, medians over traced iterations, in unscaled seconds.
The line before the result is a report: raw and scaled samples, per-command
medians, failed checks and a machine block.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0  # a run must end within 180 s


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def _steal_ticks():
    fields = _read("/proc/stat").split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def machine_state():
    """Load and steal counters; read-only."""
    load = _read("/proc/loadavg").split()[:3]
    return {"loadavg": [float(x) for x in load], "steal_ticks": _steal_ticks()}


def machine_info():
    """Static description of the machine and the numerical stack; read-only."""
    import numpy
    import scipy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _worker(args, timeout):
    """Run worker.py and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(timeout, 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks every size, for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "chargeflow", "cli.py")):
        print("benchmark error: no chargeflow sources under src/", file=sys.stderr)
        return 2

    work = os.path.join(
        ROOT, ".perfbench_run", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    )
    os.makedirs(work, exist_ok=True)
    try:
        config_paths = []
        for name, text in workloads.configs(args.workload, args.seed, args.scale).items():
            path = os.path.join(work, name + ".cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            config_paths.append(path)
        before = machine_state()
        left = DEADLINE_S - (time.perf_counter() - started)
        result = _worker(
            ["run", ROOT, args.workload, str(args.seed), str(args.seconds),
             str(args.trace), args.scale, work],
            left,
        )
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            left = DEADLINE_S - (time.perf_counter() - started)
            setup.append(_worker(["setup", ROOT, *config_paths], left))
        after = machine_state()
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = result["check_failures"]
    if args.trace:
        metrics = {
            name: _metric(result["layers"][name], unit)
            for name, (unit, _) in tracing.PER_LAYER.items()
        }
    else:
        metrics = {
            "scaled_wall_s": _metric(statistics.median(result["scaled_wall_samples_s"]), "s"),
            "setup_s": _metric(statistics.median(p["scaled_setup_s"] for p in setup), "s"),
            "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
        }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "iterations": result["iterations"],
        "command_medians_s": result["command_medians_s"],
        "wall_samples_s": result["wall_samples_s"],
        "scaled_wall_samples_s": result["scaled_wall_samples_s"],
        "setup_samples_s": [p["setup_s"] for p in setup],
        "scaled_setup_samples_s": [p["scaled_setup_s"] for p in setup],
        "failed_checks": failures,
        **({"layer_moves": tracing.LAYER_MOVES} if args.trace else {}),
        "machine": {**machine_info(), "before": before, "after": after},
        "run_s": time.perf_counter() - started,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["checks_attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
