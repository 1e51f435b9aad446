"""trilag benchmark: three workloads, end to end or with a per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_spectra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh interpreter (worker.py) with its BLAS pool
fixed in the environment before numpy loads.  With --trace 0 the last line
of standard output is a JSON object carrying the end-to-end metrics, with
--trace 1 the per-layer ones.  `--workload all` runs every workload
untraced and prints each end-to-end metric by name with its unit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dense_spectra", "sweep", "cli_gates")
BLAS_POOL = {"dense_spectra": "1", "sweep": "default", "cli_gates": "default"}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fresh-interpreter imports timed per run; setup_s is their median
SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import numpy, scipy, trilag\n"
    "t = time.perf_counter() - t\n"
    "import os, sys\n"
    "if not os.path.abspath(trilag.__file__).startswith(sys.argv[1] + os.sep):\n"
    "    sys.exit('trilag imported from outside ' + sys.argv[1])\n"
    "print(repr(t))\n"
)
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "headroom_digits": "digits"}


class BenchError(RuntimeError):
    pass


def workload_env(name):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = SRC
    if BLAS_POOL[name] != "default":
        for var in BLAS_VARS:
            env[var] = BLAS_POOL[name]
    return env


def setup_seconds(env, deadline):
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError("importing trilag failed:\n" + proc.stderr)
        times.append(float(proc.stdout.strip()))
    return statistics.median(times), times


def run_worker(name, seed, seconds, trace, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError("workload %s failed:\n%s" % (name, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_one(name, seed, seconds, trace):
    """Run one workload; returns (result line, run record and details)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = workload_env(name)
    details = {}
    if not trace:
        details["setup_s"], details["setup_samples_s"] = setup_seconds(env, deadline)
    out = run_worker(name, seed, seconds, trace, env, deadline)
    details.update(out)
    if trace:
        values, units = out["layers"], LAYER_UNITS
    else:
        values = {"wall_s": out["wall"]["median_s"], "setup_s": details["setup_s"],
                  "peak_rss_mb": out["peak_rss_mb"],
                  "headroom_digits": out["headroom_digits"]}
        units = E2E_UNITS
    metrics = {k: metric(values[k], u) for k, u in units.items()}
    line = {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}
    return line, details


def print_details(details):
    rec = dict(details)
    rec.pop("layers", None)
    print("# run " + json.dumps(rec, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trilag", "__init__.py")):
        print("error: %s holds no trilag package to benchmark" % SRC, file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            lines[name], details = run_one(name, args.seed, args.seconds, args.trace)
            print_details(details)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    print("%-14s %-18s %14s  %s" % ("workload", "metric", "value", "unit"))
    for name, line in lines.items():
        rows = list(line["metrics"].items())
        rows.append(("fail_rate", metric(line["failed"] / line["attempted"], "ratio")))
        for key, m in rows:
            print("%-14s %-18s %14.6g  %s" % (name, key, m["value"], m["unit"]))
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
