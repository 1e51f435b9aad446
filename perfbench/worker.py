"""One workload in a fresh interpreter: set up, time passes, check outputs.

Run by run.py with the BLAS pool already fixed in the environment, from
the root of a checkout whose src/ holds trilag.  Prints one JSON object as
the last line of standard output.
"""

import argparse
import ctypes
import json
import math
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import trilag  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# with tracing, untraced and traced passes alternate; each side gets this many at least
MIN_TRACE_PAIRS = 2
# headroom of an exact match: log10(tol / deviation) is capped here
HEADROOM_CEILING = 6.0
# nearest quantile, over a pass list of n timings, with at least 10 passes beyond it
TAIL_BEYOND = 10


def blas_pools():
    """Thread count of every OpenBLAS library loaded into this process."""
    pools = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                pools[os.path.basename(path)] = fn()
                break
    return pools


def run_record(name, seed, seconds, trace):
    fi = np.finfo(np.longdouble)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_pool": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "blas_threads": blas_pools(),
        "nproc": os.cpu_count(),
        "longdouble": {"nmant": int(fi.nmant), "eps": float(fi.eps), "bits": fi.bits},
    }


def run_pass(wl, rng, switch_tracing=None):
    """Run one pass; returns (wall seconds, job names with inputs, checks).

    `switch_tracing(on)` is called around the job loop only, so the checks,
    which run after the clock stops, leave no spans.
    """
    jobs = wl.jobs(rng)
    if wl.before_pass is not None:
        wl.before_pass()
    outputs = []
    t0 = time.perf_counter()
    if switch_tracing is not None:
        switch_tracing(True)
    try:
        for job in jobs:
            try:
                outputs.append(job.run())
            except Exception as exc:  # a raising job is a failed check, not a crash
                outputs.append(exc)
    finally:
        if switch_tracing is not None:
            switch_tracing(False)
    wall = time.perf_counter() - t0
    checks = []
    for job, out in zip(jobs, outputs):
        if isinstance(out, Exception):
            checks.append(workloads.invariant("%s.raised %r" % (job.name, out), False))
            continue
        try:
            checks.extend(job.check(out))
        except Exception as exc:
            checks.append(workloads.invariant("%s.check_raised %r" % (job.name, exc), False))
    return wall, [(job.name + " " + job.inputs).strip() for job in jobs], checks


def headroom(checks):
    """Minimum over the checks of log10(tol / deviation), capped at HEADROOM_CEILING.

    Invariants carry no deviation and do not contribute; a missing level
    or a NaN counts as -HEADROOM_CEILING.
    """
    values = [HEADROOM_CEILING]
    for c in checks:
        if c.deviation is None:
            continue
        if not c.deviation < math.inf:
            values.append(-HEADROOM_CEILING)
        elif c.deviation > 0:
            values.append(min(HEADROOM_CEILING, math.log10(c.tol / c.deviation)))
    return min(values)


def timing_summary(walls):
    n = len(walls)
    out = {"passes": n, "median_s": statistics.median(walls), "passes_s": walls}
    if n > TAIL_BEYOND:
        q = (n - TAIL_BEYOND) / n
        out["p%g_s" % round(100 * q, 1)] = sorted(walls)[n - TAIL_BEYOND - 1]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if not os.path.abspath(trilag.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit("trilag imported from %s, not from this checkout" % trilag.__file__)
    os.makedirs(args.out_dir, exist_ok=True)
    wl = workloads.build(args.workload, args.out_dir)
    rng = random.Random(args.seed)
    tr = tracer.Tracer().install() if args.trace else None

    def switch(on):
        tr.enabled = on

    walls, traced_walls, all_checks, job_orders, headrooms = [], [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            enough = min(len(walls), len(traced_walls)) >= MIN_TRACE_PAIRS
        else:
            enough = len(walls) >= MIN_PASSES
        if enough and elapsed >= args.seconds:
            break
        traced = bool(args.trace) and len(traced_walls) < len(walls)
        wall, order, checks = run_pass(wl, rng, switch if traced else None)
        (traced_walls if traced else walls).append(wall)
        all_checks.extend(checks)
        job_orders.append(order)
        headrooms.append(headroom(checks))

    failed = [c for c in all_checks if not c.ok]
    result = {
        "record": run_record(args.workload, args.seed, args.seconds, args.trace),
        "job_orders": job_orders,
        "attempted": len(all_checks),
        "failed": len(failed),
        "failed_checks": sorted({c.label for c in failed}),
        "wall": timing_summary(walls),
        # the headroom of a typical pass: the deviations a pass checks move
        # with its drawn basis scales, so the worst one over all passes
        # would mostly measure how many passes ran
        "headroom_digits": statistics.median(headrooms),
        "pass_headroom_digits": headrooms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        result["traced_wall"] = timing_summary(traced_walls)
        result["layers"] = tracer.layer_metrics(tr.spans, len(traced_walls), overhead)
        spans_path = os.path.join(args.out_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            for s in tr.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.thread,
                                     s.tag if not isinstance(s.tag, tuple) else list(s.tag)])
                         + "\n")
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        tr.uninstall()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
